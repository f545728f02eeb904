"""The per-revolution reference every emulation contract is checked against.

``naive_emulate`` shares no resolution or ledger code with
``NodeEmulator.emulate()`` or the fleet runner: it walks
``iter_wheel_rounds`` one unit at a time, evaluates each active round
through the scalar ``_revolution_energy`` and steps a mutating
``StorageElement``.  A fault in the shared
resolution or scan step therefore shows as a difference from it, in the
emulator tests and in the fleet's row and error contracts alike.

The reference memoizes each round's energy on the round's evaluation point
(:func:`revolution_energy`) for one run.  ``_revolution_energy`` evaluates
exactly that point, so its value is a pure function of it, and the memo
changes no bit of the reference's output.
"""

from __future__ import annotations

import numpy as np

from repro.core.emulator import EmulationResult, NodeEmulator, SampleLog
from repro.core.quantize import speed_bin, speed_bin_center_kmh, temperature_bin_center_c
from repro.core.trace import PowerTrace
from repro.timing.wheel_round import WheelRound, iter_wheel_rounds
from repro.vehicle.drive_cycle import DriveCycle


def naive_emulate(
    emulator: NodeEmulator,
    cycle: DriveCycle,
    record_interval_s: float = 1.0,
    trace_window: tuple[float, float] | None = None,
    idle_step_s: float = 1.0,
) -> EmulationResult:
    """The per-revolution reference of ``emulator.emulate(cycle)``.

    Walks ``iter_wheel_rounds`` one unit at a time: advances the thermal
    model, evaluates each active round's energy (``_revolution_energy``,
    memoized on the round's evaluation point), and steps the emulator's own
    storage element through deposit / withdraw / leak with the restart
    hysteresis.  The totals use the same numpy reductions as ``emulate()``.
    A traced round plays the phase list of the width-1 kernel
    (``schedule_energy_compiled`` on the scalar schedule) at its evaluation
    point.
    """
    storage = emulator.storage
    storage.reset()
    thermal = emulator.thermal_model
    if thermal is not None:
        thermal.reset()
    emulator._ensure_caches_fresh()
    pmu = emulator.node.pmu
    units = list(iter_wheel_rounds(cycle, emulator.node.wheel, idle_step_s=idle_step_s))
    round_speeds = [unit.speed_kmh for unit in units if isinstance(unit, WheelRound)]
    round_harvest = iter(emulator.scavenger.energy_sweep_j(np.array(round_speeds, dtype=float)))
    temperature = (
        thermal.current_celsius if thermal is not None else emulator.base_point.temperature_c
    )
    active = not storage.is_depleted
    result = EmulationResult(
        node_name=emulator.node.name,
        cycle_name=cycle.name,
        duration_s=cycle.duration_s,
    )
    trace = PowerTrace() if trace_window is not None else None
    energies: dict[tuple, float] = {}
    is_round, durations, harvest, banked, drawn, withdrew = [], [], [], [], [], []
    log = ([], [], [], [], [])
    brownouts = 0
    next_record_s = 0.0
    for unit in units:
        moving = isinstance(unit, WheelRound)
        duration = unit.period_s if moving else unit.duration_s
        speed = unit.speed_kmh if moving else 0.0
        if thermal is not None:
            temperature = thermal.advance(duration, speed / 3.6)
        sleep_power = emulator._standstill_power(temperature)
        if not active and storage.can_restart:
            active = True
        attempted = success = False
        load = 0.0
        phases = ()
        energy_in = float(next(round_harvest)) if moving else 0.0
        stored = storage.deposit(energy_in) if moving else 0.0
        if active:
            attempted = True
            if moving:
                energy = revolution_energy(emulator, unit, temperature, energies)
                load = pmu.referred_to_storage(energy)
            else:
                load = pmu.referred_to_storage(sleep_power * duration)
            success = storage.withdraw(load)
            if not success:
                active = False
                brownouts += 1
        storage.leak(duration)
        is_round.append(moving)
        durations.append(duration)
        harvest.append(energy_in)
        banked.append(stored)
        drawn.append(load if success else 0.0)
        withdrew.append(success)
        if trace is not None and unit.start_s < trace_window[1] and unit.end_s > trace_window[0]:
            if moving and (success or not attempted):
                if success:
                    phases = _key_phases(emulator, unit, temperature)
                emulator._record_trace_revolution(
                    trace, unit.start_s, unit.period_s, phases, success, sleep_power
                )
            elif not moving:
                trace.append(
                    unit.start_s,
                    duration,
                    sleep_power if active else 0.0,
                    "standstill" if active else "inactive",
                )
        while next_record_s <= unit.end_s:
            sample = (next_record_s, speed, temperature, storage.state_of_charge, active)
            for column, value in zip(log, sample):
                column.append(value)
            next_record_s += record_interval_s

    is_round = np.array(is_round, dtype=bool)
    durations = np.array(durations)
    banked = np.array(banked)
    withdrew = np.array(withdrew, dtype=bool)
    result.revolutions = int(is_round.sum())
    result.moving_time_s = float(durations[is_round].sum())
    result.harvested_j = float(banked.sum())
    result.discarded_j = float(np.maximum(0.0, np.array(harvest) - banked).sum())
    result.consumed_j = float(np.array(drawn).sum())
    result.active_revolutions = int((is_round & withdrew).sum())
    result.active_time_s = float(durations[withdrew].sum())
    result.brownout_events = brownouts
    result.log = SampleLog.from_columns(*log)
    if trace is not None:
        result.trace = trace.windowed(*trace_window) if not trace.is_empty else trace
    return result


def evaluation_point(emulator: NodeEmulator, unit: WheelRound, temperature: float) -> tuple:
    """The ``(speed, temperature, pattern)`` point ``unit``'s energy is evaluated at.

    The bin center of a trusted (speed bin, pattern) key, else the exact
    speed; the temperature bin's center; the round's pattern.  Classifies
    the round's key first, as ``_revolution_energy`` does; raises for a
    temperature outside the modelled range.
    """
    pattern = emulator.node.phase_pattern(unit.index)
    pattern_key = (speed_bin(unit.speed_kmh), *pattern)
    emulator._classify_speed_keys([pattern_key])
    trusted = pattern_key in emulator._trusted_speed_keys
    speed = speed_bin_center_kmh(pattern_key[0]) if trusted else unit.speed_kmh
    return speed, temperature_bin_center_c(emulator._temperature_bin(temperature)), pattern


def revolution_energy(
    emulator: NodeEmulator, unit: WheelRound, temperature: float, memo: dict
) -> float:
    """``emulator._revolution_energy(unit, temperature)``, memoized in ``memo``.

    Keyed on the round's evaluation point, of which the value is a pure
    function; ``memo`` must serve one emulator whose inputs do not change.
    """
    point = evaluation_point(emulator, unit, temperature)
    energy = memo.get(point)
    if energy is None:
        energy = memo[point] = emulator._revolution_energy(unit, temperature)
    return energy


def _key_phases(emulator: NodeEmulator, unit: WheelRound, temperature: float) -> tuple:
    """The phase list of ``unit`` at its evaluation point."""
    speed, temperature, pattern = evaluation_point(emulator, unit, temperature)
    point = emulator._operating_point(speed, temperature)
    schedule = emulator.node.schedule_for_pattern(speed, *pattern)
    return emulator.evaluator.schedule_energy_compiled(schedule, point)[1]
