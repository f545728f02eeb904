"""Byte identity of the emulator's planned, one-sweep cache fill.

``emulate()`` builds one cycle plan, fills every missing quantized
(speed, temperature, phase-pattern) bin of the revolution-energy cache with
ONE batch sweep before the state-of-charge integration, and integrates
through one call of the pure ledger kernel, ``trajectory()``.  Rounds whose
schedule cannot be built draw nothing in that scan; the first one the node
reaches while active raises, as does the first unit outside the modelled
temperature range.  The contract is strict: the output must be *byte
identical* to the naive per-revolution reference below — one ``WheelRound``
at a time from ``iter_wheel_rounds``, per-miss ``_revolution_energy``
evaluations and a mutating ``StorageElement`` with restart hysteresis —
same totals, same ``SampleLog`` bytes, same trace, or the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.emulator as emulator_module
from repro.blocks.node import SensorNode
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import EmulationResult, NodeEmulator
from repro.core.quantize import speed_bin_upper_edge_kmh
from repro.core.trace import PowerTrace
from repro.errors import ConfigurationError, ScheduleError
from repro.scavenger.storage import supercapacitor
from repro.timing.wheel_round import WheelRound, iter_wheel_rounds
from repro.vehicle.drive_cycle import (
    DriveCycle,
    DriveCyclePhase,
    constant_cruise,
    highway_cycle,
    urban_cycle,
)


def naive_emulate(
    emulator: NodeEmulator,
    cycle: DriveCycle,
    record_interval_s: float = 1.0,
    trace_window: tuple[float, float] | None = None,
    idle_step_s: float = 1.0,
) -> EmulationResult:
    """The per-revolution reference of ``emulator.emulate(cycle)``.

    Walks ``iter_wheel_rounds`` one unit at a time: advances the thermal
    model, evaluates each active round's energy on a cache miss
    (``_revolution_energy``), and steps the emulator's own storage element
    through deposit / withdraw / leak with the restart hysteresis.  The
    totals use the same numpy reductions as ``emulate()``.
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
    is_round, durations, harvest, banked, drawn, withdrew = [], [], [], [], [], []
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
                energy, phases = emulator._revolution_energy(unit, temperature)
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
            result.log.append(next_record_s, speed, temperature, storage.state_of_charge, active)
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
    if trace is not None:
        result.trace = trace.windowed(*trace_window) if not trace.is_empty else trace
    return result


def _thermal_emulator(node, database, scavenger, **thermal) -> NodeEmulator:
    return NodeEmulator(
        node,
        database,
        scavenger,
        supercapacitor(initial_fraction=0.3),
        thermal_model=TyreThermalModel(**{"time_constant_s": 120.0, **thermal}),
    )


def _hour_cycle() -> DriveCycle:
    """An hour-long profile mixing cruises, ramps and a stop."""
    phases = [
        DriveCyclePhase(duration_s=600.0, start_kmh=30.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=120.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=120.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=0.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=600.0, start_kmh=0.0, end_kmh=90.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=90.0, end_kmh=45.0),
    ]
    return DriveCycle(phases=phases, name="hour")


def _assert_byte_identical(ours: EmulationResult, theirs: EmulationResult) -> None:
    columns, reference = ours.sample_arrays(), theirs.sample_arrays()
    for key in columns:
        assert columns[key].tobytes() == reference[key].tobytes(), key
    assert ours == theirs


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``NodeEmulator.<name>`` (arguments after self)."""
    calls = []
    original = getattr(NodeEmulator, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(NodeEmulator, name, counting)
    return calls


def _fits(node, speed_kmh: float, pattern) -> bool:
    """Whether the scalar reference can build this schedule."""
    try:
        node.schedule_for_pattern(speed_kmh, *pattern)
    except ScheduleError:
        return False
    return True


class TestPrefillByteIdentity:
    def test_hour_long_cycle_samplelog_is_byte_identical(self, node, database, scavenger):
        cycle = _hour_cycle()
        planned = _thermal_emulator(node, database, scavenger).emulate(cycle)
        reference = naive_emulate(_thermal_emulator(node, database, scavenger), cycle)
        _assert_byte_identical(planned, reference)

    def test_trace_window_is_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        window = (10.0, 12.0)
        planned = _thermal_emulator(node, database, scavenger).emulate(
            cycle, trace_window=window
        )
        reference = naive_emulate(
            _thermal_emulator(node, database, scavenger), cycle, trace_window=window
        )
        assert planned.trace is not None and not planned.trace.is_empty
        assert planned.trace == reference.trace
        _assert_byte_identical(planned, reference)

    def test_constant_temperature_run_is_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=2)
        planned = NodeEmulator(node, database, scavenger, supercapacitor()).emulate(cycle)
        reference = naive_emulate(
            NodeEmulator(node, database, scavenger, supercapacitor()), cycle
        )
        _assert_byte_identical(planned, reference)

    def test_record_interval_and_idle_step_are_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        options = {"record_interval_s": 0.7, "idle_step_s": 0.45}
        planned = _thermal_emulator(node, database, scavenger).emulate(cycle, **options)
        reference = naive_emulate(_thermal_emulator(node, database, scavenger), cycle, **options)
        _assert_byte_identical(planned, reference)

    def test_warm_cold_and_fresh_runs_are_identical(self, node, database, scavenger):
        cycle = _hour_cycle()
        emulator = _thermal_emulator(node, database, scavenger)
        cold = emulator.emulate(cycle)
        warm = emulator.emulate(cycle)
        fresh = _thermal_emulator(node, database, scavenger).emulate(cycle)
        _assert_byte_identical(warm, cold)
        _assert_byte_identical(fresh, cold)


class TestPrefillMechanics:
    def test_prefill_fills_the_cache_before_the_loop(self, node, database, scavenger, monkeypatch):
        """The one sweep's bins are all cached when the ledger scan starts."""
        swept = []
        sweep = NodeEmulator.evaluate_energy_bins

        def counting(self, pending):
            swept.append(len(pending))
            return sweep(self, pending)

        monkeypatch.setattr(NodeEmulator, "evaluate_energy_bins", counting)
        emulator = _thermal_emulator(node, database, scavenger)
        cached_at_scan = []
        scan = emulator_module.trajectory

        def scanning(*args, **kwargs):
            cached_at_scan.append(len(emulator._energy_cache))
            return scan(*args, **kwargs)

        monkeypatch.setattr(emulator_module, "trajectory", scanning)
        emulator.emulate(_hour_cycle())
        assert len(swept) == 1 and swept[0] > 0
        assert cached_at_scan == [swept[0]]

    def test_second_prefill_is_a_no_op(self, node, database, scavenger, monkeypatch):
        """A warm run finds every bin cached and sweeps nothing."""
        emulator = _thermal_emulator(node, database, scavenger)
        cycle = _hour_cycle()
        emulator.emulate(cycle)
        entries = len(emulator._energy_cache)
        sweeps = _count_calls(monkeypatch, "evaluate_energy_bins")
        tables = []
        schedule_table = SensorNode.schedule_table
        monkeypatch.setattr(
            SensorNode,
            "schedule_table",
            lambda self, *args: tables.append(1) or schedule_table(self, *args),
        )
        emulator.emulate(cycle)
        assert sweeps == []
        assert tables == [], "a warm run built schedule tables"
        assert len(emulator._energy_cache) == entries

    def test_warm_cycle_skips_the_rescan(self, node, database, scavenger, monkeypatch):
        """A cold run builds the plan once; a warm run walks nothing."""
        builds = _count_calls(monkeypatch, "materialize_cycle")
        emulator = _thermal_emulator(node, database, scavenger)
        cycle = _hour_cycle()
        cold = emulator.emulate(cycle)
        assert len(builds) == 1
        warm = emulator.emulate(cycle)
        assert len(builds) == 1, "warm run re-walked the cycle"
        fresh = _thermal_emulator(node, database, scavenger).emulate(cycle)
        assert warm == fresh == cold

    def test_base_point_change_invalidates_the_scan_memo(
        self, node, database, scavenger, monkeypatch
    ):
        from repro.conditions.operating_point import OperatingPoint

        builds = _count_calls(monkeypatch, "materialize_cycle")
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = _hour_cycle()
        emulator.emulate(cycle)
        emulator.base_point = OperatingPoint(temperature_c=40.0)
        moved = emulator.emulate(cycle)  # _ensure_caches_fresh clears the memo
        assert len(builds) == 2
        warmer = OperatingPoint(temperature_c=40.0)
        fresh = NodeEmulator(node, database, scavenger, supercapacitor(), base_point=warmer)
        assert moved == naive_emulate(fresh, cycle)

    def test_prefill_resets_the_thermal_model(self, node, database, scavenger):
        """Planning leaves the thermal model alone; a run ends where the reference ends."""
        emulator = _thermal_emulator(node, database, scavenger)
        ambient = emulator.thermal_model.current_celsius
        emulator.materialize_cycle(_hour_cycle())
        assert emulator.thermal_model.current_celsius == ambient
        emulator.emulate(_hour_cycle())
        reference = _thermal_emulator(node, database, scavenger)
        naive_emulate(reference, _hour_cycle())
        assert emulator.thermal_model.current_celsius == reference.thermal_model.current_celsius
        assert emulator.thermal_model.current_celsius != ambient

    def test_prefill_skips_infeasible_bins(
        self, limited_node, database, scavenger, monkeypatch
    ):
        """Rounds whose schedule cannot be built are left out of the sweep."""
        node = limited_node
        swept = []
        sweep = NodeEmulator.evaluate_energy_bins

        def recording(self, pending):
            swept.extend(pending)
            return sweep(self, pending)

        monkeypatch.setattr(NodeEmulator, "evaluate_energy_bins", recording)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = DriveCycle(
            phases=[DriveCyclePhase(duration_s=60.0, start_kmh=80.0, end_kmh=130.0)],
            name="ramp-past-limit",
        )
        assert _fits(node, 80.0, node.phase_pattern(0))
        assert not _fits(node, 130.0, node.phase_pattern(0))
        # emulate() raises at the first unsustainable round the node reaches
        # while active, exactly as the per-revolution reference does.
        with pytest.raises(ScheduleError) as planned:
            emulator.emulate(cycle)
        assert swept
        assert all(
            _fits(node, speed_bin_upper_edge_kmh(key[0]), key[2:])
            for key in swept
            if isinstance(key[0], int)
        ), "a bin past the feasibility limit was swept"
        with pytest.raises(ScheduleError) as reference:
            naive_emulate(NodeEmulator(node, database, scavenger, supercapacitor()), cycle)
        assert str(planned.value) == str(reference.value)

    def test_prefill_entries_match_miss_entries(self, node, database, scavenger):
        """Swept values must be bitwise what the miss path computes."""
        cycle = _hour_cycle()
        planned = _thermal_emulator(node, database, scavenger)
        planned.emulate(cycle)
        scalar = _thermal_emulator(node, database, scavenger)
        naive_emulate(scalar, cycle)
        shared = set(planned._energy_cache) & set(scalar._energy_cache)
        assert shared, "no common cache keys between the sweep and miss paths"
        for key in shared:
            assert planned._energy_cache[key] == scalar._energy_cache[key], key

    def test_infeasible_bin_center_matches_reference(
        self, pocket_node, database, scavenger, monkeypatch
    ):
        """A bin whose center is infeasible falls back to exact keys, cold and warm.

        The cold run finds the infeasible center in its sweep and resolves
        those rounds on their exact speed before the one ledger scan: no
        round energy is evaluated one by one.
        """
        node = pocket_node
        pattern = node.phase_pattern(0)
        # 102.4 km/h fits and so does its bin's upper edge, but the bin
        # center (102.5 km/h) does not.
        assert _fits(node, 102.4, pattern) and _fits(node, 102.75, pattern)
        assert not _fits(node, 102.5, pattern)
        cycle = constant_cruise(102.4, duration_s=20.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        scans = []
        scan = emulator_module.trajectory
        monkeypatch.setattr(
            emulator_module, "trajectory", lambda *a, **k: scans.append(1) or scan(*a, **k)
        )
        per_round = _count_calls(monkeypatch, "_revolution_energy")
        cold = emulator.emulate(cycle)
        assert scans == [1]
        assert per_round == []
        assert any(key[0] == ("exact", 102.4) for key in emulator._energy_cache)
        assert (205, *pattern) in emulator._exact_speed_keys
        warm = emulator.emulate(cycle)
        reference = naive_emulate(NodeEmulator(node, database, scavenger, supercapacitor()), cycle)
        _assert_byte_identical(cold, reference)
        _assert_byte_identical(warm, reference)

    def test_self_heating_out_of_range_raises_on_the_same_unit(self, node, database, scavenger):
        """Equal error texts mean the same unit raised: the text carries its temperature."""
        hot = {"ambient_celsius": 150.0, "max_rise_c": 120.0, "time_constant_s": 30.0}
        cycle = highway_cycle(duration_s=600.0)
        with pytest.raises(ConfigurationError, match="outside the modelled range") as planned:
            _thermal_emulator(node, database, scavenger, **hot).emulate(cycle)
        with pytest.raises(ConfigurationError, match="outside the modelled range") as reference:
            naive_emulate(_thermal_emulator(node, database, scavenger, **hot), cycle)
        assert str(planned.value) == str(reference.value)


_RAMP = st.builds(
    DriveCyclePhase,
    duration_s=st.floats(1.0, 12.0),
    start_kmh=st.floats(110.0, 140.0),
    end_kmh=st.floats(110.0, 140.0),
)
_IDLE = st.builds(
    DriveCyclePhase, duration_s=st.floats(0.5, 5.0), start_kmh=st.just(0.0), end_kmh=st.just(0.0)
)


class TestUnsustainableRounds:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        fraction=st.one_of(st.floats(0.0, 0.12), st.floats(0.0, 1.0)),
        phases=st.lists(st.one_of(_RAMP, _IDLE), min_size=1, max_size=4),
    )
    def test_emulate_matches_reference_or_raises_alike(
        self, limited_node, database, scavenger, fraction, phases
    ):
        """Ramps across the speed limit: same bytes, or the same error.

        A node that starts below the restart level passes unsustainable
        rounds browned out, which must not raise; the first one it reaches
        while active raises the reference's error.
        """
        cycle = DriveCycle(phases=phases, name="limit-crossing")

        def emulator() -> NodeEmulator:
            storage = supercapacitor(initial_fraction=fraction)
            return NodeEmulator(limited_node, database, scavenger, storage)

        try:
            reference = naive_emulate(emulator(), cycle)
        except ScheduleError as error:
            with pytest.raises(ScheduleError) as planned:
                emulator().emulate(cycle)
            assert type(planned.value) is type(error)
            assert str(planned.value) == str(error)
            return
        _assert_byte_identical(emulator().emulate(cycle), reference)


class TestArrayCoreByteIdentity:
    """The array-based integration core: one ``trajectory()`` call ≡ reference."""

    def test_kernel_path_is_actually_taken(self, node, database, scavenger, monkeypatch):
        calls = []
        original = emulator_module.trajectory

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(emulator_module, "trajectory", counting)
        _thermal_emulator(node, database, scavenger).emulate(_hour_cycle())
        assert calls, "a fully swept cycle should integrate through the kernel"

    def test_storage_holds_the_final_charge(self, node, database, scavenger):
        """The integration leaves the element where the reference leaves it."""
        cycle = _hour_cycle()
        kernel_emulator = _thermal_emulator(node, database, scavenger)
        kernel_emulator.emulate(cycle)
        kernel_charge = kernel_emulator.storage.charge_j
        assert 0.0 <= kernel_charge <= kernel_emulator.storage.capacity_j
        reference = _thermal_emulator(node, database, scavenger)
        naive_emulate(reference, cycle)
        assert reference.storage.charge_j == kernel_charge

    def test_harvest_rides_the_vectorized_sweep(self, node, database, scavenger, monkeypatch):
        """emulate() calls energy_sweep_j once instead of N scalar calls."""
        from repro.scavenger.piezoelectric import PiezoelectricScavenger

        sweeps = []
        scalars = []
        original_sweep = PiezoelectricScavenger.energy_sweep_j
        original_scalar = PiezoelectricScavenger.energy_per_revolution_j

        def counting_sweep(self, speeds):
            sweeps.append(len(speeds))
            return original_sweep(self, speeds)

        def counting_scalar(self, speed):
            scalars.append(speed)
            return original_scalar(self, speed)

        monkeypatch.setattr(PiezoelectricScavenger, "energy_sweep_j", counting_sweep)
        monkeypatch.setattr(PiezoelectricScavenger, "energy_per_revolution_j", counting_scalar)
        result = NodeEmulator(node, database, PiezoelectricScavenger(), supercapacitor()).emulate(
            urban_cycle(repetitions=1)
        )
        assert sweeps == [result.revolutions]
        assert scalars == []


class TestEnergyCacheCap:
    def test_cache_cap_eviction_clears_and_refills(self, node, database, scavenger, monkeypatch):
        """Hitting the entry cap drops the cache, and emulation still works."""
        monkeypatch.setattr(emulator_module, "_MAX_ENERGY_CACHE_ENTRIES", 8)
        emulator = _thermal_emulator(node, database, scavenger)
        result = emulator.emulate(_hour_cycle())
        assert result.revolutions > 0
        assert len(emulator._energy_cache) <= 8
        reference = naive_emulate(_thermal_emulator(node, database, scavenger), _hour_cycle())
        _assert_byte_identical(result, reference)

    def test_cap_applies_to_prefill_inserts(self, node, database, scavenger, monkeypatch):
        monkeypatch.setattr(emulator_module, "_MAX_ENERGY_CACHE_ENTRIES", 8)
        emulator = _thermal_emulator(node, database, scavenger)
        capped = emulator.emulate(_hour_cycle())
        assert len(emulator._energy_cache) <= 8
        # The sweep's gather does not depend on what the cap kept.
        assert capped == emulator.emulate(_hour_cycle())

    def test_capped_run_matches_uncapped_run(self, node, database, scavenger, monkeypatch):
        """Eviction is a perf knob only: results must not change."""
        cycle = _hour_cycle()
        uncapped = _thermal_emulator(node, database, scavenger).emulate(cycle)
        monkeypatch.setattr(emulator_module, "_MAX_ENERGY_CACHE_ENTRIES", 4)
        capped = _thermal_emulator(node, database, scavenger).emulate(cycle)
        assert capped == uncapped
