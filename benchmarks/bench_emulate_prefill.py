"""The emulator's one-sweep bin evaluation vs scalar misses, and emulate() timings.

The emulator's integration loop used to discover its quantized
(speed, temperature, phase-pattern) bins one cache miss at a time, paying one
schedule build and one scalar ``schedule_energy_compiled`` call per bin.
``emulate()`` now builds one cycle plan and evaluates every bin of the run
with ONE ``schedule_table`` call and ONE vectorized ``_schedule_energy_batch``
call before the state-of-charge integration.

This benchmark measures exactly that replacement on a thermally varying,
wide-speed-range cycle (hundreds of unique bins) and *asserts*:

* >= 5x speedup of the one-batch-call fill versus the sequential scalar
  fill of the same bins (the old miss path);
* bitwise-identical energies from both fills (the emulator's
  byte-identical-log contract rests on this);
* identical ``EmulationResult`` output of a cold, a warm and a fresh
  ``emulate()`` run.

It also records cold and warm ``emulate()`` wall times and their
``*_warm_vs_cold`` speedups, with the plan builds and round resolutions per
run (a warm isothermal run gathers its memoized resolution: zero of each),
on the design loop's three cycles (urban, NEDC-like, 600 s highway) in its
timing JSON, and asserts each warm run's ``SampleLog`` bytes and summary
equal the cold run's.  It does the same for a 600 s cruise at 102.4 km/h on
a node whose bin center there (102.5 km/h) is infeasible: the cold run
re-keys that bin on the exact speed inside its sweep, and the cold, warm
and fresh runs must agree in ``SampleLog`` bytes.

Finally it times the cold cycle walk, ``wheel_round_arrays``, on the same
three cycles against a per-unit stepping loop over the public
``DriveCycle.speed_at`` and ``Wheel.revolution_period_s``, asserts the arrays
are bitwise equal, and asserts the NEDC-like walk is >= 2x faster.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.blocks import baseline_node
from repro.blocks.node import PATTERN_WEIGHTS
from repro.blocks.mcu import McuConfig
from repro.blocks.memory import MemoryConfig
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.scavenger.storage import supercapacitor
from repro.scenario.registry import DRIVE_CYCLES
from repro.timing.wheel_round import STANDSTILL_THRESHOLD_KMH, wheel_round_arrays
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase, constant_cruise
from repro.vehicle.wheel import Wheel

#: Local headroom is comfortably above the 5x acceptance bar; shared CI
#: runners are noisy, so workflows may lower the enforced floor via the
#: environment while the measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("PREFILL_SPEEDUP_FLOOR", "5.0"))
#: The NEDC-like walk measures about 10x the stepping loop; the gate leaves
#: room for noisy machines.
REQUIRED_WALK_SPEEDUP = 2.0


def _varied_cycle() -> DriveCycle:
    """An hour-long cycle sweeping 20..170 km/h so many speed bins are touched."""
    times = np.linspace(0.0, 3600.0, 121)
    speeds = 95.0 + 75.0 * np.sin(times / 240.0)
    phases = [
        DriveCyclePhase(
            duration_s=float(times[i + 1] - times[i]),
            start_kmh=float(speeds[i]),
            end_kmh=float(speeds[i + 1]),
        )
        for i in range(len(times) - 1)
    ]
    return DriveCycle(phases=phases, name="bench-varied")


def _make_emulator(node, database, scavenger) -> NodeEmulator:
    return NodeEmulator(
        node,
        database,
        scavenger,
        supercapacitor(initial_fraction=0.5),
        thermal_model=TyreThermalModel(time_constant_s=120.0, max_rise_c=70.0),
    )


def test_prefill_beats_sequential_scalar_fill(node, database, scavenger):
    """One batch call fills the bins >= 5x faster than per-bin scalar misses.

    Both variants receive the identical bin set: the evaluation points of
    the one round resolution a cold ``emulate()`` builds, which its single
    ``evaluate_energy_bins`` sweep evaluates (the plan is shared bookkeeping
    the integration pays either way).  What is timed is exactly what the sweep replaced — one
    ``schedule_for_pattern`` build and one scalar
    ``schedule_energy_compiled`` evaluation per bin — against one
    ``schedule_table`` call plus the single vectorized
    ``_schedule_energy_batch`` call.
    """
    from repro.conditions.batch import BatchConditions

    resolved = []
    planner = _make_emulator(node, database, scavenger)
    resolve = planner._resolve_rounds

    def capture(requests):
        resolved.extend(resolve(requests))
        return resolved[-1:]

    planner._resolve_rounds = capture
    planner.emulate(_varied_cycle())
    (resolution,) = resolved
    flags = (resolution.patterns[:, None] & PATTERN_WEIGHTS) != 0
    columns = (resolution.speeds.tolist(), resolution.temperatures.tolist(), flags.tolist())
    pending = {
        i: (speed, temperature, tuple(pattern))
        for i, (speed, temperature, pattern) in enumerate(zip(*columns))
    }
    keys = list(pending)
    emulator = _make_emulator(node, database, scavenger)
    emulator.evaluator.compiled  # build the table outside the timed regions
    assert len(keys) >= 200, "the bench cycle should produce hundreds of bins"

    # Scalar baseline: the old miss path, one schedule build and one
    # compiled-scalar call per bin.  Each timed region starts from a
    # collected heap, so neither pays for the garbage the planning run above
    # left behind.
    gc.collect()
    start = time.perf_counter()
    scalar_values = {}
    for key in keys:
        speed, temperature_c, pattern = pending[key]
        point = emulator._operating_point(speed, temperature_c)
        scalar_values[key] = emulator.evaluator.schedule_energy_compiled(
            node.schedule_for_pattern(speed, *pattern), point
        )
    scalar_s = time.perf_counter() - start

    # Batch fill: the same bins through ONE schedule table and ONE
    # _schedule_energy_batch call.
    gc.collect()
    start = time.perf_counter()
    batch = BatchConditions.from_arrays(
        np.array([pending[key][0] for key in keys]),
        np.array([pending[key][1] for key in keys]),
        base_point=emulator.base_point,
    )
    table = node.schedule_table(batch.speed_kmh, [pending[key][2] for key in keys])
    energies, phase_lists = emulator.evaluator._schedule_energy_batch(
        batch, table, include_phases=True
    )
    batch_values = {
        key: (float(energies[i]), phase_lists[i]) for i, key in enumerate(keys)
    }
    batch_s = time.perf_counter() - start
    speedup = scalar_s / batch_s

    emit_result(
        "emulate_prefill",
        [
            {
                "workload": "hour-long 20-170 km/h thermal cycle",
                "bins": len(keys),
                "scalar_fill_ms": scalar_s * 1e3,
                "batch_fill_ms": batch_s * 1e3,
                "speedup_x": speedup,
            }
        ],
        title="Revolution-energy bin fill: one batch call vs scalar misses",
    )
    design_times, plan_builds, resolutions, warm_speedups = _design_loop_emulate_times(
        node, database, scavenger
    )
    pocket_times, pocket_speedups = _pocket_cruise_emulate_times(database, scavenger)
    walk_times, walk_speedups = _cold_walk_times()
    emit_timing(
        "emulate_prefill",
        wall_times_s={
            "scalar_fill": scalar_s,
            "batch_fill": batch_s,
            **design_times,
            **pocket_times,
            **walk_times,
        },
        speedups={
            "batch_vs_scalar": speedup,
            **walk_speedups,
            **warm_speedups,
            **pocket_speedups,
        },
        extra={
            "bins": len(keys),
            "required_speedup": REQUIRED_SPEEDUP,
            "required_walk_speedup": REQUIRED_WALK_SPEEDUP,
            "plan_builds_per_run": plan_builds,
            "resolutions_per_run": resolutions,
        },
    )

    for key, value in scalar_values.items():
        assert batch_values[key] == value, (
            "batch prefill diverged bitwise from the scalar miss path"
        )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch prefill is only {speedup:.1f}x faster "
        f"(scalar {scalar_s * 1e3:.1f} ms vs batch {batch_s * 1e3:.1f} ms); "
        f"the acceptance bar is {REQUIRED_SPEEDUP:.0f}x"
    )
    walk_speedup = walk_speedups["nedc_walk_vs_stepping"]
    assert walk_speedup >= REQUIRED_WALK_SPEEDUP, (
        f"the NEDC-like walk is only {walk_speedup:.1f}x faster than the "
        f"stepping loop; the bar is {REQUIRED_WALK_SPEEDUP:.0f}x"
    )


def _counting(emulator: NodeEmulator, name: str) -> list:
    """Count the calls of ``emulator.<name>`` (an instance-level wrapper)."""
    calls = []
    method = getattr(emulator, name)
    setattr(emulator, name, lambda *args, **kwargs: calls.append(1) or method(*args, **kwargs))
    return calls


def _assert_same_bytes(warm, cold) -> None:
    for key, column in cold.sample_arrays().items():
        assert warm.sample_arrays()[key].tobytes() == column.tobytes(), key
    assert np.array(list(warm.summary().values())).tobytes() == (
        np.array(list(cold.summary().values())).tobytes()
    )


def _design_loop_emulate_times(node, database, scavenger, repeats: int = 3):
    """Best-of cold and warm ``emulate()`` seconds on the design loop's cycles.

    Cold is a fresh emulator (shared evaluator, so the compiled table is
    not rebuilt), warm its second run; ``plan_builds_per_run`` counts the
    ``materialize_cycle`` calls of each and ``resolutions_per_run`` the
    ``_resolve_rounds`` calls.  Asserts each warm run's bytes equal its
    cold run's.
    """
    cycles = {
        "urban": DRIVE_CYCLES.create("urban"),
        "nedc": DRIVE_CYCLES.create("nedc"),
        "highway600": DRIVE_CYCLES.create("highway", duration_s=600.0),
    }
    evaluator = NodeEmulator(node, database, scavenger, supercapacitor()).evaluator
    evaluator.compiled
    times: dict[str, float] = {}
    builds: dict[str, int] = {}
    resolutions: dict[str, int] = {}
    speedups: dict[str, float] = {}
    for name, cycle in cycles.items():
        cold_s = warm_s = float("inf")
        for _ in range(repeats):
            emulator = NodeEmulator(
                node, database, scavenger, supercapacitor(), evaluator=evaluator
            )
            walks = _counting(emulator, "materialize_cycle")
            resolves = _counting(emulator, "_resolve_rounds")
            start = time.perf_counter()
            cold = emulator.emulate(cycle)
            cold_s = min(cold_s, time.perf_counter() - start)
            builds[f"{name}_cold"] = len(walks)
            resolutions[f"{name}_cold"] = len(resolves)
            start = time.perf_counter()
            warm = emulator.emulate(cycle)
            warm_s = min(warm_s, time.perf_counter() - start)
            builds[f"{name}_warm"] = len(walks) - builds[f"{name}_cold"]
            resolutions[f"{name}_warm"] = len(resolves) - resolutions[f"{name}_cold"]
            _assert_same_bytes(warm, cold)
        times[f"emulate_{name}_cold"] = cold_s
        times[f"emulate_{name}_warm"] = warm_s
        speedups[f"{name}_warm_vs_cold"] = cold_s / warm_s
    return times, builds, resolutions, speedups


def _pocket_cruise_emulate_times(database, scavenger, repeats: int = 3):
    """Best-of cold and warm ``emulate()`` seconds of a 600 s cruise at 102.4 km/h.

    Also returns their ratio, ``pocket_cruise_warm_vs_cold``.  The node's
    compute time is a sawtooth of the speed, so its transmitting rounds fit
    at 102.4 km/h but not at the bin center, 102.5 km/h.  Asserts that the
    cold, warm and fresh runs agree in ``SampleLog`` bytes.
    """
    node = replace(
        baseline_node(),
        mcu=McuConfig(clock_hz=11.5e6, cycles_per_sample=1000),
        memory=MemoryConfig(use_nvm=False),
    )
    cycle = constant_cruise(102.4, duration_s=600.0)
    evaluator = NodeEmulator(node, database, scavenger, supercapacitor()).evaluator
    evaluator.compiled
    cold_s = warm_s = float("inf")
    for _ in range(repeats):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor(), evaluator=evaluator)
        start = time.perf_counter()
        cold = emulator.emulate(cycle)
        cold_s = min(cold_s, time.perf_counter() - start)
        start = time.perf_counter()
        warm = emulator.emulate(cycle)
        warm_s = min(warm_s, time.perf_counter() - start)
    fresh = NodeEmulator(node, database, scavenger, supercapacitor()).emulate(cycle)
    for run in (warm, fresh):
        _assert_same_bytes(run, cold)
        assert run == cold
    times = {"emulate_pocket_cruise_cold": cold_s, "emulate_pocket_cruise_warm": warm_s}
    return times, {"pocket_cruise_warm_vs_cold": cold_s / warm_s}


def _stepping_walk(cycle, wheel, idle_step_s=1.0):
    """The walk one unit at a time over ``speed_at`` and ``revolution_period_s``.

    Returns the ``(starts, durations, speeds, indices)`` arrays of
    ``wheel_round_arrays``.
    """
    units = []
    duration = cycle.duration_s
    time_s = 0.0
    revolution_index = 0
    while time_s < duration:
        speed = cycle.speed_at(time_s)
        if speed < STANDSTILL_THRESHOLD_KMH:
            units.append((time_s, min(idle_step_s, duration - time_s), 0.0, -1))
        else:
            period = wheel.revolution_period_s(speed)
            if time_s + period > duration:
                # The final partial revolution, dropped below 1 ns.
                if duration - time_s > 1e-9:
                    units.append((time_s, duration - time_s, speed, revolution_index))
                break
            units.append((time_s, period, speed, revolution_index))
            revolution_index += 1
        time_s += units[-1][1]
    starts, durations, speeds, indices = zip(*units)
    return (
        np.array(starts, dtype=float),
        np.array(durations, dtype=float),
        np.array(speeds, dtype=float),
        np.array(indices, dtype=np.int64),
    )


def _cold_walk_times(repeats: int = 5):
    """Best-of seconds of ``wheel_round_arrays`` and the stepping loop per cycle.

    Asserts the two walks are bitwise equal on each of the design loop's
    cycles.
    """
    cycles = {
        "urban": DRIVE_CYCLES.create("urban"),
        "nedc": DRIVE_CYCLES.create("nedc"),
        "highway600": DRIVE_CYCLES.create("highway", duration_s=600.0),
    }
    wheel = Wheel()
    times: dict[str, float] = {}
    speedups: dict[str, float] = {}
    for name, cycle in cycles.items():
        walk_s = stepping_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            walk = wheel_round_arrays(cycle, wheel)
            walk_s = min(walk_s, time.perf_counter() - start)
            start = time.perf_counter()
            stepped = _stepping_walk(cycle, wheel)
            stepping_s = min(stepping_s, time.perf_counter() - start)
        for column, expected in zip(
            (walk.starts, walk.durations, walk.speeds, walk.indices), stepped
        ):
            assert column.tobytes() == expected.tobytes(), f"{name} walk diverged bitwise"
        times[f"walk_{name}"] = walk_s
        times[f"stepping_walk_{name}"] = stepping_s
        speedups[f"{name}_walk_vs_stepping"] = stepping_s / walk_s
    return times, speedups


def test_emulate_output_identical_cold_warm_and_fresh(node, database, scavenger):
    """A warm re-emulate and a fresh emulator agree bitwise with the cold run."""
    cycle = _varied_cycle()
    emulator = _make_emulator(node, database, scavenger)
    cold = emulator.emulate(cycle)
    assert emulator.emulate(cycle) == cold
    assert _make_emulator(node, database, scavenger).emulate(cycle) == cold
