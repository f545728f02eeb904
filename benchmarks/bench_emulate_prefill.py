"""The emulator's one-sweep cache fill vs scalar misses, and emulate() timings.

The emulator's integration loop used to discover its quantized
(speed, temperature, phase-pattern) bins one cache miss at a time, paying one
scalar ``schedule_energy_compiled`` call per bin.  ``emulate()`` now builds
one cycle plan and fills every missing bin with ONE vectorized
``_schedule_energy_batch`` call before the state-of-charge integration.

This benchmark measures exactly that replacement on a thermally varying,
wide-speed-range cycle (hundreds of unique bins) and *asserts*:

* >= 5x speedup of the one-batch-call fill versus the sequential scalar
  fill of the same bins (the old miss path);
* bitwise-identical cache contents from both fills (the emulator's
  byte-identical-log contract rests on this);
* identical ``EmulationResult`` output of a cold, a warm and a fresh
  ``emulate()`` run.

It also records cold and warm ``emulate()`` wall times, with the plan builds
per run, on the design loop's three cycles (urban, NEDC-like, 600 s
highway) in its timing JSON.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.scavenger.storage import supercapacitor
from repro.scenario.registry import DRIVE_CYCLES
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase

#: Local headroom is comfortably above the 5x acceptance bar; shared CI
#: runners are noisy, so workflows may lower the enforced floor via the
#: environment while the measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("PREFILL_SPEEDUP_FLOOR", "5.0"))


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

    Both variants receive the identical bin set: the one a cold
    ``emulate()`` hands its single ``evaluate_energy_bins`` sweep after
    planning the cycle (the plan is shared bookkeeping the integration pays
    either way).  What is timed is exactly what the sweep replaced — the
    per-bin scalar ``schedule_energy_compiled`` evaluations — against the
    single vectorized ``_schedule_energy_batch`` call.
    """
    from repro.conditions.batch import BatchConditions

    pending = {}
    planner = _make_emulator(node, database, scavenger)
    sweep = planner.evaluate_energy_bins

    def capture(bins):
        pending.update(bins)
        return sweep(bins)

    planner.evaluate_energy_bins = capture
    planner.emulate(_varied_cycle())
    keys = list(pending)
    emulator = _make_emulator(node, database, scavenger)
    emulator.evaluator.compiled  # build the table outside the timed regions
    assert len(keys) >= 200, "the bench cycle should produce hundreds of bins"

    # Scalar baseline: the old miss path, one compiled-scalar call per bin.
    # Each timed region starts from a collected heap, so neither pays for
    # the garbage the planning run above left behind.
    gc.collect()
    start = time.perf_counter()
    scalar_values = {}
    for key in keys:
        speed, temperature_c, schedule = pending[key]
        point = emulator._operating_point(speed, temperature_c)
        scalar_values[key] = emulator.evaluator.schedule_energy_compiled(
            schedule, point
        )
    scalar_s = time.perf_counter() - start

    # Batch fill: the same bins through ONE _schedule_energy_batch call.
    gc.collect()
    start = time.perf_counter()
    batch = BatchConditions.from_arrays(
        np.array([pending[key][0] for key in keys]),
        np.array([pending[key][1] for key in keys]),
        base_point=emulator.base_point,
    )
    energies, phase_lists = emulator.evaluator._schedule_energy_batch(
        batch, [pending[key][2] for key in keys], include_phases=True
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
        title="Revolution-energy cache fill: one batch call vs scalar misses",
    )
    design_times, plan_builds = _design_loop_emulate_times(node, database, scavenger)
    emit_timing(
        "emulate_prefill",
        wall_times_s={"scalar_fill": scalar_s, "batch_fill": batch_s, **design_times},
        speedups={"batch_vs_scalar": speedup},
        extra={
            "bins": len(keys),
            "required_speedup": REQUIRED_SPEEDUP,
            "plan_builds_per_run": plan_builds,
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


def _design_loop_emulate_times(node, database, scavenger, repeats: int = 3):
    """Best-of cold and warm ``emulate()`` seconds on the design loop's cycles.

    Cold is a fresh emulator (shared evaluator, so the compiled table is
    not rebuilt), warm its second run; ``plan_builds_per_run`` counts the
    ``materialize_cycle`` calls of each.
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
    for name, cycle in cycles.items():
        cold_s = warm_s = float("inf")
        for _ in range(repeats):
            emulator = NodeEmulator(
                node, database, scavenger, supercapacitor(), evaluator=evaluator
            )
            calls = []
            materialize = emulator.materialize_cycle
            emulator.materialize_cycle = lambda *args: calls.append(1) or materialize(*args)
            start = time.perf_counter()
            emulator.emulate(cycle)
            cold_s = min(cold_s, time.perf_counter() - start)
            builds[f"{name}_cold"] = len(calls)
            start = time.perf_counter()
            emulator.emulate(cycle)
            warm_s = min(warm_s, time.perf_counter() - start)
            builds[f"{name}_warm"] = len(calls) - builds[f"{name}_cold"]
        times[f"emulate_{name}_cold"] = cold_s
        times[f"emulate_{name}_warm"] = warm_s
    return times, builds


def test_emulate_output_identical_cold_warm_and_fresh(node, database, scavenger):
    """A warm re-emulate and a fresh emulator agree bitwise with the cold run."""
    cycle = _varied_cycle()
    emulator = _make_emulator(node, database, scavenger)
    cold = emulator.emulate(cycle)
    assert emulator.emulate(cycle) == cold
    assert _make_emulator(node, database, scavenger).emulate(cycle) == cold
