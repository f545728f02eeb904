"""Bin-shared fleet emulation vs the naive per-vehicle ``emulate()`` loop.

The fleet runner's claim: a population of vehicles shares compiled power
tables per (architecture, workload, database) group, shares materialized
drive cycles per (cycle, speed-scale) cohort, and routes the union of
quantized (speed, temperature, phase-pattern) energy bins through ONE
cross-vehicle sweep before emulation — so each vehicle reduces to pure
array work (harvest sweep, load gather, run-length ledger scan) instead
of a full cold ``NodeEmulator.emulate()``.

This benchmark measures exactly that replacement on a 200-vehicle fleet
(log-normal speed scales, correlated ambient temperatures, Gaussian
scavenger/storage tolerances — the default population) and *asserts*:

* >= 8x throughput of the bin-shared fleet runner (the median of
  ``FLEET_RUNS`` runs) over the naive loop that builds one emulator per
  vehicle and calls ``emulate()`` (what a user would write without the
  fleet subsystem);
* bitwise-identical per-vehicle summary figures from both paths (the fleet
  aggregate rests on the emulator's byte-identity contracts).
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import emit_result, emit_timing
from repro.core.emulator import NodeEmulator
from repro.fleet import FleetSpec, FleetRunner
from repro.scavenger.storage import scaled_storage
from repro.scenario import ScenarioSpec

#: Local acceptance bar.  Measured on a 2-CPU x86 box over 5 runs: 16.3-20.1x
#: (median 17.9x) with the fleet side the median of ``FLEET_RUNS`` runs and
#: block power evaluated once per temperature bin, against 9.1-15.5x
#: (median 10.1x) timing one fleet run with power evaluated per point, where
#: a single run of ~50 ms swung with the host (one earlier run read 7.3x).
#: The naive emulate() loop shares the resolution and the cycle walk, while
#: a 200-vehicle fleet spends most of its time in the discovery pass (walks,
#: the resolution and its bin sweep).  Shared CI runners are noisy, so
#: workflows may lower the enforced floor via the environment while the
#: measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("FLEET_THROUGHPUT_FLOOR", "8.0"))

VEHICLES = 200
#: The fleet side is the median of this many runs: one run takes tens of
#: milliseconds, which a single timing on a shared host cannot resolve.
FLEET_RUNS = 3


def _bench_fleet() -> FleetSpec:
    base = ScenarioSpec(
        name="bench",
        drive_cycle={"name": "urban", "params": {"repetitions": 2}},
    )
    return FleetSpec.from_base(base, vehicles=VEHICLES, seed=11)


def test_fleet_beats_naive_per_vehicle_loop():
    """The shared-engine fleet run is >= 8x faster than per-vehicle emulate().

    Both variants compute the same 200 vehicles (identical materialization —
    the population is a pure function of the fleet document).  The naive
    loop pays per vehicle what the fleet path shares: an evaluator (and
    compiled-table) build, the drive-cycle walk and bin classification, and
    the revolution-energy bin evaluation.
    """
    fleet = _bench_fleet()
    vehicles = fleet.materialize()

    # Naive baseline: one fresh emulator per vehicle, default emulate().
    start = time.perf_counter()
    naive_summaries = []
    for vehicle in vehicles:
        spec = vehicle.scenario
        emulator = NodeEmulator(
            spec.build_node(),
            spec.build_database(),
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
        )
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        naive_summaries.append(emulator.emulate(cycle).summary())
    naive_s = time.perf_counter() - start

    # Fleet path: shared evaluator group, cohort cycle tables, one
    # cross-vehicle bin sweep, then per vehicle its ledger scan.  Fleets run
    # sequentially, so the comparison is CPU-for-CPU, not parallelism.
    fleet_times = []
    for _ in range(FLEET_RUNS):
        start = time.perf_counter()
        result = FleetRunner(fleet).run()
        fleet_times.append(time.perf_counter() - start)
    fleet_s = statistics.median(fleet_times)
    speedup = naive_s / fleet_s

    metadata = result.metadata
    emit_result(
        "fleet_throughput",
        [
            {
                "vehicles": VEHICLES,
                "cohorts": metadata["cohorts"],
                "shared_energy_bins": metadata["shared_energy_bins"],
                "naive_s": naive_s,
                "fleet_s": fleet_s,
                "speedup_x": speedup,
                "naive_vehicles_per_s": VEHICLES / naive_s,
                "fleet_vehicles_per_s": VEHICLES / fleet_s,
            }
        ],
        title="Fleet emulation: bin-shared runner vs naive per-vehicle loop",
        workers=1,
        backend="thread",
    )
    emit_timing(
        "fleet_throughput",
        wall_times_s={"naive_loop": naive_s, "fleet_runner": fleet_s},
        speedups={"fleet_vs_naive": speedup},
        extra={
            "vehicles": VEHICLES,
            "cohorts": metadata["cohorts"],
            "groups": metadata["groups"],
            "shared_energy_bins": metadata["shared_energy_bins"],
            "required_speedup": REQUIRED_SPEEDUP,
            "fleet_runs": FLEET_RUNS,
        },
        workers=1,
        backend="thread",
    )

    # Correctness before speed: the fleet rows must be the naive rows, bit
    # for bit (same key subset — the fleet row wraps the summary figures).
    assert len(result.vehicle_rows) == len(naive_summaries)
    for row, summary in zip(result.vehicle_rows, naive_summaries):
        for key, value in summary.items():
            assert row[key] == value, (
                f"fleet row diverged from naive emulate() on {key!r}: "
                f"{row[key]!r} != {value!r}"
            )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"bin-shared fleet emulation is only {speedup:.1f}x faster "
        f"(naive {naive_s:.2f} s vs fleet {fleet_s:.2f} s for {VEHICLES} "
        f"vehicles); the acceptance bar is {REQUIRED_SPEEDUP:.0f}x"
    )
