"""Thermal fleet fast path vs the per-vehicle thermal ``emulate()`` loop.

With a :class:`ThermalSpec` on the fleet, each (cycle, speed-scale,
ambient-bin) cohort replays the tyre thermal model ONCE and the group's
bin union spans (speed, temperature, phase-pattern) triples in the same
single cross-vehicle sweep — so thermal variation rides the fast path
instead of demoting every vehicle to a cold ``NodeEmulator.emulate()``.

This benchmark measures that on a 200-vehicle fleet (log-normal speed
scales, correlated zero-mean ambient offsets snapped to ambient-bin
centers, Gaussian tolerances) and *asserts*:

* >= 3x throughput of the thermal fast path over the naive per-vehicle
  loop (fresh emulator + fresh thermal model per vehicle);
* bitwise-identical per-vehicle figures against that naive loop;
* the thermal replay of every cohort (``TyreThermalModel.advance_many``
  over the cohort's walk) bitwise equal to stepping ``advance`` unit by
  unit, and reports its speedup over that loop (``replay_vs_stepping``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.core.cycle_plan import build_cycle_plan
from repro.core.emulator import NodeEmulator
from repro.fleet import FleetRunner, FleetSpec, ThermalSpec, default_fleet_distributions
from repro.scavenger.storage import scaled_storage
from repro.scenario import ScenarioSpec

#: Local headroom is above the 3x acceptance bar (~3.7x measured on 2 CPUs);
#: shared CI runners are noisy, so workflows may lower the enforced floor via the
#: environment while the measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("FLEET_THERMAL_FLOOR", "3.0"))

VEHICLES = 200
REPLAY_REPEATS = 7


def _bench_fleet() -> FleetSpec:
    base = ScenarioSpec(
        name="bench-thermal",
        drive_cycle={"name": "urban", "params": {"repetitions": 2}},
    )
    distributions = {
        key: value
        for key, value in default_fleet_distributions(base).items()
        if key != "temperature_c"
    }
    distributions["ambient_offset_c"] = {
        "kind": "correlated-normal",
        "params": {"std": 6.0, "correlation": 0.6},
    }
    return FleetSpec(
        name="bench-thermal",
        base=base,
        vehicles=VEHICLES,
        seed=11,
        distributions=distributions,
        thermal=ThermalSpec(),
    )


def _replay_vs_stepping(fleet: FleetSpec, vehicles) -> tuple[float, float, int]:
    """Best-of wall times of every cohort's thermal replay: batch vs stepping.

    A cohort is a distinct (cycle, speed scale, ambient) of the population;
    its replay runs a fresh model over the cohort's walk.  The stepping loop
    is the per-unit ``advance`` loop the replay replaced (km/h speeds over
    3.6, one temperature stored per unit); both must agree bit for bit on
    every temperature and on the final state.  Returns ``(replay_s,
    stepping_s, cohorts)``.
    """
    node = fleet.base.build_node()
    cohorts = {}
    for vehicle in vehicles:
        spec = vehicle.scenario
        key = (repr(spec.drive_cycle), vehicle.speed_scale, spec.temperature_c)
        if key not in cohorts:
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            plan = build_cycle_plan(cycle, node, idle_step_s=1.0, record_interval_s=1.0)
            cohorts[key] = (plan, fleet.thermal.build(spec.temperature_c))

    def stepping() -> list:
        runs = []
        for plan, model in cohorts.values():
            model.reset()
            temps = np.empty(len(plan))
            for i, (duration, speed) in enumerate(zip(plan.durations.tolist(), plan.speeds)):
                temps[i] = model.advance(duration, speed / 3.6)
            runs.append((temps, model._current_celsius, model._current_time_s))
        return runs

    def replay() -> list:
        runs = []
        for plan, model in cohorts.values():
            model.reset()
            temps = model.advance_many(plan.durations, plan.speeds / 3.6)
            runs.append((temps, model._current_celsius, model._current_time_s))
        return runs

    best = {stepping: float("inf"), replay: float("inf")}
    for _ in range(REPLAY_REPEATS):  # interleaved, so drift hits both alike
        for variant in best:
            start = time.perf_counter()
            runs = variant()
            best[variant] = min(best[variant], time.perf_counter() - start)
            if variant is stepping:
                expected = runs
            else:
                for (temps, celsius, time_s), (want, want_celsius, want_time_s) in zip(
                    runs, expected
                ):
                    assert temps.tobytes() == want.tobytes()
                    assert float.hex(celsius) == float.hex(want_celsius)
                    assert float.hex(time_s) == float.hex(want_time_s)
    return best[replay], best[stepping], len(cohorts)


def test_thermal_fast_path_beats_naive_loop():
    """The thermal cohort fast path is >= 3x the naive per-vehicle loop.

    Two runs over the identical 200-vehicle population: the naive loop
    (fresh emulator and thermal model per vehicle — what a user would write
    without the fleet subsystem) and the thermal fast path.  Both must agree
    bit for bit; only the wall clock may differ.
    """
    fleet = _bench_fleet()
    thermal = fleet.thermal
    vehicles = fleet.materialize()

    # Naive baseline: one fresh thermal emulator per vehicle.
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
            thermal_model=thermal.build(spec.temperature_c),
        )
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        naive_summaries.append(emulator.emulate(cycle).summary())
    naive_s = time.perf_counter() - start

    # Thermal fast path (sequential, so the comparison is CPU-for-CPU).
    start = time.perf_counter()
    result = FleetRunner(fleet).run()
    fleet_s = time.perf_counter() - start

    speedup_vs_naive = naive_s / fleet_s
    replay_s, stepping_s, replayed_cohorts = _replay_vs_stepping(fleet, vehicles)
    replay_speedup = stepping_s / replay_s

    metadata = result.metadata
    assert metadata["fast_path_vehicles"] == VEHICLES

    emit_result(
        "fleet_thermal",
        [
            {
                "vehicles": VEHICLES,
                "cohorts": metadata["cohorts"],
                "shared_energy_bins": metadata["shared_energy_bins"],
                "fast_path_vehicles": metadata["fast_path_vehicles"],
                "naive_s": naive_s,
                "fleet_s": fleet_s,
                "speedup_vs_naive_x": speedup_vs_naive,
                "replay_s": replay_s,
                "stepping_s": stepping_s,
                "replay_vs_stepping_x": replay_speedup,
            }
        ],
        title="Thermal fleet: cohort fast path vs per-vehicle thermal emulate",
        workers=1,
        backend="thread",
    )
    emit_timing(
        "fleet_thermal",
        wall_times_s={
            "naive_loop": naive_s,
            "fleet_runner": fleet_s,
            "thermal_replay": replay_s,
            "thermal_stepping": stepping_s,
        },
        speedups={"fast_vs_naive": speedup_vs_naive, "replay_vs_stepping": replay_speedup},
        extra={
            "vehicles": VEHICLES,
            "cohorts": metadata["cohorts"],
            "groups": metadata["groups"],
            "shared_energy_bins": metadata["shared_energy_bins"],
            "ambient_quantum_c": metadata["ambient_quantum_c"],
            "replayed_cohorts": replayed_cohorts,
            "required_speedup": REQUIRED_SPEEDUP,
        },
        workers=1,
        backend="thread",
    )

    # Correctness before speed: fast path == naive thermal emulate(), bit
    # for bit.
    assert len(result.vehicle_rows) == len(naive_summaries)
    for row, summary in zip(result.vehicle_rows, naive_summaries):
        for key, value in summary.items():
            assert row[key] == value, (
                f"thermal fleet row diverged from naive emulate() on {key!r}: "
                f"{row[key]!r} != {value!r}"
            )

    assert speedup_vs_naive >= REQUIRED_SPEEDUP, (
        f"thermal cohort fast path is only {speedup_vs_naive:.1f}x faster than "
        f"the naive per-vehicle loop (naive {naive_s:.2f} s vs fast "
        f"{fleet_s:.2f} s for {VEHICLES} vehicles); the acceptance bar is "
        f"{REQUIRED_SPEEDUP:.0f}x"
    )
