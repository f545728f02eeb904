"""Monte-Carlo workload sweep: vectorized batch engine vs scalar reference.

The ``montecarlo`` study kind samples thousands of (speed, temperature,
activity, phase-pattern) conditions per grid point and pushes them through
``EnergyEvaluator.schedule_energy_sweep`` — the workload-vectorized batch
path.  This benchmark quantifies that choice against the scalar reference
(one ``schedule_report`` per sample, the semantics-defining path) and
*asserts*:

* >= 5x speedup of the sweep over the per-sample scalar loop;
* sweep energies matching the scalar reference within 1e-9 relative
  tolerance.

A second row times the timing side alone on the 512 points of one
``montecarlo`` item: one ``SensorNode.schedule_table`` call against one
``schedule_for_pattern`` build per point, asserting >= 10x and bitwise
equal periods, phase durations and resting remainders.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.core.evaluator import EnergyEvaluator
from repro.scenario.montecarlo import MonteCarloConfig
from repro.scenario.spec import ScenarioSpec

SAMPLES = 4000
#: Local headroom is far above the 5x acceptance bar; shared CI runners are
#: noisy, so workflows may lower the enforced floor via the environment while
#: the measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("MONTECARLO_SPEEDUP_FLOOR", "5.0"))
RTOL = 1e-9
#: Points of the schedule-timing row: one ``montecarlo`` item's samples.
TABLE_SAMPLES = 512
#: The table row's bar is twice the sweep's: 10x locally, and lowered with
#: it (``MONTECARLO_SPEEDUP_FLOOR``) on shared runners.
REQUIRED_TABLE_SPEEDUP = 2.0 * REQUIRED_SPEEDUP


def test_montecarlo_sweep_speedup(node, database):
    """>=5x on a 4000-sample workload population, equal to scalar at 1e-9."""
    spec = ScenarioSpec(name="bench-montecarlo")
    config = MonteCarloConfig(samples=SAMPLES, seed=7)
    draws = config.draw(node, spec.operating_point(), config.rng_for(spec.to_json()))
    evaluator = EnergyEvaluator(node, database)
    evaluator.compiled  # build the table outside the timed regions

    start = time.perf_counter()
    energies = evaluator.schedule_energy_sweep(draws.conditions, draws.patterns)
    sweep_s = time.perf_counter() - start

    batch = draws.conditions
    point = spec.operating_point()
    start = time.perf_counter()
    scalar = np.empty(len(batch))
    for i in range(len(batch)):
        speed = float(batch.speed_kmh[i])
        sample_point = point.at_speed(speed).at_temperature(
            float(batch.temperature_c[i])
        )
        schedule = node.schedule_for_pattern(
            speed,
            transmits=bool(draws.patterns[i, 0]),
            refreshes_slow=bool(draws.patterns[i, 1]),
            writes_nvm=bool(draws.patterns[i, 2]),
        )
        scalar[i] = evaluator.schedule_report(
            schedule, sample_point, activity_scale=float(batch.activity[i])
        ).total_energy_j
    scalar_s = time.perf_counter() - start
    speedup = scalar_s / sweep_s
    table_s, builds_s = _schedule_table_timings(node, draws)
    table_speedup = builds_s / table_s

    emit_result(
        "montecarlo_sweep",
        [
            {
                "workload": f"{SAMPLES}-sample seeded workload population",
                "samples": SAMPLES,
                "scalar_ms": scalar_s * 1e3,
                "vectorized_ms": sweep_s * 1e3,
                "speedup_x": speedup,
            },
            {
                "workload": "schedule timing: schedule_table vs per-point builds",
                "samples": TABLE_SAMPLES,
                "scalar_ms": builds_s * 1e3,
                "vectorized_ms": table_s * 1e3,
                "speedup_x": table_speedup,
            },
        ],
        title="Monte-Carlo workload sweep: schedule_energy_sweep vs scalar reference",
    )
    emit_timing(
        "montecarlo_sweep",
        wall_times_s={
            "scalar": scalar_s,
            "vectorized": sweep_s,
            "schedule_builds": builds_s,
            "schedule_table": table_s,
        },
        speedups={"vectorized_vs_scalar": speedup, "table_vs_builds": table_speedup},
        extra={
            "samples": SAMPLES,
            "table_samples": TABLE_SAMPLES,
            "required_speedup": REQUIRED_SPEEDUP,
            "required_table_speedup": REQUIRED_TABLE_SPEEDUP,
        },
    )

    assert np.allclose(energies, scalar, rtol=RTOL, atol=0.0), (
        "the vectorized sweep diverged from the scalar reference"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"the vectorized sweep is only {speedup:.1f}x faster "
        f"(scalar {scalar_s * 1e3:.1f} ms vs vectorized {sweep_s * 1e3:.1f} ms); "
        f"the acceptance bar is {REQUIRED_SPEEDUP:.0f}x"
    )
    assert table_speedup >= REQUIRED_TABLE_SPEEDUP, (
        f"schedule_table is only {table_speedup:.1f}x faster than per-point builds "
        f"(builds {builds_s * 1e3:.2f} ms vs table {table_s * 1e3:.2f} ms); "
        f"the bar is {REQUIRED_TABLE_SPEEDUP:.0f}x"
    )


def _schedule_table_timings(node, draws, repeats: int = 5) -> tuple[float, float]:
    """Best-of seconds of one table call and of per-point builds, checked bitwise."""
    speeds = draws.conditions.speed_kmh[:TABLE_SAMPLES]
    patterns = draws.patterns[:TABLE_SAMPLES]
    table_s = builds_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table = node.schedule_table(speeds, patterns)
        table_s = min(table_s, time.perf_counter() - start)
        start = time.perf_counter()
        schedules = [
            node.schedule_for_pattern(speed, *pattern)
            for speed, pattern in zip(speeds.tolist(), patterns.tolist())
        ]
        builds_s = min(builds_s, time.perf_counter() - start)

    assert table.feasible.all()
    assert table.period_s.tobytes() == np.array([s.period_s for s in schedules]).tobytes()
    assert table.rest_s.tobytes() == np.array(
        [s.resting_duration_s for s in schedules]
    ).tobytes()
    for _structure, indices, durations in table.groups:
        for column, index in enumerate(indices.tolist()):
            expected = np.array([phase.duration_s for phase in schedules[index].phases])
            assert durations[:, column].tobytes() == expected.tobytes()
    return table_s, builds_s
