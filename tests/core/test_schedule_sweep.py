"""Tests for the workload-vectorized sweep: ``schedule_energy_sweep``,
per-point activity factors, and the average sweeps' timing, which comes
from one schedule table per sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import OperatingPoint
from repro.core.evaluator import EnergyEvaluator
from repro.errors import AnalysisError, ConfigurationError, ScheduleError

RTOL = 1e-9

#: Every conditional-phase combination a revolution can realize (NVM writes
#: imply a transmit-free round is impossible for tx_interval=1 nodes, but the
#: sweep accepts any combination — the energy model is defined for all).
ALL_PATTERNS = [
    (False, False, False),
    (True, False, False),
    (False, True, False),
    (True, True, False),
    (True, False, True),
    (True, True, True),
]


@pytest.fixture
def evaluator(node, database) -> EnergyEvaluator:
    return EnergyEvaluator(node, database)


def _mixed_batch(count: int = 24, seed: int = 5) -> tuple[BatchConditions, np.ndarray]:
    """Random speeds/temperatures/activities plus cycling phase patterns."""
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(20.0, 160.0, count)
    temperatures = rng.uniform(-40.0, 125.0, count)
    activities = rng.uniform(0.4, 1.3, count)
    patterns = np.array([ALL_PATTERNS[i % len(ALL_PATTERNS)] for i in range(count)])
    batch = BatchConditions.from_arrays(
        speeds, temperatures, activity=activities
    )
    return batch, patterns


def _scalar_reference(node, evaluator, batch, patterns) -> np.ndarray:
    """One ``schedule_report`` per point — the semantics-defining path."""
    energies = np.empty(len(batch))
    for i in range(len(batch)):
        speed = float(batch.speed_kmh[i])
        point = OperatingPoint(
            speed_kmh=speed, temperature_c=float(batch.temperature_c[i])
        )
        schedule = node.schedule_for_pattern(
            speed,
            transmits=bool(patterns[i, 0]),
            refreshes_slow=bool(patterns[i, 1]),
            writes_nvm=bool(patterns[i, 2]),
        )
        energies[i] = evaluator.schedule_report(
            schedule, point, activity_scale=float(batch.activity[i])
        ).total_energy_j
    return energies


class TestScheduleEnergySweep:
    def test_matches_scalar_reference(self, node, evaluator):
        batch, patterns = _mixed_batch()
        energies = evaluator.schedule_energy_sweep(batch, patterns)
        reference = _scalar_reference(node, evaluator, batch, patterns)
        assert np.allclose(energies, reference, rtol=RTOL, atol=0.0)

    def test_matches_scalar_reference_on_legacy_node(self, legacy, database):
        evaluator = EnergyEvaluator(legacy, database)
        batch, patterns = _mixed_batch(count=12, seed=9)
        energies = evaluator.schedule_energy_sweep(batch, patterns)
        reference = _scalar_reference(legacy, evaluator, batch, patterns)
        assert np.allclose(energies, reference, rtol=RTOL, atol=0.0)

    def test_unit_activity_matches_plain_schedule_report(self, node, evaluator):
        """activity == 1.0 must reproduce the activity-free energies exactly."""
        batch, patterns = _mixed_batch(count=10, seed=3)
        plain = BatchConditions.from_arrays(batch.speed_kmh, batch.temperature_c)
        energies = evaluator.schedule_energy_sweep(plain, patterns)
        for i in range(len(plain)):
            speed = float(plain.speed_kmh[i])
            point = OperatingPoint(
                speed_kmh=speed, temperature_c=float(plain.temperature_c[i])
            )
            schedule = node.schedule_for_pattern(
                speed,
                transmits=bool(patterns[i, 0]),
                refreshes_slow=bool(patterns[i, 1]),
                writes_nvm=bool(patterns[i, 2]),
            )
            report = evaluator.schedule_report(schedule, point)
            assert energies[i] == pytest.approx(report.total_energy_j, rel=RTOL)

    def test_include_phases_matches_schedule_energy_compiled(self, node, evaluator):
        """Per-point phase lists must be bitwise what the scalar path caches."""
        batch, patterns = _mixed_batch(count=8, seed=11)
        plain = BatchConditions.from_arrays(batch.speed_kmh, batch.temperature_c)
        energies, phase_lists = evaluator.schedule_energy_sweep(
            plain, patterns, include_phases=True
        )
        for i in range(len(plain)):
            speed = float(plain.speed_kmh[i])
            point = OperatingPoint(
                speed_kmh=speed, temperature_c=float(plain.temperature_c[i])
            )
            schedule = node.schedule_for_pattern(
                speed,
                transmits=bool(patterns[i, 0]),
                refreshes_slow=bool(patterns[i, 1]),
                writes_nvm=bool(patterns[i, 2]),
            )
            total, phases = evaluator.schedule_energy_compiled(schedule, point)
            assert float(energies[i]) == total
            assert phase_lists[i] == phases

    def test_no_per_point_schedule_objects(self, evaluator, monkeypatch):
        """The sweep builds no schedule object: one table, one structure per pattern."""
        from repro.blocks.node import SensorNode
        from repro.timing.schedule import RevolutionSchedule

        builds = []
        original_init = RevolutionSchedule.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(RevolutionSchedule, "__init__", counting_init)
        tables = []
        original_table = SensorNode.schedule_table

        def recording(self, speeds, patterns):
            tables.append(original_table(self, speeds, patterns))
            return tables[-1]

        monkeypatch.setattr(SensorNode, "schedule_table", recording)
        speeds = np.array([60.0, 60.0, 90.0, 90.0, 60.0])
        batch = BatchConditions.from_arrays(speeds, 25.0)
        patterns = np.array([ALL_PATTERNS[i % 2] for i in range(5)])
        evaluator.schedule_energy_sweep(batch, patterns)
        evaluator.schedule_energy_sweep(batch, patterns)
        assert builds == []
        assert len(tables) == 2
        first, second = tables
        assert [indices.tolist() for _s, indices, _d in first.groups] == [[0, 2, 4], [1, 3]]
        # Structures are memoized on the node: the same objects every call.
        assert [structure for structure, *_ in first.groups] == [
            structure for structure, *_ in second.groups
        ]

    def test_empty_batch(self, evaluator):
        batch = BatchConditions.from_arrays(np.empty(0), np.empty(0))
        energies = evaluator.schedule_energy_sweep(batch, np.empty((0, 3), dtype=bool))
        assert energies.shape == (0,)
        energies, phases = evaluator.schedule_energy_sweep(
            batch, np.empty((0, 3), dtype=bool), include_phases=True
        )
        assert energies.shape == (0,) and phases == []

    def test_first_infeasible_point_raises_the_scalar_error(self, node, evaluator):
        """In a mixed batch the first infeasible point raises, with the scalar text."""
        speeds = np.array([60.0, 1500.0, 90.0, 2500.0])
        batch = BatchConditions.from_arrays(speeds, 25.0)
        patterns = np.array([[True, True, False]] * 4)
        with pytest.raises(ScheduleError) as expected:
            node.schedule_for_pattern(1500.0, True, True, False)
        with pytest.raises(ScheduleError) as raised:
            evaluator.schedule_energy_sweep(batch, patterns)
        assert str(raised.value) == str(expected.value)

    def test_non_positive_speed_raises_configuration_error(self, evaluator):
        patterns = np.array([[True, False, False]] * 3)
        zero_first = BatchConditions.from_arrays(np.array([60.0, 0.0, 1500.0]), 25.0)
        with pytest.raises(ConfigurationError, match="positive speed"):
            evaluator.schedule_energy_sweep(zero_first, patterns)
        # Errors keep point order: an earlier infeasible point wins.
        infeasible_first = BatchConditions.from_arrays(np.array([60.0, 1500.0, 0.0]), 25.0)
        with pytest.raises(ScheduleError):
            evaluator.schedule_energy_sweep(infeasible_first, patterns)

    def test_infeasible_speed_raises_schedule_error(self, evaluator):
        batch = BatchConditions.from_arrays(np.array([1500.0]), 25.0)
        with pytest.raises(ScheduleError):
            evaluator.schedule_energy_sweep(
                batch, np.array([[True, True, False]])
            )

    def test_non_boolean_patterns_rejected(self, evaluator):
        batch = BatchConditions.from_arrays(np.array([60.0]), 25.0)
        with pytest.raises(AnalysisError, match="boolean"):
            evaluator.schedule_energy_sweep(batch, np.array([[1, 0, 0]]))

    def test_pattern_shape_validated(self, evaluator):
        batch = BatchConditions.from_arrays(np.array([60.0, 80.0]), 25.0)
        with pytest.raises(AnalysisError, match=r"\(N, 3\)"):
            evaluator.schedule_energy_sweep(
                batch, np.array([[True, False]], dtype=bool)
            )
        with pytest.raises(AnalysisError, match="one phase pattern per batch point"):
            evaluator.schedule_energy_sweep(
                batch, np.array([[True, False, True]], dtype=bool)
            )

    def test_negative_activity_rejected(self):
        with pytest.raises(ConfigurationError, match="activity"):
            BatchConditions.from_arrays(
                np.array([60.0]), 25.0, activity=np.array([-0.5])
            )

    def test_nan_activity_rejected(self):
        with pytest.raises(ConfigurationError, match="activity"):
            BatchConditions.from_arrays(
                np.array([60.0]), 25.0, activity=np.array([float("nan")])
            )


class TestAverageSweepActivity:
    """Per-point activity on the *average* batch path vs a scalar reference."""

    @staticmethod
    def _scalar_average_with_activity(evaluator, point, activity_scale):
        """Replicate ``average_report`` with the activity-scale semantics."""
        node = evaluator.node
        database = evaluator.database
        node.schedule_for(point.speed_kmh, revolution_index=0)
        period = node.wheel.revolution_period_s(point.speed_kmh)
        resting = node.resting_modes()
        block_dynamic, block_static, resting_power = {}, {}, {}
        for block, resting_mode in resting.items():
            breakdown = database.power(block, resting_mode, point)
            resting_power[block] = breakdown
            block_dynamic[block] = breakdown.dynamic_w * period
            block_static[block] = breakdown.static_w * period
        for phase, weight in node.phase_census(point.speed_kmh):
            for block, mode in phase.block_modes.items():
                active = database.power(
                    block,
                    mode,
                    point,
                    activity=phase.activity_of(block) * activity_scale,
                )
                rest = resting_power[block]
                block_dynamic[block] += (
                    weight * (active.dynamic_w - rest.dynamic_w) * phase.duration_s
                )
                block_static[block] += (
                    weight * (active.static_w - rest.static_w) * phase.duration_s
                )
        return sum(max(0.0, v) for v in block_dynamic.values()) + sum(
            max(0.0, v) for v in block_static.values()
        )

    def test_average_energy_sweep_honours_activity(self, evaluator):
        speeds = np.array([40.0, 40.0, 95.0, 140.0])
        temperatures = np.array([-10.0, 85.0, 25.0, 60.0])
        activities = np.array([0.5, 0.8, 1.0, 1.25])
        batch = BatchConditions.from_arrays(
            speeds, temperatures, activity=activities
        )
        energies = evaluator.average_energy_sweep(batch)
        for i in range(len(batch)):
            point = OperatingPoint(
                speed_kmh=float(speeds[i]), temperature_c=float(temperatures[i])
            )
            reference = self._scalar_average_with_activity(
                evaluator, point, float(activities[i])
            )
            assert energies[i] == pytest.approx(reference, rel=RTOL)

    def test_activity_lowers_the_dynamic_energy(self, evaluator):
        speeds = np.full(2, 80.0)
        low = BatchConditions.from_arrays(speeds, 25.0, activity=np.array([0.5, 0.5]))
        high = BatchConditions.from_arrays(speeds, 25.0, activity=np.array([1.0, 1.0]))
        assert np.all(
            evaluator.average_energy_sweep(low) < evaluator.average_energy_sweep(high)
        )


class TestAverageSweepTiming:
    def test_cold_sweep_builds_one_census(self, node, database, monkeypatch):
        """The durations of every unique speed come from the schedule table."""
        from repro.blocks.node import SensorNode

        calls = []
        original = SensorNode.phase_census

        def counting(self, speed_kmh):
            calls.append(speed_kmh)
            return original(self, speed_kmh)

        monkeypatch.setattr(SensorNode, "phase_census", counting)
        points = [OperatingPoint(speed_kmh=s) for s in (50.0, 75.0, 110.0, 50.0)]
        EnergyEvaluator(node, database).average_energy_sweep(points)
        assert len(calls) <= 1

    def test_nan_speed_raises_the_scalar_error(self, node, database):
        evaluator = EnergyEvaluator(node, database)
        nan = float("nan")
        with pytest.raises(AnalysisError) as expected:
            evaluator.energy_per_revolution_j(OperatingPoint(speed_kmh=nan))
        with pytest.raises(AnalysisError) as swept:
            evaluator.average_energy_sweep([OperatingPoint(speed_kmh=nan)])
        with pytest.raises(AnalysisError) as grid:
            evaluator.energy_grid([60.0, nan], [25.0])
        assert str(swept.value) == str(expected.value)
        assert str(grid.value) == str(expected.value)

    def test_infeasible_speed_still_raises(self, node, database):
        evaluator = EnergyEvaluator(node, database)
        with pytest.raises(ScheduleError):
            evaluator.average_energy_sweep([OperatingPoint(speed_kmh=1500.0)])
        # And keeps raising on a second sweep of the same evaluator.
        with pytest.raises(ScheduleError):
            evaluator.average_energy_sweep([OperatingPoint(speed_kmh=1500.0)])

    def test_slowest_infeasible_speed_raises_the_scalar_error(self, node, database):
        points = [OperatingPoint(speed_kmh=s) for s in (2500.0, 60.0, 1500.0)]
        with pytest.raises(ScheduleError) as expected:
            EnergyEvaluator(node, database).average_report(points[2])
        with pytest.raises(ScheduleError) as raised:
            EnergyEvaluator(node, database).average_energy_sweep(points)
        assert str(raised.value) == str(expected.value)
