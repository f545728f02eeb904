"""Scalar <-> vectorized equivalence of the batch evaluation engine.

Every batch API (`average_energy_sweep`, `standstill_power_sweep`,
`energy_grid`, the batched balance curve and break-even search, and the
compiled schedule path used by the emulator) must reproduce the scalar
reference path within 1e-9 relative tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import (
    OperatingPoint,
    best_case_operating_point,
    worst_case_operating_point,
)
from repro.conditions.process import ProcessCorner, ProcessVariation
from repro.conditions.supply import SupplyCondition, SupplyRail
from repro.core.balance import EnergyBalanceAnalysis
from repro.core.evaluator import EnergyEvaluator
from repro.errors import AnalysisError, ConfigurationError

RTOL = 1e-9


def sweep_points() -> list[OperatingPoint]:
    """Speeds x temperatures x supply corners x process corners."""
    points = []
    for speed in (15.0, 60.0, 133.7):
        for temperature in (-40.0, 25.0, 125.0):
            points.append(OperatingPoint(speed_kmh=speed, temperature_c=temperature))
    for supply in (1.05, 1.32):
        rail = SupplyRail(name="vdd_core", nominal_v=supply, tolerance=0.0)
        points.append(
            OperatingPoint(speed_kmh=80.0, supply=SupplyCondition(rail=rail))
        )
    for corner in ProcessCorner:
        points.append(
            OperatingPoint(speed_kmh=45.0, process=ProcessVariation(corner=corner))
        )
    points.append(worst_case_operating_point(90.0))
    points.append(best_case_operating_point(25.0))
    return points


@pytest.fixture
def evaluator(node, database) -> EnergyEvaluator:
    return EnergyEvaluator(node, database)


class TestAverageEnergySweep:
    def test_matches_scalar_reports(self, evaluator):
        points = sweep_points()
        batch = evaluator.average_energy_sweep(points)
        scalar = np.array([evaluator.energy_per_revolution_j(p) for p in points])
        assert np.allclose(batch, scalar, rtol=RTOL, atol=0.0)

    def test_components_match_scalar_reports(self, evaluator):
        points = sweep_points()
        dynamic, static, period = evaluator.average_components_sweep(points)
        for i, point in enumerate(points):
            report = evaluator.average_report(point)
            assert dynamic[i] == pytest.approx(report.dynamic_energy_j, rel=RTOL)
            assert static[i] == pytest.approx(report.static_energy_j, rel=RTOL)
            assert period[i] == pytest.approx(report.period_s, rel=RTOL)

    def test_power_sweep_matches_scalar(self, evaluator):
        points = sweep_points()
        batch = evaluator.average_power_sweep(points)
        scalar = np.array([evaluator.average_power_w(p) for p in points])
        assert np.allclose(batch, scalar, rtol=RTOL, atol=0.0)

    def test_accepts_batch_conditions(self, evaluator):
        points = sweep_points()
        batch = BatchConditions.from_points(points)
        assert np.allclose(
            evaluator.average_energy_sweep(batch),
            evaluator.average_energy_sweep(points),
            rtol=0.0,
        )

    def test_empty_sweep(self, evaluator):
        assert evaluator.average_energy_sweep([]).shape == (0,)

    def test_stationary_point_rejected(self, evaluator):
        with pytest.raises(AnalysisError):
            evaluator.average_energy_sweep([OperatingPoint(speed_kmh=0.0)])


class TestStandstillSweep:
    def test_matches_scalar(self, evaluator):
        points = sweep_points() + [OperatingPoint(speed_kmh=0.0, temperature_c=85.0)]
        batch = evaluator.standstill_power_sweep(points)
        scalar = np.array([evaluator.standstill_power_w(p) for p in points])
        assert np.allclose(batch, scalar, rtol=RTOL, atol=0.0)


class TestEnergyGrid:
    def test_matches_scalar_double_loop(self, evaluator):
        speeds = np.linspace(20.0, 160.0, 8)
        temperatures = np.linspace(-40.0, 125.0, 5)
        grid = evaluator.energy_grid(speeds, temperatures)
        assert grid.energy_j.shape == (8, 5)
        for i, speed in enumerate(speeds):
            for j, temperature in enumerate(temperatures):
                point = OperatingPoint(speed_kmh=speed, temperature_c=temperature)
                report = evaluator.average_report(point)
                assert grid.energy_j[i, j] == pytest.approx(
                    report.total_energy_j, rel=RTOL
                )
                assert grid.average_power_w[i, j] == pytest.approx(
                    report.average_power_w, rel=RTOL
                )

    def test_static_fraction_in_bounds(self, evaluator):
        grid = evaluator.energy_grid((40.0, 90.0), (-20.0, 25.0, 105.0))
        fraction = grid.static_fraction
        assert np.all((fraction >= 0.0) & (fraction <= 1.0))

    def test_base_point_conditions_are_honoured(self, evaluator):
        hot_corner = worst_case_operating_point()
        grid = evaluator.energy_grid((60.0,), (125.0,), base_point=hot_corner)
        assert grid.energy_j[0, 0] == pytest.approx(
            evaluator.energy_per_revolution_j(worst_case_operating_point(60.0)),
            rel=RTOL,
        )


class TestBatchConditions:
    def test_grid_layout_is_row_major(self):
        batch = BatchConditions.grid((10.0, 20.0), (0.0, 25.0, 50.0))
        assert len(batch) == 6
        assert list(batch.speed_kmh) == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0]
        assert list(batch.temperature_c) == [0.0, 25.0, 50.0] * 2

    def test_from_points_roundtrip(self):
        point = worst_case_operating_point(77.0)
        batch = BatchConditions.from_points([point])
        rebuilt = batch.point_at(0)
        assert rebuilt.speed_kmh == point.speed_kmh
        assert rebuilt.temperature_c == point.temperature_c
        assert rebuilt.supply_voltage == pytest.approx(point.supply_voltage)
        assert rebuilt.process.dynamic_factor == pytest.approx(
            point.process.dynamic_factor
        )
        assert rebuilt.process.leakage_factor == pytest.approx(
            point.process.leakage_factor
        )

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchConditions(
                speed_kmh=np.array([60.0]),
                temperature_c=np.array([25.0, 30.0]),
                supply_v=np.array([1.2]),
                dynamic_factor=np.array([1.0]),
                leakage_factor=np.array([1.0]),
            )

    def test_out_of_range_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchConditions.from_arrays([60.0], [400.0])

    def test_nan_temperature_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchConditions.from_arrays([60.0], [float("nan")])

    def test_non_positive_process_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchConditions.from_arrays([60.0], [25.0], dynamic_factor=0.0)
        with pytest.raises(ConfigurationError):
            BatchConditions.from_arrays([60.0], [25.0], leakage_factor=-1.0)


class TestBalanceBatchEquivalence:
    @pytest.fixture
    def analysis(self, node, database, scavenger):
        return EnergyBalanceAnalysis(node, database, scavenger)

    def test_curve_matches_scalar_curve(self, analysis):
        speeds = list(range(10, 200, 10))
        batched = analysis.curve(speeds)
        scalar = [analysis.balance_at(OperatingPoint(speed_kmh=float(s))) for s in speeds]
        assert len(batched.points) == len(scalar)
        for a, b in zip(batched.points, scalar):
            assert a.speed_kmh == b.speed_kmh
            assert a.required_j == pytest.approx(b.required_j, rel=RTOL)
            assert a.generated_j == pytest.approx(b.generated_j, rel=RTOL)

    def test_break_even_matches_bisection(self, analysis):
        batched = analysis.break_even_speed_kmh(use_batch=True)
        bisected = analysis.break_even_speed_kmh(use_batch=False)
        assert batched is not None and bisected is not None
        # Both are midpoints of brackets no wider than the 0.1 km/h tolerance.
        assert batched == pytest.approx(bisected, abs=0.2)

    def test_surplus_at_low_bound_returns_before_touching_high_bound(
        self, node, database, scavenger
    ):
        """A node in surplus at low_kmh must not evaluate the (possibly
        schedule-infeasible) high bound — same order as the scalar path."""
        oversized = EnergyBalanceAnalysis(node, database, scavenger.scaled(10000.0))
        assert oversized.break_even_speed_kmh(high_kmh=1000.0, use_batch=True) == 5.0
        assert oversized.break_even_speed_kmh(high_kmh=1000.0, use_batch=False) == 5.0

    def test_break_even_none_cases_agree(self, node, database, scavenger):
        starved = EnergyBalanceAnalysis(node, database, scavenger.scaled(1e-6))
        assert starved.break_even_speed_kmh(use_batch=True) is None
        assert starved.break_even_speed_kmh(use_batch=False) is None

    def test_margins_sweep_matches_balance_at(self, analysis):
        speeds = [20.0, 60.0, 140.0]
        margins = analysis.margins_sweep(speeds)
        for speed, margin in zip(speeds, margins):
            scalar = analysis.balance_at(OperatingPoint(speed_kmh=speed)).margin_j
            assert margin == pytest.approx(scalar, rel=RTOL, abs=1e-18)


class TestStalenessAndRemapping:
    def test_compiled_table_tracks_in_place_database_mutation(self, evaluator):
        """add()/remove() on the adapted database must rebuild the table."""
        point = OperatingPoint(speed_kmh=60.0)
        before = evaluator.average_energy_sweep([point])[0]
        entry = evaluator.database.entry("mcu", "active")
        evaluator.database.remove("mcu", "active")
        evaluator.database.add(entry.scaled(dynamic_factor=0.5))
        after_batch = evaluator.average_energy_sweep([point])[0]
        after_scalar = evaluator.energy_per_revolution_j(point)
        assert after_batch == pytest.approx(after_scalar, rel=RTOL)
        assert after_batch < before

    def test_compiled_table_tracks_database_rebinding(self, evaluator):
        """Rebinding evaluator.database to a new object must rebuild too."""
        point = OperatingPoint(speed_kmh=60.0)
        evaluator.average_energy_sweep([point])  # build the table
        evaluator.database = evaluator.database.map_entries(
            lambda entry: entry.scaled(dynamic_factor=0.5)
        )
        batch = evaluator.average_energy_sweep([point])[0]
        scalar = evaluator.energy_per_revolution_j(point)
        assert batch == pytest.approx(scalar, rel=RTOL)

    def test_curve_with_speed_remapping_factory_matches_scalar(
        self, node, database, scavenger
    ):
        """A factory that remaps the sweep speed must not split the paths."""
        analysis = EnergyBalanceAnalysis(node, database, scavenger)
        def factory(speed):
            return OperatingPoint(speed_kmh=1.05 * speed)
        speeds = [20.0, 60.0, 120.0]
        batched = analysis.curve(speeds, point_factory=factory)
        scalar = [analysis.balance_at(factory(s)) for s in speeds]
        assert len(batched.points) == len(scalar)
        for a, b in zip(batched.points, scalar):
            assert a.speed_kmh == b.speed_kmh
            assert a.generated_j == pytest.approx(b.generated_j, rel=RTOL)
            assert a.required_j == pytest.approx(b.required_j, rel=RTOL)


class TestActivityFactorEquivalence:
    """Exercise the activity-exponent branches both compiled paths mirror."""

    def test_schedule_with_activity_factors_matches_scalar(self, node, evaluator):
        from repro.timing.schedule import Phase, RevolutionSchedule

        resting = node.resting_modes()
        phases = (
            Phase(
                name="acquire",
                duration_s=0.002,
                block_modes={"mcu": "active", "adc": "active"},
                activities={"mcu": 0.6, "adc": 1.4},
            ),
        )
        schedule = RevolutionSchedule(period_s=0.05, phases=phases, blocks=resting)
        point = OperatingPoint(speed_kmh=60.0)
        total, _ = evaluator.schedule_energy_compiled(schedule, point)
        report = evaluator.schedule_report(schedule, point)
        assert total == pytest.approx(report.total_energy_j, rel=RTOL)

    def test_batch_average_with_activity_factors_matches_scalar(
        self, node, database, monkeypatch
    ):
        from repro.blocks.node import SensorNode
        from repro.timing.schedule import Phase

        original = SensorNode.phase_census

        def with_activities(self, speed_kmh):
            census = []
            for phase, weight in original(self, speed_kmh):
                if phase.name == "compute":
                    phase = Phase(
                        name=phase.name,
                        duration_s=phase.duration_s,
                        block_modes=dict(phase.block_modes),
                        activities={"mcu": 0.7},
                    )
                census.append((phase, weight))
            return census

        monkeypatch.setattr(SensorNode, "phase_census", with_activities)
        evaluator = EnergyEvaluator(node, database)
        points = [OperatingPoint(speed_kmh=s) for s in (40.0, 90.0)]
        batch = evaluator.average_energy_sweep(points)
        scalar = np.array([evaluator.energy_per_revolution_j(p) for p in points])
        assert np.allclose(batch, scalar, rtol=RTOL, atol=0.0)


class TestCompiledSchedulePath:
    def test_schedule_energy_matches_schedule_report(self, node, evaluator):
        for speed, revolution in ((30.0, 0), (90.0, 1), (150.0, 7)):
            point = OperatingPoint(speed_kmh=speed, temperature_c=60.0)
            schedule = node.schedule_for(speed, revolution)
            total, phases = evaluator.schedule_energy_compiled(schedule, point)
            report = evaluator.schedule_report(schedule, point)
            assert total == pytest.approx(report.total_energy_j, rel=RTOL)
            assert len(phases) == len(report.phases)
            for (name, duration, power), phase in zip(phases, report.phases):
                assert name == phase.phase
                assert duration == pytest.approx(phase.duration_s, rel=RTOL)
                assert power == pytest.approx(phase.average_power_w, rel=RTOL)


class TestEnergyGridEdgeCases:
    def test_empty_speed_axis_rejected(self, evaluator):
        with pytest.raises(AnalysisError, match="at least one speed"):
            evaluator.energy_grid(np.empty(0), np.array([25.0]))

    def test_empty_temperature_axis_rejected(self, evaluator):
        with pytest.raises(AnalysisError, match="at least one speed"):
            evaluator.energy_grid(np.array([60.0]), np.empty(0))

    def test_single_point_grid(self, evaluator):
        grid = evaluator.energy_grid(np.array([60.0]), np.array([25.0]))
        assert grid.energy_j.shape == (1, 1)
        scalar = evaluator.energy_per_revolution_j(
            OperatingPoint(speed_kmh=60.0, temperature_c=25.0)
        )
        assert grid.energy_j[0, 0] == pytest.approx(scalar, rel=RTOL)
        assert grid.period_s.shape == (1,)

    def test_non_contiguous_input_arrays(self, evaluator):
        """Strided views (e.g. every other element) must work unchanged."""
        speeds = np.linspace(20.0, 160.0, 12)[::2]
        temperatures = np.linspace(-40.0, 125.0, 10)[::3]
        assert not speeds.flags["C_CONTIGUOUS"] or speeds.base is not None
        strided = evaluator.energy_grid(speeds, temperatures)
        contiguous = evaluator.energy_grid(
            np.ascontiguousarray(speeds), np.ascontiguousarray(temperatures)
        )
        assert np.array_equal(strided.energy_j, contiguous.energy_j)
        assert np.array_equal(strided.period_s, contiguous.period_s)

    def test_reversed_axes_match_point_queries(self, evaluator):
        """Descending (negatively strided) axes keep row-major correspondence."""
        speeds = np.array([120.0, 60.0, 30.0])[::-1]
        temperatures = np.array([85.0, -10.0])[::-1]
        grid = evaluator.energy_grid(speeds, temperatures)
        for i, speed in enumerate(speeds):
            for j, temperature in enumerate(temperatures):
                scalar = evaluator.energy_per_revolution_j(
                    OperatingPoint(
                        speed_kmh=float(speed), temperature_c=float(temperature)
                    )
                )
                assert grid.energy_j[i, j] == pytest.approx(scalar, rel=RTOL)
