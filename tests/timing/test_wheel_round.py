"""Tests for the wheel-round iterator over drive cycles."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.timing.wheel_round import (
    IdleInterval,
    WheelRound,
    count_revolutions,
    iter_wheel_rounds,
    wheel_round_arrays,
)
from repro.vehicle.drive_cycle import constant_cruise, urban_cycle
from repro.vehicle.wheel import Wheel


@pytest.fixture
def wheel():
    return Wheel()


class TestUnits:
    def test_wheel_round_end(self):
        unit = WheelRound(index=0, start_s=1.0, period_s=0.1, speed_kmh=60.0)
        assert unit.end_s == pytest.approx(1.1)

    def test_wheel_round_validation(self):
        with pytest.raises(ConfigurationError):
            WheelRound(index=0, start_s=0.0, period_s=0.0, speed_kmh=60.0)
        with pytest.raises(ConfigurationError):
            WheelRound(index=0, start_s=0.0, period_s=0.1, speed_kmh=0.0)

    def test_idle_interval_end(self):
        interval = IdleInterval(start_s=2.0, duration_s=3.0)
        assert interval.end_s == pytest.approx(5.0)

    def test_idle_interval_validation(self):
        with pytest.raises(ConfigurationError):
            IdleInterval(start_s=0.0, duration_s=0.0)


class TestConstantCruise:
    def test_all_units_are_wheel_rounds(self, wheel):
        cycle = constant_cruise(60.0, duration_s=10.0)
        units = list(iter_wheel_rounds(cycle, wheel))
        assert all(isinstance(unit, WheelRound) for unit in units)

    def test_revolution_count_matches_kinematics(self, wheel):
        cycle = constant_cruise(60.0, duration_s=30.0)
        expected = 30.0 * wheel.revolutions_per_second(60.0)
        count = count_revolutions(cycle, wheel)
        assert count == pytest.approx(expected, abs=2)

    def test_periods_match_speed(self, wheel):
        cycle = constant_cruise(90.0, duration_s=5.0)
        expected_period = wheel.revolution_period_s(90.0)
        for unit in iter_wheel_rounds(cycle, wheel):
            assert unit.period_s <= expected_period + 1e-9

    def test_units_are_contiguous(self, wheel):
        cycle = constant_cruise(45.0, duration_s=5.0)
        cursor = 0.0
        for unit in iter_wheel_rounds(cycle, wheel):
            assert unit.start_s == pytest.approx(cursor, abs=1e-9)
            cursor = unit.end_s

    def test_indices_increase_monotonically(self, wheel):
        cycle = constant_cruise(70.0, duration_s=3.0)
        indices = [
            unit.index
            for unit in iter_wheel_rounds(cycle, wheel)
            if isinstance(unit, WheelRound)
        ]
        assert indices == list(range(len(indices)))

    def test_coverage_matches_cycle_duration(self, wheel):
        cycle = constant_cruise(60.0, duration_s=7.0)
        total = sum(
            unit.period_s if isinstance(unit, WheelRound) else unit.duration_s
            for unit in iter_wheel_rounds(cycle, wheel)
        )
        assert total == pytest.approx(7.0, abs=1e-6)


class TestStopAndGo:
    def test_standstill_yields_idle_intervals(self, wheel):
        cycle = constant_cruise(0.0, duration_s=5.0)
        units = list(iter_wheel_rounds(cycle, wheel, idle_step_s=1.0))
        assert all(isinstance(unit, IdleInterval) for unit in units)
        assert len(units) == 5

    def test_urban_cycle_mixes_unit_types(self, wheel):
        cycle = urban_cycle(repetitions=1)
        units = list(iter_wheel_rounds(cycle, wheel))
        kinds = {type(unit) for unit in units}
        assert kinds == {WheelRound, IdleInterval}

    def test_urban_cycle_coverage(self, wheel):
        cycle = urban_cycle(repetitions=1)
        total = sum(
            unit.period_s if isinstance(unit, WheelRound) else unit.duration_s
            for unit in iter_wheel_rounds(cycle, wheel)
        )
        assert total == pytest.approx(cycle.duration_s, rel=0.01)

    def test_threshold_controls_classification(self, wheel):
        cycle = constant_cruise(3.0, duration_s=5.0)
        low_threshold = list(iter_wheel_rounds(cycle, wheel, standstill_threshold_kmh=1.0))
        high_threshold = list(iter_wheel_rounds(cycle, wheel, standstill_threshold_kmh=5.0))
        assert all(isinstance(u, WheelRound) for u in low_threshold)
        assert all(isinstance(u, IdleInterval) for u in high_threshold)


class TestSafetyLimits:
    def test_max_units_caps_the_iterator(self, wheel):
        cycle = constant_cruise(60.0, duration_s=100.0)
        units = list(iter_wheel_rounds(cycle, wheel, max_units=10))
        assert len(units) == 10

    def test_invalid_idle_step_rejected(self, wheel):
        with pytest.raises(ConfigurationError):
            list(iter_wheel_rounds(constant_cruise(10.0), wheel, idle_step_s=0.0))

    def test_invalid_threshold_rejected(self, wheel):
        with pytest.raises(ConfigurationError):
            list(
                iter_wheel_rounds(
                    constant_cruise(10.0), wheel, standstill_threshold_kmh=0.0
                )
            )

    @pytest.mark.parametrize(
        "options, fragment",
        [
            ({"idle_step_s": float("inf")}, "idle step must be finite"),
            ({"idle_step_s": float("nan")}, "idle step must be finite"),
            ({"standstill_threshold_kmh": float("inf")}, "threshold must be finite"),
            ({"standstill_threshold_kmh": float("nan")}, "threshold must be finite"),
        ],
    )
    def test_non_finite_step_and_threshold_rejected(self, wheel, options, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            wheel_round_arrays(constant_cruise(10.0), wheel, **options)
