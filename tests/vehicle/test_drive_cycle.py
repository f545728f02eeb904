"""Tests for drive cycles and their builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.vehicle.drive_cycle import (
    DriveCycle,
    DriveCyclePhase,
    constant_cruise,
    cycle_from_samples,
    highway_cycle,
    nedc_like_cycle,
    ramp_cycle,
    urban_cycle,
)


class TestDriveCyclePhase:
    def test_linear_interpolation(self):
        phase = DriveCyclePhase(duration_s=10.0, start_kmh=0.0, end_kmh=100.0)
        assert phase.speed_at(5.0) == pytest.approx(50.0)

    def test_clamped_at_ends(self):
        phase = DriveCyclePhase(duration_s=10.0, start_kmh=20.0, end_kmh=80.0)
        assert phase.speed_at(-1.0) == 20.0
        assert phase.speed_at(100.0) == 80.0

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DriveCyclePhase(duration_s=0.0, start_kmh=0.0, end_kmh=10.0)
        with pytest.raises(ConfigurationError):
            DriveCyclePhase(duration_s=1.0, start_kmh=-5.0, end_kmh=10.0)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"duration_s": float("inf")}, "duration must be finite"),
            ({"duration_s": float("nan")}, "duration must be finite"),
            ({"start_kmh": float("nan")}, "speeds must be finite"),
            ({"end_kmh": float("inf")}, "speeds must be finite"),
        ],
    )
    def test_rejects_non_finite_parameters(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            DriveCyclePhase(**{"duration_s": 10.0, "start_kmh": 20.0, "end_kmh": 20.0, **kwargs})


class TestDriveCycle:
    def test_duration_is_sum_of_phases(self):
        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(10.0, 0.0, 50.0),
                DriveCyclePhase(20.0, 50.0, 50.0),
            ]
        )
        assert cycle.duration_s == 30.0

    def test_speed_lookup_spans_phases(self):
        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(10.0, 0.0, 100.0),
                DriveCyclePhase(10.0, 100.0, 100.0),
            ]
        )
        assert cycle.speed_at(5.0) == pytest.approx(50.0)
        assert cycle.speed_at(15.0) == pytest.approx(100.0)

    def test_speed_clamped_outside_cycle(self):
        cycle = constant_cruise(80.0, duration_s=100.0)
        assert cycle.speed_at(-10.0) == 80.0
        assert cycle.speed_at(1e6) == 80.0

    def test_empty_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            DriveCycle(phases=[])

    def test_sample_grid(self):
        cycle = constant_cruise(50.0, duration_s=10.0)
        times, speeds = cycle.sample(1.0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(10.0)
        assert np.all(speeds == 50.0)

    def test_sample_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            constant_cruise(50.0).sample(0.0)

    def test_iter_steps_matches_sample(self):
        cycle = ramp_cycle(0.0, 100.0, ramp_duration_s=10.0, hold_duration_s=0.1)
        listed = list(cycle.iter_steps(1.0))
        times, speeds = cycle.sample(1.0)
        assert len(listed) == len(times)
        assert listed[3][1] == pytest.approx(float(speeds[3]))

    def test_mean_speed_of_constant_cycle(self):
        assert constant_cruise(70.0).mean_speed_kmh() == pytest.approx(70.0)

    def test_max_speed(self):
        assert nedc_like_cycle().max_speed_kmh() == pytest.approx(120.0)

    def test_distance_of_constant_cruise(self):
        cycle = constant_cruise(36.0, duration_s=100.0)  # 10 m/s for 100 s
        assert cycle.distance_m() == pytest.approx(1000.0, rel=0.01)

    def test_moving_fraction_of_constant_cruise_is_one(self):
        assert constant_cruise(50.0).moving_fraction() == pytest.approx(1.0)

    def test_moving_fraction_of_urban_cycle_below_one(self):
        assert urban_cycle().moving_fraction() < 1.0

    def test_concatenation_adds_durations(self):
        a = constant_cruise(30.0, duration_s=10.0)
        b = constant_cruise(60.0, duration_s=20.0)
        joined = a.concatenated(b)
        assert joined.duration_s == pytest.approx(30.0)
        assert joined.speed_at(25.0) == pytest.approx(60.0)

    def test_repetition(self):
        cycle = constant_cruise(40.0, duration_s=5.0).repeated(3)
        assert cycle.duration_s == pytest.approx(15.0)

    def test_repetition_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            constant_cruise(40.0).repeated(0)


class TestCycleBuilders:
    def test_constant_cruise_rejects_negative_speed(self):
        with pytest.raises(ConfigurationError):
            constant_cruise(-10.0)

    @pytest.mark.parametrize(
        "speed_kmh, duration_s", [(float("nan"), 600.0), (60.0, float("inf"))]
    )
    def test_constant_cruise_rejects_non_finite_inputs(self, speed_kmh, duration_s):
        with pytest.raises(ConfigurationError, match="must be finite"):
            constant_cruise(speed_kmh, duration_s=duration_s)

    def test_urban_cycle_starts_and_ends_stopped(self):
        cycle = urban_cycle()
        assert cycle.speed_at(0.0) == 0.0
        assert cycle.speed_at(cycle.duration_s) == 0.0

    def test_urban_cycle_repetition_scales_duration(self):
        assert urban_cycle(repetitions=2).duration_s == pytest.approx(
            2.0 * urban_cycle(repetitions=1).duration_s
        )

    def test_urban_cycle_rejects_zero_repetitions(self):
        with pytest.raises(ConfigurationError):
            urban_cycle(repetitions=0)

    def test_highway_cycle_reaches_cruise_speed(self):
        cycle = highway_cycle(cruise_kmh=110.0)
        assert cycle.max_speed_kmh() == pytest.approx(125.0)

    def test_nedc_like_cycle_has_urban_and_extra_urban_parts(self):
        cycle = nedc_like_cycle()
        assert cycle.duration_s > 900.0
        assert cycle.max_speed_kmh() == pytest.approx(120.0)
        # Urban part dominates the early portion: low mean speed there.
        early = np.mean([cycle.speed_at(t) for t in range(0, 300, 5)])
        late = np.mean(
            [cycle.speed_at(t) for t in range(int(cycle.duration_s) - 300, int(cycle.duration_s), 5)]
        )
        assert late > early

    def test_ramp_cycle_monotonic_during_ramp(self):
        cycle = ramp_cycle(20.0, 120.0, ramp_duration_s=100.0, hold_duration_s=10.0)
        speeds = [cycle.speed_at(t) for t in range(0, 101, 10)]
        assert speeds == sorted(speeds)


class TestCycleFromSamples:
    def test_reconstructs_sampled_points(self):
        times = [0.0, 10.0, 20.0]
        speeds = [0.0, 50.0, 20.0]
        cycle = cycle_from_samples(times, speeds)
        assert cycle.speed_at(10.0) == pytest.approx(50.0)
        assert cycle.speed_at(15.0) == pytest.approx(35.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            cycle_from_samples([0.0, 1.0], [10.0])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ConfigurationError):
            cycle_from_samples([0.0, 1.0, 1.0], [0.0, 10.0, 20.0])

    def test_single_point_rejected(self):
        with pytest.raises(ConfigurationError):
            cycle_from_samples([0.0], [10.0])
