"""Property tests for the cycle plan's walk and per-round keys.

The oracle below is the per-unit loop ``iter_wheel_rounds`` ran before the
walk moved into ``wheel_round_arrays``, kept verbatim: the arrays must equal
it field for field, bitwise, on arbitrary cycles.  The vectorized phase
patterns and speed bins must equal their scalar forms elementwise.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blocks import baseline_node
from repro.core import quantize
from repro.errors import ConfigurationError
from repro.scenario.registry import DRIVE_CYCLES
from repro.timing import wheel_round
from repro.timing.wheel_round import (
    STANDSTILL_THRESHOLD_KMH,
    IdleInterval,
    WheelRound,
    count_revolutions,
    iter_wheel_rounds,
    wheel_round_arrays,
)
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase
from repro.vehicle.tyre import Tyre
from repro.vehicle.wheel import Wheel


def oracle_wheel_rounds(
    cycle,
    wheel,
    idle_step_s=1.0,
    standstill_threshold_kmh=STANDSTILL_THRESHOLD_KMH,
    max_units=None,
):
    """The former ``iter_wheel_rounds`` body, unchanged."""
    if idle_step_s <= 0.0:
        raise ConfigurationError("idle step must be positive")
    if standstill_threshold_kmh <= 0.0:
        raise ConfigurationError("standstill threshold must be positive")

    time_s = 0.0
    revolution_index = 0
    emitted = 0
    duration = cycle.duration_s
    while time_s < duration:
        if max_units is not None and emitted >= max_units:
            return
        speed = cycle.speed_at(time_s)
        if speed < standstill_threshold_kmh:
            step = min(idle_step_s, duration - time_s)
            if step <= 0.0:
                return
            yield IdleInterval(start_s=time_s, duration_s=step)
            time_s += step
        else:
            period = wheel.revolution_period_s(speed)
            if time_s + period > duration:
                # Truncate the final partial revolution into an idle-style
                # remainder so the accounted time exactly matches the cycle.
                remainder = duration - time_s
                if remainder > 1e-9:
                    yield WheelRound(
                        index=revolution_index,
                        start_s=time_s,
                        period_s=remainder,
                        speed_kmh=speed,
                    )
                return
            yield WheelRound(
                index=revolution_index,
                start_s=time_s,
                period_s=period,
                speed_kmh=speed,
            )
            revolution_index += 1
            time_s += period
        emitted += 1


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


speed_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.5),  # around the standstill threshold
    st.floats(min_value=0.0, max_value=250.0),
)
ramps = st.builds(
    DriveCyclePhase,
    duration_s=st.floats(min_value=0.05, max_value=40.0),
    start_kmh=speed_values,
    end_kmh=speed_values,
)
# Constant-speed phases: long runs of equal periods, as in real cycles.
cruises = st.builds(
    lambda duration_s, speed: DriveCyclePhase(duration_s, speed, speed),
    st.floats(min_value=0.05, max_value=40.0),
    speed_values,
)
phases = st.one_of(ramps, cruises)
cycles = st.lists(phases, min_size=1, max_size=6).map(lambda p: DriveCycle(phases=p))
wheels = st.builds(
    lambda width, aspect, rim: Wheel(Tyre(width_m=width, aspect_ratio=aspect, rim_diameter_m=rim)),
    st.floats(min_value=0.135, max_value=0.335),
    st.floats(min_value=0.25, max_value=0.80),
    st.floats(min_value=0.30, max_value=0.60),
)
idle_steps = st.floats(min_value=0.05, max_value=3.0)
max_units = st.one_of(st.none(), st.integers(min_value=0, max_value=400))


def _assert_walks_equal(cycle, wheel, **options):
    arrays = wheel_round_arrays(cycle, wheel, **options)
    expected = list(oracle_wheel_rounds(cycle, wheel, **options))
    assert len(arrays.is_round) == len(expected)
    for i, unit in enumerate(expected):
        moving = isinstance(unit, WheelRound)
        length = unit.period_s if moving else unit.duration_s
        assert bool(arrays.is_round[i]) is moving
        assert _bits(arrays.starts[i]) == _bits(unit.start_s)
        assert _bits(arrays.durations[i]) == _bits(length)
        assert _bits(arrays.ends[i]) == _bits(unit.end_s)
        assert _bits(arrays.speeds[i]) == _bits(unit.speed_kmh if moving else 0.0)
        assert arrays.indices[i] == (unit.index if moving else -1)
    assert list(iter_wheel_rounds(cycle, wheel, **options)) == expected


class TestWheelRoundArrays:
    @given(cycle=cycles, wheel=wheels, idle_step_s=idle_steps, cap=max_units)
    @settings(max_examples=200, deadline=None)
    def test_arrays_equal_the_oracle_bitwise(self, cycle, wheel, idle_step_s, cap):
        _assert_walks_equal(cycle, wheel, idle_step_s=idle_step_s, max_units=cap)

    @given(
        cruise=st.floats(min_value=5.0, max_value=250.0),
        ramp_to=st.floats(min_value=0.0, max_value=0.999),
        stop_s=st.floats(min_value=0.1, max_value=5.0),
        idle_step_s=idle_steps,
    )
    @settings(max_examples=75, deadline=None)
    def test_stops_and_sub_threshold_ramps(self, cruise, ramp_to, stop_s, idle_step_s):
        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(10.0, cruise, ramp_to),
                DriveCyclePhase(stop_s, 0.0, 0.0),
                DriveCyclePhase(3.0, ramp_to, 0.9),
                DriveCyclePhase(8.0, 0.0, cruise),
            ]
        )
        _assert_walks_equal(cycle, Wheel(), idle_step_s=idle_step_s)

    @given(
        speed=st.floats(min_value=5.0, max_value=250.0),
        revolutions=st.integers(min_value=1, max_value=50),
        offset=st.floats(min_value=-3e-9, max_value=3e-9),
        threshold=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_final_remainder_near_the_one_nanosecond_rule(
        self, speed, revolutions, offset, threshold
    ):
        wheel = Wheel()
        duration = revolutions * wheel.revolution_period_s(speed) + offset
        assume(duration > 0.0)
        cycle = DriveCycle(phases=[DriveCyclePhase(duration, speed, speed)])
        _assert_walks_equal(cycle, wheel, standstill_threshold_kmh=threshold)

    def test_rounds_landing_exactly_on_phase_boundaries(self):
        """Exact binary periods put round starts on the phase ends themselves."""

        class ExactWheel:
            """A 5 m circumference: 0.5 s rounds at 36 km/h, 0.25 s at 72 km/h."""

            class tyre:
                rolling_circumference_m = 5.0

            def revolution_period_s(self, speed_kmh):
                return 5.0 / (speed_kmh / 3.6)

        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(2.0, 36.0, 36.0),
                DriveCyclePhase(1.0, 72.0, 72.0),
                DriveCyclePhase(1.5, 36.0, 36.0),
                DriveCyclePhase(1.0, 0.0, 0.0),
                DriveCyclePhase(1.0, 72.0, 72.0),
            ]
        )
        for cap in (None, 3, 4, 7):
            _assert_walks_equal(cycle, ExactWheel(), max_units=cap)
        speeds = wheel_round_arrays(cycle, ExactWheel()).speeds
        assert speeds[4] == 36.0  # t = 2.0 s still belongs to the first phase

    @given(cycle=cycles, wheel=wheels)
    @settings(max_examples=30, deadline=None)
    def test_count_revolutions_counts_the_arrays(self, cycle, wheel):
        expected = sum(isinstance(u, WheelRound) for u in oracle_wheel_rounds(cycle, wheel))
        assert count_revolutions(cycle, wheel) == expected


def _exact_chain(cycle):
    """Whether the walk takes the exact ``t - S_k`` route on ``cycle``."""
    unit = math.ulp(cycle.duration_s)
    return all(math.fmod(phase.duration_s, unit) == 0.0 for phase in cycle.phases)


@contextmanager
def _small_windows(size, slack):
    """Constant-speed windows of at most ``size`` units, ``slack`` past the estimate."""
    with (
        mock.patch.object(wheel_round, "_MAX_WINDOW", size),
        mock.patch.object(wheel_round, "_WINDOW_SLACK", slack),
    ):
        yield


class _ExactWheel:
    """A 5 m circumference: 0.5 s rounds at 36 km/h, 0.25 s at 72 km/h."""

    class tyre:
        rolling_circumference_m = 5.0

    def revolution_period_s(self, speed_kmh):
        return 5.0 / (speed_kmh / 3.6)


# Integer and dyadic phase lengths: multiples of ulp(duration), so the walk
# takes the exact ``t - S_k`` route instead of the subtraction chain.
exact_lengths = st.one_of(
    st.integers(min_value=1, max_value=40).map(float),
    st.integers(min_value=1, max_value=40 * 64).map(lambda n: n / 64),
)
exact_phases = st.builds(
    lambda duration_s, start, end, constant: DriveCyclePhase(
        duration_s, start, start if constant else end
    ),
    exact_lengths,
    speed_values,
    speed_values,
    st.booleans(),
)
exact_cycles = st.lists(exact_phases, min_size=1, max_size=8).map(
    lambda p: DriveCycle(phases=p)
)
window_sizes = st.integers(min_value=1, max_value=4)
window_slacks = st.integers(min_value=0, max_value=4)


class TestWalkRoutes:
    @given(cycle=exact_cycles, wheel=wheels, idle_step_s=idle_steps, cap=max_units)
    @settings(max_examples=150, deadline=None)
    def test_exact_chain_route_equals_the_oracle(self, cycle, wheel, idle_step_s, cap):
        assert _exact_chain(cycle)
        _assert_walks_equal(cycle, wheel, idle_step_s=idle_step_s, max_units=cap)

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=6),
        speeds=st.lists(speed_values, min_size=6, max_size=6),
        bumped=st.integers(min_value=0, max_value=5),
        idle_step_s=idle_steps,
    )
    @settings(max_examples=100, deadline=None)
    def test_lengths_one_ulp_off_the_exact_route(self, lengths, speeds, bumped, idle_step_s):
        lengths = [float(length) for length in lengths]
        index = bumped % len(lengths)
        lengths[index] = math.nextafter(lengths[index], math.inf)
        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(length, speed, speeds[(i + 1) % 6] if i % 2 else speed)
                for i, (length, speed) in enumerate(zip(lengths, speeds))
            ]
        )
        assume(not _exact_chain(cycle))
        _assert_walks_equal(cycle, Wheel(), idle_step_s=idle_step_s)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("urban", {}),
            ("nedc", {}),
            ("highway", {}),
            ("highway", {"duration_s": 600.0}),
            ("constant", {"speed_kmh": 60.0}),
            ("ramp", {"start_kmh": 20.0, "end_kmh": 120.0}),
        ],
    )
    def test_registered_cycles_take_the_exact_route(self, name, params):
        cycle = DRIVE_CYCLES.create(name, **params)
        assert _exact_chain(cycle)
        _assert_walks_equal(cycle, Wheel())


class TestSmallWindows:
    """The walk with its window constants patched down to a few units."""

    @given(
        cycle=st.one_of(cycles, exact_cycles),
        wheel=wheels,
        idle_step_s=idle_steps,
        cap=max_units,
        size=window_sizes,
        slack=window_slacks,
    )
    @settings(max_examples=150, deadline=None)
    def test_arrays_equal_the_oracle_bitwise(self, cycle, wheel, idle_step_s, cap, size, slack):
        with _small_windows(size, slack):
            _assert_walks_equal(cycle, wheel, idle_step_s=idle_step_s, max_units=cap)

    @given(
        cruise=st.floats(min_value=5.0, max_value=250.0),
        ramp_to=st.floats(min_value=0.0, max_value=0.999),
        stop_s=st.floats(min_value=0.1, max_value=5.0),
        idle_step_s=idle_steps,
        size=window_sizes,
        slack=window_slacks,
    )
    @settings(max_examples=75, deadline=None)
    def test_stops_and_sub_threshold_ramps(self, cruise, ramp_to, stop_s, idle_step_s, size, slack):
        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(10.0, cruise, ramp_to),
                DriveCyclePhase(stop_s, 0.0, 0.0),
                DriveCyclePhase(3.0, ramp_to, 0.9),
                DriveCyclePhase(2.0, cruise, cruise),
                DriveCyclePhase(8.0, 0.0, cruise),
            ]
        )
        with _small_windows(size, slack):
            _assert_walks_equal(cycle, Wheel(), idle_step_s=idle_step_s)

    @given(
        speed=st.floats(min_value=5.0, max_value=250.0),
        revolutions=st.integers(min_value=1, max_value=50),
        offset=st.floats(min_value=-3e-9, max_value=3e-9),
        size=window_sizes,
        slack=window_slacks,
    )
    @settings(max_examples=100, deadline=None)
    def test_final_remainder_near_the_one_nanosecond_rule(
        self, speed, revolutions, offset, size, slack
    ):
        wheel = Wheel()
        duration = revolutions * wheel.revolution_period_s(speed) + offset
        assume(duration > 0.0)
        cycle = DriveCycle(phases=[DriveCyclePhase(duration, speed, speed)])
        with _small_windows(size, slack):
            _assert_walks_equal(cycle, wheel)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("slack", [0, 2])
    def test_rounds_landing_exactly_on_phase_boundaries(self, size, slack):
        cycle = DriveCycle(
            phases=[
                DriveCyclePhase(2.0, 36.0, 36.0),
                DriveCyclePhase(1.0, 72.0, 72.0),
                DriveCyclePhase(1.5, 36.0, 36.0),
                DriveCyclePhase(1.0, 0.0, 0.0),
                DriveCyclePhase(1.0, 72.0, 72.0),
            ]
        )
        assert _exact_chain(cycle)
        with _small_windows(size, slack):
            for cap in (None, 3, 4, 7):
                _assert_walks_equal(cycle, _ExactWheel(), max_units=cap)


class TestVectorizedKeys:
    @given(
        tx=st.integers(min_value=1, max_value=12),
        slow=st.integers(min_value=1, max_value=12),
        nvm=st.integers(min_value=1, max_value=12),
        use_nvm=st.booleans(),
        indices=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_phase_patterns_match_phase_pattern(self, tx, slow, nvm, use_nvm, indices):
        base = baseline_node()
        node = replace(
            base,
            radio=replace(base.radio, tx_interval_revs=tx),
            sensors=replace(base.sensors, slow_refresh_interval_revs=slow),
            memory=replace(base.memory, use_nvm=use_nvm, nvm_write_interval_revs=nvm),
        )
        indices = [0, *indices]
        patterns = node.phase_patterns(np.array(indices))
        assert patterns.shape == (len(indices), 3)
        for row, index in zip(patterns, indices):
            assert tuple(row.tolist()) == node.phase_pattern(index)

    @given(
        speeds=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=400.0),
                # Exact half-quantum ties: banker's rounding on both sides.
                st.integers(min_value=0, max_value=800).map(
                    lambda k: (k + 0.5) * quantize.SPEED_QUANTUM_KMH
                ),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_speed_bins_match_speed_bin(self, speeds):
        bins = quantize.speed_bins(np.array(speeds, dtype=float))
        assert bins.dtype == np.int64
        assert bins.tolist() == [quantize.speed_bin(speed) for speed in speeds]
