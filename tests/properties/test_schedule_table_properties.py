"""Property tests: ``SensorNode.schedule_table`` ≡ ``schedule_for_pattern``.

The table computes every wheel round's timing as arrays.  Each point must
equal the scalar reference bit for bit — period, every busy-phase duration,
the busy sum, the resting remainder — and be infeasible exactly where the
scalar build raises, with the same error.  The nodes cover every registered
architecture, slower MCU clocks (so the feasibility limit falls inside the
speed range), on-node compression, a node without an accelerometer and a
custom contact-patch guard factor; the speeds cover the range and the
``np.nextafter`` neighbours of each pattern's feasibility boundary.

``census_durations`` reads the phase census off such a table, so at every
feasible point its durations equal ``phase_census`` bit for bit, and the
census layout is the same at every speed.
"""

from __future__ import annotations

import itertools
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.mcu import McuConfig
from repro.errors import ConfigurationError, ScheduleError
from repro.scenario.registry import ARCHITECTURES
from repro.timing.schedule import resting_durations
from repro.vehicle.contact_patch import ContactPatchModel

PATTERNS = list(itertools.product([False, True], repeat=3))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _scalar(node, speed: float, pattern):
    try:
        return node.schedule_for_pattern(speed, *pattern), None
    except (ScheduleError, ConfigurationError) as error:
        return None, error


def _boundary(node, pattern, low: float = 1.0, high: float = 2000.0):
    """Adjacent floats ``(fits, fails)`` of the scalar path, or ``None``."""
    if _scalar(node, high, pattern)[0] is not None or _scalar(node, low, pattern)[0] is None:
        return None
    while np.nextafter(low, np.inf) < high:
        middle = 0.5 * (low + high)
        if middle in (low, high):
            break
        if _scalar(node, middle, pattern)[0] is not None:
            low = middle
        else:
            high = middle
    return low, high


def assert_table_matches_scalar(node, speeds, patterns) -> None:
    table = node.schedule_table(speeds, patterns)
    assert len(table) == len(speeds)
    columns = {}
    for structure, indices, durations in table.groups:
        assert np.all(np.diff(indices) > 0)
        for column, index in enumerate(indices.tolist()):
            assert index not in columns
            columns[index] = (structure, durations[:, column].tolist())
    assert sorted(columns) == list(range(len(speeds)))
    for i, (speed, pattern) in enumerate(zip(speeds, patterns)):
        schedule, error = _scalar(node, float(speed), tuple(pattern))
        if schedule is None:
            assert not table.feasible[i], (speed, pattern)
            with pytest.raises(type(error), match=re.escape(str(error))):
                table.raise_for(i)
            continue
        assert table.feasible[i], (speed, pattern)
        structure, durations = columns[i]
        assert _bits(float(table.period_s[i])) == _bits(schedule.period_s)
        assert _bits(float(table.busy_s[i])) == _bits(schedule.busy_duration_s)
        assert _bits(float(table.rest_s[i])) == _bits(schedule.resting_duration_s)
        assert [_bits(d) for d in durations] == [
            _bits(phase.duration_s) for phase in schedule.phases
        ]
        assert structure.names == tuple(phase.name for phase in schedule.phases)
        assert [dict(modes) for modes in structure.block_modes] == [
            dict(phase.block_modes) for phase in schedule.phases
        ]
        assert [dict(a) for a in structure.activities] == [
            dict(phase.activities) for phase in schedule.phases
        ]
        assert structure.resting_phase_name == schedule.resting_phase_name


@st.composite
def nodes(draw):
    node = ARCHITECTURES.create(draw(st.sampled_from(ARCHITECTURES.names())))
    clock = draw(st.sampled_from([None, 0.6e6, 1.0e6, 2.0e6, 11.5e6]))
    compression = draw(st.sampled_from([None, (0.5, 1.0), (0.25, 3.7)]))
    if clock is not None or compression is not None:
        mcu = node.mcu
        node = replace(
            node,
            mcu=McuConfig(
                clock_hz=clock or mcu.clock_hz,
                cycles_per_sample=draw(st.sampled_from([mcu.cycles_per_sample, 1000])),
                base_cycles_per_revolution=mcu.base_cycles_per_revolution,
                compression_ratio=compression[0] if compression else mcu.compression_ratio,
                compression_cycles_per_bit=(
                    compression[1] if compression else mcu.compression_cycles_per_bit
                ),
            ),
        )
    if draw(st.booleans()):
        node = replace(node, sensors=replace(node.sensors, use_accelerometer=False))
    guard = draw(st.sampled_from([None, 1.0, 2.35]))
    if guard is not None:
        node = replace(
            node, contact_patch=ContactPatchModel(wheel=node.wheel, guard_factor=guard)
        )
    return node


@settings(max_examples=40, deadline=None)
@given(
    node=nodes(),
    speeds=st.lists(
        st.floats(min_value=0.05, max_value=2000.0, allow_nan=False), min_size=1, max_size=24
    ),
    data=st.data(),
)
def test_table_equals_scalar_schedules(node, speeds, data):
    patterns = [data.draw(st.sampled_from(PATTERNS)) for _ in speeds]
    for pattern in PATTERNS:
        edge = _boundary(node, pattern)
        if edge is not None:
            fits, fails = edge
            for speed in (np.nextafter(fits, 0.0), fits, fails, np.nextafter(fails, np.inf)):
                speeds.append(float(speed))
                patterns.append(pattern)
    assert_table_matches_scalar(node, np.array(speeds), np.array(patterns, dtype=bool))


@st.composite
def census_nodes(draw):
    node = draw(nodes())
    if draw(st.booleans()):
        node = replace(node, sensors=replace(node.sensors, slow_refresh_interval_revs=1))
    if draw(st.booleans()):
        node = replace(node, memory=replace(node.memory, use_nvm=False))
    return node


def _layout(census):
    return [
        (phase.name, _bits(weight), dict(phase.block_modes), dict(phase.activities))
        for phase, weight in census
    ]


@settings(max_examples=40, deadline=None)
@given(
    node=census_nodes(),
    speeds=st.lists(
        st.floats(min_value=0.05, max_value=2000.0, allow_nan=False), min_size=1, max_size=12
    ),
    pattern=st.sampled_from(PATTERNS),
)
def test_census_durations_equal_the_scalar_census(node, speeds, pattern):
    """The census layout is speed-independent; its durations are the table's."""
    table = node.schedule_table(speeds, [pattern] * len(speeds))
    census, durations = node.census_durations(table)
    assert durations.shape == (len(census), len(speeds))
    for i, speed in enumerate(speeds):
        scalar = node.phase_census(speed)
        assert _layout(scalar) == _layout(census)
        if table.feasible[i]:
            assert [_bits(d) for d in durations[:, i].tolist()] == [
                _bits(phase.duration_s) for phase, _weight in scalar
            ]


def test_every_pattern_at_every_architecture_on_a_grid():
    speeds = np.repeat(np.linspace(0.5, 600.0, 150), len(PATTERNS))
    patterns = np.array(PATTERNS * 150, dtype=bool)
    for name in ARCHITECTURES.names():
        node = ARCHITECTURES.create(name)
        slow = replace(node, mcu=replace(node.mcu, clock_hz=1.0e6))
        for candidate in (node, slow):
            assert_table_matches_scalar(candidate, speeds, patterns)


def test_non_positive_and_extreme_speeds_raise_like_the_scalar_path():
    node = ARCHITECTURES.create("baseline")
    speeds = np.array([0.0, -3.0, 1e-300, 1e-9, np.inf, 60.0])
    patterns = np.array([PATTERNS[5]] * len(speeds), dtype=bool)
    assert_table_matches_scalar(node, speeds, patterns)


@pytest.mark.parametrize(
    "patterns", [np.empty((0, 3), dtype=bool), []], ids=["array", "list"]
)
def test_empty_table(patterns):
    # A cycle with no wheel rounds hands over plain empty lists.
    table = ARCHITECTURES.create("baseline").schedule_table([], patterns)
    assert len(table) == 0 and table.groups == ()
    table.require_feasible()


def test_pattern_shape_is_validated():
    node = ARCHITECTURES.create("baseline")
    with pytest.raises(ConfigurationError, match="pattern per speed"):
        node.schedule_table([60.0, 70.0], [(True, False, False)])


def test_resting_remainder_has_python_max_semantics():
    """``max(0.0, -0.0)`` is ``0.0``; ``np.maximum(0.0, -0.0)`` is ``-0.0``."""
    assert np.signbit(np.maximum(0.0, -0.0))
    period = np.array([-0.0, 0.0, 1.0, 0.5, np.nan, 0.25])
    busy = np.array([0.0, 0.0, 0.25, 1.0, 0.0, 0.25])
    rest = resting_durations(period, busy)
    for p, b, r in zip(period.tolist(), busy.tolist(), rest.tolist()):
        assert _bits(r) == _bits(max(0.0, p - b))
    assert not np.signbit(rest[0])


def test_equal_structures_share_one_group():
    """Patterns whose phases are identical form one group, as one signature."""
    node = ARCHITECTURES.create("baseline")
    quiet = replace(
        node,
        sensors=replace(node.sensors, use_pressure=False, use_temperature=False),
    )
    # Without slow sensors the refresh flag changes nothing.
    table = quiet.schedule_table(
        [60.0, 60.0, 90.0], [(True, False, False), (True, True, False), (True, True, False)]
    )
    assert len(table.groups) == 1
    assert table.groups[0][1].tolist() == [0, 1, 2]
