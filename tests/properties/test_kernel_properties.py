"""Property tests for the separable schedule-energy kernel.

``EnergyEvaluator._schedule_energy_batch`` evaluates block power once per
distinct condition (supply, temperature, process factors, activity) and
accumulates phase durations per point.  Whatever the batch (repeated and
distinct conditions, signed zeros in temperature and activity, per-point
activities, mixed phase patterns) and whoever numbers its conditions (the
kernel by bit pattern, or a caller with unused conditions and indices in
any order), every point must be bitwise the width-1 evaluation of that
point alone.

The second database gives the active modes an activity exponent of -1, so
an activity of ``-0.0`` powers the block at ``-inf`` where ``0.0`` gives
``+inf``: merging the two conditions (numbering by float equality) shows
up as a flipped sign.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.blocks import baseline_node
from repro.conditions.batch import BatchConditions
from repro.core.evaluator import EnergyEvaluator
from repro.power import reference_power_database


def _inverse_activity_database():
    database = reference_power_database().copy(name="inverse-activity")
    for entry in list(database):
        if entry.mode == "active":
            dynamic = dataclasses.replace(entry.dynamic, activity_exponent=-1.0)
            database.add(dataclasses.replace(entry, dynamic=dynamic), overwrite=True)
    return database


NODE = baseline_node()
EVALUATORS = {
    "reference": EnergyEvaluator(NODE, reference_power_database()),
    "inverse-activity": EnergyEvaluator(NODE, _inverse_activity_database()),
}
PATTERNS = [(t, r, w) for t in (False, True) for r in (False, True) for w in (False, True)]
#: Each column's values come from a short list drawn per example, so rows
#: often agree on some columns and differ in others; zeros come signed.
TEMPERATURES = st.one_of(
    st.sampled_from([0.0, -0.0, 25.0, -40.0, 125.0]), st.floats(-40.0, 125.0)
)
ACTIVITIES = st.one_of(st.sampled_from([1.0, 0.0, -0.0, 0.5, 1.3]), st.floats(0.0, 2.0))
COLUMNS = (
    st.sampled_from([1.2, 1.0, 1.35]),
    TEMPERATURES,
    st.sampled_from([1.0, 0.9, 1.2]),
    st.sampled_from([1.0, 0.8, 1.5]),
    ACTIVITIES,
)


@st.composite
def condition_rows(draw, min_size, max_size):
    """Condition rows ``(supply, temperature, dynamic, leakage, activity)``."""
    values = [draw(st.lists(column, min_size=1, max_size=3)) for column in COLUMNS]
    count = draw(st.integers(min_size, max_size))
    return [tuple(draw(st.sampled_from(column)) for column in values) for _ in range(count)]


POINTS = st.tuples(st.floats(5.0, 120.0), st.sampled_from(PATTERNS))


def _conditions(rows) -> BatchConditions:
    supply, temperature, dynamic, leakage, activity = (
        np.array(column, dtype=float) for column in zip(*rows)
    )
    return BatchConditions(
        speed_kmh=np.zeros(len(rows)),
        temperature_c=temperature,
        supply_v=supply,
        dynamic_factor=dynamic,
        leakage_factor=leakage,
        activity=activity,
    )


def _width_one(evaluator, row, speed, pattern):
    table = NODE.schedule_table([speed], [pattern])
    energies, phases = evaluator._schedule_energy_batch(
        _conditions([row]), table, np.zeros(1, dtype=np.intp), True
    )
    return energies[0].hex(), [(name, d.hex(), p.hex()) for name, d, p in phases[0]]


def _hexed(energies, phase_lists):
    return [
        (energy.hex(), [(name, d.hex(), p.hex()) for name, d, p in phases])
        for energy, phases in zip(energies.tolist(), phase_lists)
    ]


@pytest.mark.filterwarnings("ignore:.*encountered in power:RuntimeWarning")
@pytest.mark.parametrize("database", sorted(EVALUATORS))
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pool=condition_rows(1, 6),
    points=st.lists(st.tuples(st.integers(0, 5), POINTS), min_size=1, max_size=24),
    unused=condition_rows(0, 3),
    order_seed=st.integers(0, 2**32 - 1),
)
@example(  # conditions that differ only in the sign of a zero
    pool=[(1.2, 0.0, 1.0, 1.0, 0.0), (1.2, -0.0, 1.0, 1.0, -0.0), (1.2, -0.0, 1.0, 1.0, 0.0)],
    points=[(k % 3, (50.0, PATTERNS[k])) for k in range(8)],
    unused=[],
    order_seed=0,
)
def test_every_point_is_its_width_one_evaluation(database, pool, points, unused, order_seed):
    evaluator = EVALUATORS[database]
    chosen = [(pool[k % len(pool)], speed, pattern) for k, (speed, pattern) in points]
    table = NODE.schedule_table(
        [speed for _row, speed, _p in chosen], [pattern for _r, _s, pattern in chosen]
    )
    expected = [_width_one(evaluator, row, speed, pattern) for row, speed, pattern in chosen]

    # The kernel numbers a per-point batch itself, by bit pattern.
    per_point = _conditions([row for row, _speed, _pattern in chosen])
    assert _hexed(*evaluator._schedule_energy_batch(per_point, table, None, True)) == expected
    energies = evaluator._schedule_energy_batch(per_point, table)[0]
    assert [energy.hex() for energy in energies.tolist()] == [e for e, _p in expected]

    # A caller's numbering: the pool plus unused conditions, in shuffled order.
    rows = pool + unused
    order = np.random.default_rng(order_seed).permutation(len(rows))
    position = np.argsort(order)
    condition_of = np.array([position[k % len(pool)] for k, _point in points], dtype=np.intp)
    numbered = _conditions([rows[i] for i in order])
    assert (
        _hexed(*evaluator._schedule_energy_batch(numbered, table, condition_of, True))
        == expected
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rows=condition_rows(1, 12))
def test_distinct_numbers_conditions_by_bit_pattern(rows):
    """Equal numbers exactly where all five condition columns agree bitwise."""
    batch = _conditions(rows)
    conditions, index = batch.distinct()
    bits = [tuple(np.array(row).view(np.int64).tolist()) for row in rows]
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (index[i] == index[j]) == (bits[i] == bits[j])
    assert len(conditions) == len(set(bits)) == index.max() + 1
    for column in ("supply_v", "temperature_c", "dynamic_factor", "leakage_factor", "activity"):
        assert (
            getattr(conditions, column)[index].tobytes() == getattr(batch, column).tobytes()
        )
