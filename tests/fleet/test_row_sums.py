"""Row sums of a ``(V, n)`` matrix are bitwise each row's own 1-D ``.sum()``.

The fleet finishes a walk's certified vehicles as rows of one matrix and
takes their harvest totals as row sums, where a naive ``emulate()`` sums
each vehicle's 1-D array.  Floating-point addition is not associative, so
this identity is not IEEE 754's: it holds because numpy reduces each row
of a float64 matrix along its last axis with the same pairwise summation
it applies to a 1-D array.  This test pins it on the installed numpy, for
C-contiguous matrices (what the fleet's scratch buffer gives) and for row
slices of a wider buffer, at lengths across the pairwise algorithm's
block edges (8-way unrolling, 128-element blocks) and numpy's 8192-element
buffer, up to ~10,000.
"""

from __future__ import annotations

import numpy as np
import pytest

#: Powers of two and a few multiples of the 128-element pairwise block.
EDGES = [2**power for power in range(8, 14)] + [128 * k for k in (3, 5, 7, 13, 63, 65)]
#: Every length to 300, then both sides of each edge, up to 10,001.
LENGTHS = sorted(
    set(range(1, 301))
    | {edge + offset for edge in EDGES for offset in (-2, -1, 0, 1, 2)}
    | {1000, 4097, 6000, 9999, 10_000, 10_001}
)
ROWS = (1, 2, 5, 21, 64)


def _values(rng: np.random.Generator, rows: int, count: int) -> np.ndarray:
    """Values whose sum depends on the order of addition: mixed signs and magnitudes."""
    return rng.standard_normal((rows, count)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, count))


def _bits(values) -> list[str]:
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("layout", ["contiguous", "scratch", "row-slice"])
def test_row_sums_are_each_rows_one_dimensional_sum(layout):
    rng = np.random.default_rng(20261020)
    checked = 0
    for count in LENGTHS:
        rows = ROWS[count % len(ROWS)]
        values = _values(rng, rows, count)
        if layout == "scratch":
            # A flat buffer reshaped, as the fleet's scratch is.
            buffer = np.empty(2 * rows * count + 3)
            matrix = buffer[rows * count : 2 * rows * count].reshape(rows, count)
            matrix[...] = values
        elif layout == "row-slice":
            buffer = np.empty((rows, count + 17))
            matrix = buffer[:, 5 : 5 + count]
            matrix[...] = values
        else:
            matrix = np.ascontiguousarray(values)
        expected = [np.ascontiguousarray(row).sum() for row in values]
        assert _bits(matrix.sum(axis=1)) == _bits(expected), (layout, rows, count)
        checked += 1
    assert checked == len(LENGTHS)


def test_the_values_tell_summation_orders_apart():
    # A sequential sum of these rows differs from the pairwise one in the
    # last bits, so the identity above is not vacuous.
    rng = np.random.default_rng(7)
    row = _values(rng, 1, 4096)[0]
    assert float(np.add.accumulate(row)[-1]).hex() != float(row.sum()).hex()
