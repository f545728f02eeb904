"""Property-based tests (hypothesis) of the chunked engine's contract.

Whatever the backend, a run must look like a plain sequential loop over the
items: the same sink calls in input order, the same failure records, the
same retry count and, with no retry budget, the same first exception.  The
model below is that loop, written out with no engine machinery; each item
fails its first ``k`` attempts (``k`` drawn per item) and succeeds after.
"""

from __future__ import annotations

import itertools
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.engine import ChunkedEngine

#: Attempts made so far per (run token, item index).  Forked process
#: workers inherit it at pool start and count in their own copy; every run
#: uses a fresh token, so no count leaks between runs.
_ATTEMPTS: dict[tuple[int, int], int] = {}
_ATTEMPTS_LOCK = threading.Lock()
_TOKENS = itertools.count()


def _flaky_item(payload):
    """Module-level (picklable) kernel: fail the first ``fail_first`` attempts."""
    token, index, fail_first = payload
    with _ATTEMPTS_LOCK:
        attempt = _ATTEMPTS.get((token, index), 0) + 1
        _ATTEMPTS[(token, index)] = attempt
    if attempt <= fail_first:
        raise ValueError(f"item {index} failed attempt {attempt}")
    return index * index


def _model(schedule: list[int], retries: int) -> dict[str, object]:
    """The sequential loop every engine run must match."""
    sunk: list[tuple[int, int]] = []
    failures: list[dict[str, object]] = []
    spent = 0
    for index, fail_first in enumerate(schedule):
        if fail_first <= retries:
            sunk.append((index, index * index))
            spent += fail_first
        elif retries == 0:
            return {"raised": f"item {index} failed attempt 1", "sunk": sunk}
        else:
            attempts = retries + 1
            failures.append(
                {
                    "index": index,
                    "attempts": attempts,
                    "kind": "exception",
                    "error": f"ValueError: item {index} failed attempt {attempts}",
                }
            )
            spent += retries
    return {
        "sunk": sunk,
        "failures": failures,
        "retries": spent,
        "items": len(schedule),
        "timings": len(schedule),
    }


def _run(schedule: list[int], retries: int, workers: int, backend: str) -> dict[str, object]:
    """One engine run, observed the way the model describes it."""
    token = next(_TOKENS)
    items = [(token, index, fail_first) for index, fail_first in enumerate(schedule)]
    sunk: list[tuple[int, int]] = []
    engine = ChunkedEngine(workers=workers, backend=backend, retries=retries)
    try:
        report = engine.run(
            items,
            _flaky_item,
            lambda index, result: sunk.append((index, result)),
            process_worker=_flaky_item,
            process_payload=lambda item: item,
        )
    except ValueError as error:
        return {"raised": str(error), "sunk": sunk}
    finally:
        with _ATTEMPTS_LOCK:
            _ATTEMPTS.clear()
    return {
        "sunk": sunk,
        "failures": [failure.to_dict() for failure in report.failures],
        "retries": report.retries,
        "items": report.items,
        "timings": len(report.item_wall_times_s),
    }


schedules = st.lists(st.integers(0, 3), max_size=40)
budgets = st.integers(0, 2)


class TestEngineMatchesTheSequentialModel:
    @given(schedule=schedules, retries=budgets)
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_sequential(self, schedule, retries):
        assert _run(schedule, retries, 1, "thread") == _model(schedule, retries)

    @given(schedule=schedules, retries=budgets, workers=st.integers(2, 4))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_threads(self, schedule, retries, workers):
        assert _run(schedule, retries, workers, "thread") == _model(schedule, retries)

    # Two or more items, so every example starts a pool.
    @given(schedule=st.lists(st.integers(0, 3), min_size=2, max_size=40), retries=budgets)
    @settings(derandomize=True, max_examples=8, deadline=None)
    def test_processes(self, schedule, retries):
        assert _run(schedule, retries, 2, "process") == _model(schedule, retries)
