"""Time-major ``batched_scan`` vs a per-row ``reference_scan`` loop.

The fleet runner scans every fast-path vehicle of a chunk (64 by default)
in one :func:`~repro.scavenger.storage.batched_scan` call instead of one
:func:`~repro.scavenger.storage.reference_scan` per vehicle.  This
benchmark measures that replacement on 64 ledgers of ~900 steps — the
size of an urban x2 cycle — with mixed capacities, restart levels and
initial activity, and *asserts*:

* every output of every ledger (charge, activity, banked and drawn energy,
  attempted/withdrew flags, brown-out count, final charge) is bitwise
  equal to its own ``reference_scan``;
* the batched scan is at least ``LEDGER_SCAN_FLOOR`` times faster (local
  default 4x; ~7x measured on a 2-CPU x86 box).
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import emit_result, emit_timing
from repro.scavenger.storage import batched_scan, reference_scan

#: Local bar; shared CI runners are noisy, so workflows may lower the
#: enforced floor via the environment while the measured number is still
#: reported.
REQUIRED_SPEEDUP = float(os.environ.get("LEDGER_SCAN_FLOOR", "4.0"))

LEDGERS = 64
STEPS = 900
REPEATS = 3


def _ledgers(seed: int = 11):
    """Supercapacitor-like ledgers: sparse harvest, steady load, brown-outs."""
    rng = np.random.default_rng(seed)
    capacity = 0.25 * rng.uniform(0.9, 1.1, LEDGERS)
    stored = rng.uniform(0.0, 4e-4, (STEPS, LEDGERS)) * (rng.random((STEPS, LEDGERS)) < 0.6)
    load = rng.uniform(0.0, 3e-4, (STEPS, LEDGERS))
    return {
        "stored": stored,
        "required": load / 0.92,
        "load": load,
        "leak_amounts": 0.8e-6 * rng.uniform(0.05, 1.0, (STEPS, LEDGERS)),
        "charge": capacity * rng.uniform(0.0, 0.5, LEDGERS),
        "active": rng.random(LEDGERS) < 0.5,
        "capacity": capacity,
        "restart": capacity * rng.uniform(0.05, 0.2, LEDGERS),
    }


def _per_row(inputs) -> list[tuple]:
    return [
        reference_scan(
            np.ascontiguousarray(inputs["stored"][:, column]),
            np.ascontiguousarray(inputs["required"][:, column]),
            np.ascontiguousarray(inputs["load"][:, column]),
            np.ascontiguousarray(inputs["leak_amounts"][:, column]),
            float(inputs["charge"][column]),
            bool(inputs["active"][column]),
            float(inputs["capacity"][column]),
            float(inputs["restart"][column]),
        )
        for column in range(LEDGERS)
    ]


def _best_of(call) -> tuple[float, object]:
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = call()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_batched_scan_beats_per_row_reference_scan():
    inputs = _ledgers()
    per_row_s, references = _best_of(lambda: _per_row(inputs))
    batched_s, batched = _best_of(lambda: batched_scan(**inputs))
    speedup = per_row_s / batched_s

    # Correctness before speed: every column, every output, bit for bit.
    brownouts, final_charge = batched[6], batched[7]
    for column, reference in enumerate(references):
        for output, expected in zip(batched[:6], reference[:6]):
            assert np.ascontiguousarray(output[:, column]).tobytes() == expected.tobytes()
        assert int(brownouts[column]) == reference[6]
        assert final_charge[column].tobytes() == np.float64(reference[7]).tobytes()
    assert int(brownouts.sum()) > 0, "the workload should exercise brown-outs"

    emit_result(
        "ledger_scan",
        [
            {
                "ledgers": LEDGERS,
                "steps": STEPS,
                "per_row_s": per_row_s,
                "batched_s": batched_s,
                "speedup_x": speedup,
                "batched_us_per_step": batched_s / STEPS * 1e6,
                "brownout_events": int(brownouts.sum()),
            }
        ],
        title="Storage ledger: batched_scan vs per-row reference_scan",
    )
    emit_timing(
        "ledger_scan",
        wall_times_s={"per_row_reference_scan": per_row_s, "batched_scan": batched_s},
        speedups={"batched_vs_per_row": speedup},
        extra={"ledgers": LEDGERS, "steps": STEPS, "required_speedup": REQUIRED_SPEEDUP},
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched_scan is only {speedup:.1f}x faster than per-row reference_scan "
        f"({per_row_s * 1e3:.1f} ms vs {batched_s * 1e3:.1f} ms for {LEDGERS} x "
        f"{STEPS} steps); the bar is {REQUIRED_SPEEDUP:.1f}x"
    )
