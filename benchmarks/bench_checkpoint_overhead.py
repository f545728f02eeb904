"""Checkpoint journaling overhead on a fleet run (and replay payoff).

Crash-safety must be close to free or nobody turns it on.  This benchmark
runs the 200-vehicle default fleet three ways:

* **plain** — no checkpoint directory;
* **journaled** — every chunk written as one self-certifying file (tmp
  file, fsync, hard link into place, directory fsync);
* **replayed** — a second run over the finished journal (zero kernels, pure
  deserialization), the resume-side payoff.

and *asserts* the journaled run stays within ``CHECKPOINT_OVERHEAD_MAX``
(default 10%) of the plain run, and that the replay is faster than
computing.  Byte-identity of journaled results is asserted by the test
suite (``tests/fleet/test_fleet_resume.py``); this file pins the cost.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from benchmarks.conftest import emit_result, emit_timing
from repro.fleet import FleetRunner, FleetSpec
from repro.scenario import ScenarioSpec

#: Maximum acceptable journaling overhead, as a fraction of the plain run.
#: On a 2-core Xeon the 200-vehicle run is only 40-70 ms, and the median of
#: nine local runs measured ~29% (about 0.5 ms JSON encoding and 0.7 ms of
#: write and fsyncs per chunk), so the default ceiling fails locally; shared
#: CI runners are noisier still, so workflows may relax the enforced ceiling
#: via the environment while the measured number is still reported.
OVERHEAD_CEILING = float(os.environ.get("CHECKPOINT_OVERHEAD_MAX", "0.10"))

VEHICLES = 200
CHUNK_VEHICLES = 25


def _bench_fleet() -> FleetSpec:
    base = ScenarioSpec(
        name="bench",
        drive_cycle={"name": "urban", "params": {"repetitions": 2}},
    )
    return FleetSpec.from_base(
        base, vehicles=VEHICLES, seed=11, chunk_vehicles=CHUNK_VEHICLES
    )


def test_checkpoint_overhead_is_bounded():
    """Journaling a fleet run costs <= 10% wall time; replay costs far less."""
    fleet = _bench_fleet()

    # Warm-up: pay one-time imports/compilations outside the timed runs.
    FleetRunner(fleet).run()

    start = time.perf_counter()
    plain = FleetRunner(fleet).run()
    plain_s = time.perf_counter() - start

    checkpoint_dir = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        start = time.perf_counter()
        journaled = FleetRunner(fleet, checkpoint=checkpoint_dir).run()
        journaled_s = time.perf_counter() - start

        start = time.perf_counter()
        replayed = FleetRunner(fleet, checkpoint=checkpoint_dir).run()
        replayed_s = time.perf_counter() - start

        journal_files = len(os.listdir(checkpoint_dir))
        journal_bytes = sum(
            os.path.getsize(os.path.join(checkpoint_dir, name))
            for name in os.listdir(checkpoint_dir)
        )
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)

    overhead = journaled_s / plain_s - 1.0
    emit_result(
        "checkpoint_overhead",
        [
            {
                "vehicles": VEHICLES,
                "chunk_vehicles": CHUNK_VEHICLES,
                "chunks": fleet.chunk_count(),
                "plain_s": plain_s,
                "journaled_s": journaled_s,
                "replayed_s": replayed_s,
                "overhead_pct": 100.0 * overhead,
                "journal_files": journal_files,
                "journal_kib": journal_bytes / 1024.0,
            }
        ],
        title="Checkpoint journaling: plain vs journaled vs full replay",
        workers=1,
        backend="thread",
    )
    emit_timing(
        "checkpoint_overhead",
        wall_times_s={
            "plain": plain_s,
            "journaled": journaled_s,
            "replayed": replayed_s,
        },
        speedups={"replay_vs_compute": plain_s / replayed_s if replayed_s > 0 else None},
        extra={
            "vehicles": VEHICLES,
            "chunk_vehicles": CHUNK_VEHICLES,
            "overhead_fraction": overhead,
            "overhead_ceiling": OVERHEAD_CEILING,
            "journal_kib": journal_bytes / 1024.0,
        },
        workers=1,
        backend="thread",
    )

    # The three paths must agree before their costs mean anything.
    digest = lambda result: json.dumps(  # noqa: E731 - local comparator
        {"summary": result.summary, "rows": result.vehicle_rows},
        sort_keys=True,
        allow_nan=True,
    )
    assert digest(journaled) == digest(plain)
    assert digest(replayed) == digest(plain)
    assert replayed.metadata["engine_backend"] == "resumed"

    assert overhead <= OVERHEAD_CEILING, (
        f"checkpoint journaling costs {100.0 * overhead:.1f}% "
        f"({journaled_s:.2f} s vs {plain_s:.2f} s plain for {VEHICLES} vehicles "
        f"in {fleet.chunk_count()} chunks); the ceiling is "
        f"{100.0 * OVERHEAD_CEILING:.0f}%"
    )
    assert replayed_s < plain_s, (
        f"replaying the journal ({replayed_s:.2f} s) should beat recomputing "
        f"({plain_s:.2f} s)"
    )
