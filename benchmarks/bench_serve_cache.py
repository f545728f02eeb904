"""Warm store-hit requests vs a cold run through the serving layer.

The serving layer's claim: a repeated request never recomputes.  The
content-addressed :class:`~repro.serve.ResultStore` keys each job on the
sha256 of its canonical spec document (plus seed and result-shaping
runner parameters), so re-POSTing the same study document is answered
from stored bytes — the job is born ``done`` with ``store_hit`` set and
never touches the evaluator cache or the engine.

This benchmark runs a real :class:`~repro.serve.ServeServer` on an
ephemeral port, times the full HTTP round trip (submit + wait + fetch
result bytes) cold and warm through the in-repo client, and *asserts*:

* >= 5x wall-time speedup of the warm (store-hit) request over the cold
  request that actually computed the Monte-Carlo study;
* byte-identical response bodies from both paths (the store serves the
  exact bytes the cold run produced — never a re-serialization).
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit_result, emit_timing
from repro.serve import JobManager, ServeClient, ServeServer

#: Local headroom is far above the 5x acceptance bar (the warm path is a
#: dictionary lookup plus one HTTP exchange); shared CI runners are noisy,
#: so workflows may lower the enforced floor via the environment while the
#: measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("SERVE_CACHE_FLOOR", "5.0"))

#: A Monte-Carlo study big enough that the cold run does real work (the
#: warm path's cost is independent of the workload, so the measured
#: speedup scales with this; 256 samples x 3 grid points take 0.04-0.05 s
#: cold on a 2-CPU x86 box, 14-16x the warm request).
STUDY_DOC = {
    "scenario": {"name": "serve-bench", "architecture": "baseline"},
    "axes": {"temperature": [-10.0, 25.0, 60.0]},
    "analysis": "montecarlo",
    "montecarlo": {"samples": 256, "seed": 2011},
}


def _request(client: ServeClient) -> tuple[float, bytes, dict]:
    """One full round trip: submit, poll to completion, fetch the bytes."""
    start = time.perf_counter()
    job = client.submit_study(STUDY_DOC)
    final = client.wait(job["id"])
    payload = client.result_bytes(job["id"])
    return time.perf_counter() - start, payload, final


def test_warm_store_hit_beats_cold_run():
    """A re-POSTed study is >= 5x faster than the run that computed it.

    Both requests travel the same path — HTTP submit, job-status polling,
    result fetch — so the comparison isolates exactly what the store
    removes: the Monte-Carlo study itself.
    """
    server = ServeServer(JobManager(), port=0).start()
    try:
        client = ServeClient(port=server.port)
        cold_s, cold_payload, cold_job = _request(client)
        warm_s, warm_payload, warm_job = _request(client)
    finally:
        server.stop()
    speedup = cold_s / warm_s

    # Correctness before speed: the warm request must be a store hit that
    # serves the cold run's bytes verbatim.
    assert not cold_job["store_hit"]
    assert warm_job["store_hit"], "second request did not hit the result store"
    assert warm_payload == cold_payload, "store-hit bytes diverged from the cold run"

    emit_result(
        "serve_cache",
        [
            {
                "samples": STUDY_DOC["montecarlo"]["samples"],
                "grid_points": len(STUDY_DOC["axes"]["temperature"]),
                "result_bytes": len(cold_payload),
                "cold_s": cold_s,
                "warm_s": warm_s,
                "speedup_x": speedup,
            }
        ],
        title="Serving layer: warm store-hit request vs cold run",
        workers=1,
        backend="thread",
    )
    emit_timing(
        "serve_cache",
        wall_times_s={"cold_request": cold_s, "warm_request": warm_s},
        speedups={"warm_vs_cold": speedup},
        extra={
            "samples": STUDY_DOC["montecarlo"]["samples"],
            "grid_points": len(STUDY_DOC["axes"]["temperature"]),
            "result_bytes": len(cold_payload),
            "required_speedup": REQUIRED_SPEEDUP,
        },
        workers=1,
        backend="thread",
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"warm store-hit request is only {speedup:.1f}x faster "
        f"(cold {cold_s:.3f} s vs warm {warm_s:.3f} s); the acceptance "
        f"bar is {REQUIRED_SPEEDUP:.0f}x"
    )
