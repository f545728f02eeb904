"""The serving layer: persistent state around the scenario/fleet engines.

One-shot CLI runs rebuild everything per invocation — evaluator, compiled
power table — and throw it all away on exit.  The serving layer keeps the
expensive state alive across requests:

:mod:`repro.serve.cache`
    A bounded, lock-protected LRU of built ``(node, database, evaluator)``
    component triples, keyed exactly like ``Study._evaluator_for``
    (:meth:`~repro.scenario.spec.ScenarioSpec.evaluator_group_key`).  Both
    :class:`~repro.scenario.study.Study` and
    :class:`~repro.fleet.runner.FleetRunner` accept it via their
    ``evaluator_cache`` parameter, so compiled tables survive across jobs.

:mod:`repro.serve.jobs`
    A :class:`~repro.serve.jobs.JobManager` that accepts scenario/fleet
    JSON documents, runs them through the existing chunked engine on
    background worker threads, and exposes job states
    (``queued``/``running``/``done``/``failed``) with live per-chunk
    progress derived from the engine's observer hooks.

:mod:`repro.serve.store` / :mod:`repro.serve.budget`
    A content-addressed result store: results are keyed by the sha256 of
    the canonical spec document plus the result-shaping runner parameters
    (the same digest discipline checkpoints and run packages use), so a
    repeated request returns the stored bytes verbatim — byte-identical to
    a fresh sequential run.  A persistent store directory may be shared by
    N replica processes (cross-process advisory-locked index) and bounded
    by a :class:`~repro.serve.budget.StoreBudget` with LRU eviction.

:mod:`repro.serve.api` / :mod:`repro.serve.client`
    A stdlib-only HTTP front door (``asyncio`` + hand-rolled HTTP/1.1) and
    the matching replica-aware blocking client (multi-endpoint failover,
    bounded retries with exponential backoff, long-poll job waits) —
    ``POST /studies``, ``POST /fleet``, ``GET /jobs/{id}[?wait=S]``,
    ``GET /jobs/{id}/result``, ``GET /scenarios``, ``GET /healthz`` —
    started from the CLI as ``tpms-energy serve``; documents are submitted
    through replicas with ``tpms-energy submit``.
"""

from repro.serve.api import ServeServer
from repro.serve.budget import StoreBudget
from repro.serve.cache import EvaluatorLRU
from repro.serve.client import ServeClient
from repro.serve.jobs import (
    Job,
    JobManager,
    encode_document,
    fleet_result_document,
    study_result_document,
)
from repro.serve.store import ResultStore

__all__ = [
    "EvaluatorLRU",
    "Job",
    "JobManager",
    "ResultStore",
    "ServeClient",
    "ServeServer",
    "StoreBudget",
    "encode_document",
    "fleet_result_document",
    "study_result_document",
]
