"""The job layer: request documents in, engine runs out, results stored.

A :class:`JobManager` accepts scenario-study and fleet JSON documents (the
same declarative documents the CLI reads from disk), validates them
eagerly — a malformed request fails at submit time, before a job exists —
and executes them through the existing runners
(:class:`~repro.scenario.study.Study`,
:class:`~repro.fleet.runner.FleetRunner`) on background worker threads.
Jobs move ``queued -> running -> done`` (or ``failed``); while running,
the engine's observer hooks feed live per-item/per-chunk progress into
the job record, and the engine's structured
:class:`~repro.scenario.engine.EngineFailure` records surface verbatim in
the job-status payload.

Result identity discipline
--------------------------

Each request normalizes to a *store key document* holding exactly the
result-shaping parameters — the canonical spec document, the seed, and
the runner parameters the kernels read (record interval, survival
buckets, ...).  Execution-only parameters (a study's ``workers`` and
``backend``, ``retries``) are excluded: the engine's row-identity contract
makes them invisible in the rows, so any execution plan shares one store
entry.  The serialized result document likewise strips the
non-deterministic bookkeeping (wall times, worker counts, resume/retry
counters) before encoding, which is what makes a store-hit response
*byte-identical* to a fresh sequential run — asserted end-to-end by the
test suite.

Shutdown: ``shutdown(drain=True)`` finishes everything already accepted;
``shutdown(drain=False)`` cancels queued jobs and asks in-flight fleet
runs to stop at the next chunk boundary — with a checkpoint root
configured those jobs end partial *and journaled*, so re-submitting the
same request resumes instead of recomputing.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import Mapping

from repro.errors import ConfigError, ReproError, ServeError
from repro.fleet.aggregate import DEFAULT_SURVIVAL_BUCKETS
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import FleetSpec
from repro.reporting.export import json_ready
from repro.scenario.engine import ChunkedEngine
from repro.scenario.montecarlo import MonteCarloConfig
from repro.scenario.spec import ScenarioSpec
from repro.scenario.study import STUDY_KINDS, Study
from repro.serve.cache import EvaluatorLRU
from repro.serve.store import ResultStore

__all__ = [
    "Job",
    "JobManager",
    "encode_document",
    "fleet_result_document",
    "study_result_document",
]

#: Study metadata keys that vary run to run (timing, execution plan,
#: cache warmth) and are stripped from the stored result document.
_STUDY_METADATA_DROP = frozenset(
    {
        "workers",
        "backend",
        "wall_time_s",
        "row_wall_times_s",
        "evaluator_builds",
        "evaluator_cache_hits",
    }
)

#: Fleet metadata keys stripped for the same reason — plus everything that
#: depends on how the run was split/resumed rather than what it computed.
_FLEET_METADATA_DROP = frozenset(
    {
        "wall_time_s",
        "vehicle_wall_times_s",
        "evaluator_builds",
        "evaluator_cache_hits",
        "chunks_completed",
        "resumed_chunks",
        "resumed_vehicles",
        "vehicles_run",
        "retries",
        "pool_rebuilds",
        "checkpoint",
    }
)


def study_result_document(result) -> dict[str, object]:
    """The deterministic result document of one study run.

    A pure function of the request: metadata that records *how* the run
    executed (timing, workers, cache warmth) is dropped; row order and row
    key order are the engine's sequential contract and survive verbatim.
    """
    return {
        "kind": "study",
        "analysis": result.kind,
        "axes": list(result.axes),
        "rows": result.as_rows(),
        "metadata": {
            key: value
            for key, value in result.metadata.items()
            if key not in _STUDY_METADATA_DROP
        },
    }


def fleet_result_document(result) -> dict[str, object]:
    """The deterministic result document of one fleet run."""
    return {
        "kind": "fleet",
        "summary": dict(result.summary),
        "survival": [dict(row) for row in result.survival],
        "vehicle_rows": (
            [dict(row) for row in result.vehicle_rows]
            if result.vehicle_rows is not None
            else None
        ),
        "metadata": {
            key: value
            for key, value in result.metadata.items()
            if key not in _FLEET_METADATA_DROP
        },
    }


def encode_document(document: object) -> bytes:
    """Serialize a result document to its canonical byte form.

    Fixed formatting (compact separators, no key sorting, trailing
    newline) plus the export layer's NaN -> null normalization: two equal
    documents always encode to equal bytes, and those bytes are what the
    store keeps and the HTTP layer returns verbatim.
    """
    text = json.dumps(
        json_ready(document), allow_nan=False, separators=(",", ":"), sort_keys=False
    )
    return (text + "\n").encode("utf-8")


def _require_mapping(document: object, what: str) -> Mapping[str, object]:
    if not isinstance(document, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {type(document).__name__}")
    return document


def _check_fields(document: Mapping[str, object], allowed: set[str], what: str) -> None:
    unknown = set(document) - allowed
    if unknown:
        raise ConfigError(
            f"{what} has unknown fields {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


_MONTECARLO_FIELDS = {
    "samples",
    "seed",
    "speed_rel_std",
    "temperature_std_c",
    "activity_range",
    "speed_distribution",
    "temperature_distribution",
    "activity_distribution",
}


def _parse_montecarlo(document: object) -> MonteCarloConfig:
    document = _require_mapping(document, "montecarlo")
    _check_fields(document, _MONTECARLO_FIELDS, "montecarlo")
    kwargs = dict(document)
    if "activity_range" in kwargs:
        value = kwargs["activity_range"]
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError("montecarlo activity_range must be a [low, high] pair")
        kwargs["activity_range"] = tuple(value)
    return MonteCarloConfig(**kwargs)


def _montecarlo_key_document(config: MonteCarloConfig) -> dict[str, object]:
    """Canonical store-key form of a Monte-Carlo config (defaults filled)."""
    document: dict[str, object] = {
        "samples": config.samples,
        "seed": config.seed,
        "speed_rel_std": config.speed_rel_std,
        "temperature_std_c": config.temperature_std_c,
        "activity_range": list(config.activity_range),
    }
    for name in ("speed_distribution", "temperature_distribution", "activity_distribution"):
        spec = getattr(config, name)
        if spec is not None:
            document[name] = spec.to_dict()
    return document


class _StudyRequest:
    """A validated study request: ready-to-run pieces plus its store key."""

    __slots__ = ("spec", "axes", "analysis", "montecarlo", "workers", "backend", "key")

    def __init__(self, document: object, default_workers, default_backend) -> None:
        document = _require_mapping(document, "study request")
        _check_fields(
            document,
            {"scenario", "axes", "analysis", "montecarlo", "workers", "backend"},
            "study request",
        )
        if "scenario" not in document:
            raise ConfigError("study request needs a 'scenario' document")
        self.spec = ScenarioSpec.from_dict(_require_mapping(document["scenario"], "scenario"))
        axes = _require_mapping(document.get("axes", {}), "axes")
        self.axes = {name: _axis_values(name, values) for name, values in axes.items()}
        self.analysis = document.get("analysis", "balance")
        if self.analysis not in STUDY_KINDS:
            raise ConfigError(
                f"unknown analysis kind {self.analysis!r}; available: {list(STUDY_KINDS)}"
            )
        if "montecarlo" in document and self.analysis != "montecarlo":
            raise ConfigError("'montecarlo' settings require the 'montecarlo' analysis kind")
        self.montecarlo = (
            _parse_montecarlo(document["montecarlo"]) if "montecarlo" in document else None
        )
        self.workers = document.get("workers", default_workers)
        self.backend = document.get("backend", default_backend)
        _check_pool(self.workers, self.backend, "backend 'process' needs workers")
        # Validates the axes (names, collisions, emptiness) at submit time.
        study = self.build_study()
        self.key = {
            "kind": "study",
            "analysis": self.analysis,
            "scenario": self.spec.to_dict(),
            "axes": {
                name: [_axis_key_value(value) for value in values]
                for name, values in self.axes.items()
            },
            "montecarlo": (
                _montecarlo_key_document(study.montecarlo)
                if self.analysis == "montecarlo"
                else None
            ),
        }

    def build_study(self, evaluator_cache=None) -> Study:
        return Study(
            self.spec,
            axes=self.axes,
            montecarlo=self.montecarlo,
            evaluator_cache=evaluator_cache,
        )


def _check_pool(workers, backend, refusal: str) -> None:
    """Validate a study's ``(workers, backend)``; refuse a process pool of one worker.

    The engine is the one validator of the execution fields; ``refusal``
    names what the process backend needs, in the words of whoever set it.
    """
    engine = ChunkedEngine(workers=workers, backend=backend)
    if backend == "process" and engine.workers == 1:
        raise ConfigError(
            f"{refusal} greater than 1 (a single worker runs sequentially in this process)"
        )


def _axis_values(name: str, values: object) -> list:
    """One axis of a study request: a JSON list of values, never split or iterated blindly."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"axis {name!r} must be a list of values, got {type(values).__name__}")
    return list(values)


def _axis_key_value(value: object) -> object:
    """Axis values as they appear in the store key (JSON scalars only)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigError(
        f"axis values must be JSON scalars in serve requests, got {type(value).__name__}"
    )


class _FleetRequest:
    """A validated fleet request: the materialized spec plus its store key."""

    __slots__ = (
        "fleet",
        "retries",
        "record_interval_s",
        "idle_step_s",
        "survival_buckets",
        "keep_vehicle_rows",
        "key",
    )

    def __init__(self, document: object) -> None:
        document = _require_mapping(document, "fleet request")
        _check_fields(
            document,
            {
                "fleet",
                "scenario",
                "vehicles",
                "seed",
                "chunk_vehicles",
                "retries",
                "record_interval_s",
                "idle_step_s",
                "survival_buckets",
                "keep_vehicle_rows",
            },
            "fleet request",
        )
        if ("fleet" in document) == ("scenario" in document):
            raise ConfigError("give exactly one of 'fleet' or 'scenario' in a fleet request")
        if "fleet" in document:
            fleet = FleetSpec.from_dict(_require_mapping(document["fleet"], "fleet"))
        else:
            fleet = FleetSpec.from_base(
                ScenarioSpec.from_dict(_require_mapping(document["scenario"], "scenario"))
            )
        self.fleet = fleet.with_population(
            vehicles=document.get("vehicles"),
            seed=document.get("seed"),
            chunk_vehicles=document.get("chunk_vehicles"),
        )
        self.retries = document.get("retries", 0)
        self.record_interval_s = document.get("record_interval_s", 1.0)
        self.idle_step_s = document.get("idle_step_s", 1.0)
        self.survival_buckets = document.get("survival_buckets", DEFAULT_SURVIVAL_BUCKETS)
        self.keep_vehicle_rows = bool(document.get("keep_vehicle_rows", False))
        # Building the runner validates its parameters (and retries) at
        # submit time.  keep_vehicle_rows shapes the *document* (rows present
        # or null), so it keys too; retries shape only the execution plan and
        # do not.
        self.key = {
            **self.build_runner().checkpoint_key(),
            "keep_vehicle_rows": self.keep_vehicle_rows,
        }

    def build_runner(
        self, evaluator_cache=None, checkpoint=None, progress=None, should_stop=None
    ) -> FleetRunner:
        return FleetRunner(
            self.fleet,
            survival_buckets=self.survival_buckets,
            keep_vehicle_rows=self.keep_vehicle_rows,
            record_interval_s=self.record_interval_s,
            idle_step_s=self.idle_step_s,
            checkpoint=checkpoint,
            retries=self.retries,
            progress=progress,
            should_stop=should_stop,
            evaluator_cache=evaluator_cache,
        )


class Job:
    """One submitted request: identity, state, live progress, outcome.

    States: ``queued`` (accepted, waiting for a worker), ``running``,
    ``done`` (result available — possibly ``partial`` after a stop
    request), ``failed`` (``error`` carries the one-line diagnosis).  A
    store hit skips the queue entirely: the job is born ``done`` with
    ``store_hit`` set and the stored bytes attached.

    Every observable mutation bumps a monotonic ``version`` and notifies
    waiters, which is what :meth:`wait_for_change` — the engine behind the
    HTTP layer's long-poll (``GET /jobs/{id}?wait=...&version=...``) —
    blocks on: a client holding version N sleeps server-side until the job
    moves past N (a progress event, a state change) instead of hammering
    fixed-interval polls.
    """

    def __init__(self, job_id: str, kind: str, digest: str, items_total, chunks_total) -> None:
        self.id = job_id
        self.kind = kind
        self.digest = digest
        self.state = "queued"
        self.store_hit = False
        self.partial = False
        self.version = 0
        self.error: str | None = None
        self.result_bytes: bytes | None = None
        self.failures: list[dict[str, object]] = []
        # A Condition doubles as the job's mutex (``with job._lock`` works
        # unchanged) and carries the long-poll wakeups.
        self._lock = threading.Condition()
        self._progress: dict[str, object] = {
            "items_done": 0,
            "items_total": items_total,
            "chunks_done": 0,
            "chunks_total": chunks_total,
            "failures": 0,
        }

    def _bump(self) -> None:
        """Advance the version and wake long-pollers (lock must be held)."""
        self.version += 1
        self._lock.notify_all()

    def _observe(self, event: Mapping[str, object]) -> None:
        """Engine observer: fold one progress event into the job record."""
        with self._lock:
            self._progress["items_done"] = event.get(
                "items_done", self._progress["items_done"]
            )
            self._progress["failures"] = event.get("failures", self._progress["failures"])
            if event.get("event") == "chunk":
                self._progress["chunks_done"] = event.get(
                    "chunks_done", self._progress["chunks_done"]
                )
            self._bump()

    def wait_for_change(self, version: int, timeout: float) -> dict[str, object]:
        """Block until the job moves past ``version`` (or ``timeout`` elapses).

        Returns the job-status document either way; a job already past the
        caller's version — or already terminal — returns immediately, so a
        stale or missing version degrades to a plain status read.
        """
        with self._lock:
            self._lock.wait_for(
                lambda: self.version != version or self.state in ("done", "failed"),
                timeout=timeout,
            )
            return self.to_document()

    def to_document(self) -> dict[str, object]:
        """The JSON-ready job-status payload (a consistent snapshot)."""
        with self._lock:
            return {
                "id": self.id,
                "kind": self.kind,
                "state": self.state,
                "digest": self.digest,
                "store_hit": self.store_hit,
                "partial": self.partial,
                "version": self.version,
                "progress": dict(self._progress),
                "failures": list(self.failures),
                "error": self.error,
                "result_ready": self.result_bytes is not None,
            }


class JobManager:
    """Accepts requests, runs them on worker threads, remembers results.

    Args:
        evaluator_cache: a shared :class:`~repro.serve.cache.EvaluatorLRU`
            (one is created with ``evaluator_capacity`` when omitted).
        evaluator_capacity: capacity of the auto-created LRU.
        store: a :class:`~repro.serve.store.ResultStore` (in-memory one
            created when omitted).
        workers: default engine pool width for study requests that omit
            it; fleets run sequentially and take no pool settings.
        backend: default engine backend for study requests that omit it.
            Both defaults are validated here: a ``"process"`` default needs
            ``workers`` greater than 1, or every study omitting them would
            be refused.
        job_workers: how many jobs run concurrently (each study job may
            itself fan out over engine workers).
        checkpoint_root: directory under which fleet jobs journal their
            chunks (per-job subdirectory named by the store digest); with
            it, a stopped or crashed job resumes on re-submission.
    """

    def __init__(
        self,
        evaluator_cache: EvaluatorLRU | None = None,
        evaluator_capacity: int = 8,
        store: ResultStore | None = None,
        workers: int | None = None,
        backend: str = "thread",
        job_workers: int = 1,
        checkpoint_root: str | Path | None = None,
    ) -> None:
        if not isinstance(job_workers, int) or isinstance(job_workers, bool) or job_workers < 1:
            raise ConfigError(f"job_workers must be a positive integer, got {job_workers!r}")
        # Checked once here, as `run` checks its flags up front: defaults
        # that every study omitting them would be refused over are the
        # server's fault, not the request's.
        _check_pool(workers, backend, "the default backend 'process' needs default workers")
        # `is not None`, not truthiness: both containers define __len__, so
        # a freshly created (empty) cache or store is falsy.
        self.evaluator_cache = (
            evaluator_cache
            if evaluator_cache is not None
            else EvaluatorLRU(capacity=evaluator_capacity)
        )
        self.store = store if store is not None else ResultStore()
        self.default_workers = workers
        self.default_backend = backend
        self.checkpoint_root = Path(checkpoint_root) if checkpoint_root is not None else None
        self._started = time.monotonic()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._requests: dict[str, object] = {}
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._sequence = 0
        self._closed = False
        self._stop_event = threading.Event()
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-job-{i}", daemon=True)
            for i in range(job_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------------

    def submit_study(self, document: object) -> Job:
        """Validate and enqueue a study request (or answer from the store)."""
        request = _StudyRequest(document, self.default_workers, self.default_backend)
        items_total = len(request.build_study())
        return self._admit("study", request, items_total=items_total, chunks_total=None)

    def submit_fleet(self, document: object) -> Job:
        """Validate and enqueue a fleet request (or answer from the store)."""
        request = _FleetRequest(document)
        return self._admit(
            "fleet",
            request,
            items_total=request.fleet.vehicles,
            chunks_total=request.fleet.chunk_count(),
        )

    def _admit(self, kind: str, request, items_total, chunks_total) -> Job:
        digest = self.store.key_digest(request.key)
        with self._lock:
            if self._closed:
                raise ServeError("the job manager is shut down; not accepting requests")
            self._sequence += 1
            job_id = f"job-{self._sequence:06d}-{digest[:8]}"
            job = Job(job_id, kind, digest, items_total, chunks_total)
            self._jobs[job_id] = job
            self._order.append(job_id)
        stored = self.store.get(digest)
        if stored is not None:
            # Store hit: the result is already content-addressed — the job
            # is born done and never touches the queue or the engines.
            with job._lock:
                job.state = "done"
                job.store_hit = True
                job.result_bytes = stored
                job._bump()
            return job
        self._requests[job_id] = request
        self._queue.put(job_id)
        return job

    # -- lookup ---------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """Every accepted job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's result document bytes (the store's verbatim)."""
        job = self.get(job_id)
        with job._lock:
            if job.state == "failed":
                raise ServeError(f"job {job_id} failed: {job.error}")
            if job.result_bytes is None:
                raise ServeError(f"job {job_id} is {job.state}; result not ready")
            return job.result_bytes

    def stats(self) -> dict[str, object]:
        """Manager-level health for ``GET /healthz``.

        Job counts by state, this replica's identity (``pid`` — a
        multi-endpoint client can tell which replica answered) and uptime,
        plus the *full* evaluator-LRU and result-store counter sets
        (capacity/size/hits/misses/evictions; entries/bytes/budget/writes/
        evictions/oversize rejects).
        """
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self.jobs():
            counts[job.state] += 1
        return {
            "jobs": counts,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "evaluator_cache": self.evaluator_cache.stats(),
            "store": self.store.stats(),
        }

    # -- execution ------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs[job_id]
            request = self._requests.pop(job_id, None)
            with job._lock:
                if job.state != "queued":
                    continue
                job.state = "running"
                job._bump()
            try:
                if job.kind == "study":
                    self._run_study(job, request)
                else:
                    self._run_fleet(job, request)
            except ReproError as error:
                with job._lock:
                    job.state = "failed"
                    job.error = str(error)
                    job._bump()
            except Exception as error:  # pragma: no cover - defensive
                with job._lock:
                    job.state = "failed"
                    job.error = f"{type(error).__name__}: {error}"
                    job._bump()

    def _finish(self, job: Job, document: dict[str, object], partial: bool) -> None:
        payload = encode_document(document)
        if not partial:
            # Only complete results are content-addressed: a partial
            # document depends on where the run stopped, so storing it
            # would poison every later request for the same key.
            self.store.put(job.digest, payload)
        with job._lock:
            job.partial = partial
            job.result_bytes = payload
            job.state = "done"
            job._bump()

    def _run_study(self, job: Job, request: _StudyRequest) -> None:
        study = request.build_study(evaluator_cache=self.evaluator_cache)
        result = study.run(
            request.analysis,
            workers=request.workers,
            backend=request.backend,
            progress=job._observe,
        )
        self._finish(job, study_result_document(result), partial=False)

    def _run_fleet(self, job: Job, request: _FleetRequest) -> None:
        checkpoint = None
        if self.checkpoint_root is not None:
            checkpoint = str(self.checkpoint_root / job.digest[:16])
        runner = request.build_runner(
            evaluator_cache=self.evaluator_cache,
            checkpoint=checkpoint,
            progress=job._observe,
            should_stop=self._stop_event.is_set,
        )
        result = runner.run()
        with job._lock:
            job.failures = list(result.metadata["failures"])
            job._bump()
        self._finish(job, fleet_result_document(result), partial=result.metadata["partial"])

    # -- shutdown -------------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and wind the workers down.

        Args:
            drain: ``True`` finishes every job already accepted before
                returning.  ``False`` cancels still-queued jobs and raises
                the stop flag, which in-flight fleet runs observe at their
                next chunk boundary — with a ``checkpoint_root`` they end
                partial and journaled (resumable on re-submission).
            timeout: per-thread join timeout.
        """
        with self._lock:
            self._closed = True
        if not drain:
            self._stop_event.set()
            for job in self.jobs():
                with job._lock:
                    if job.state == "queued":
                        job.state = "failed"
                        job.error = "cancelled by server shutdown"
                        job._bump()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
