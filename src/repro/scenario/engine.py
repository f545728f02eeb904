"""Chunked work-item execution engine shared by studies, fleets and served jobs.

Every batch of independent work items the toolkit runs (study grid points,
fleet vehicles, the jobs a server executes) goes through one streaming
contract::

    work-item iterator  →  sliding window over an executor  →  row sink

* **Work items** come from any iterable and are consumed lazily: at most
  ``WINDOW_PER_WORKER * workers`` items are in flight, so neither the item
  list nor the result set is ever materialized wholesale (a million-vehicle
  fleet streams through a bounded window).
* **One loop.**  :meth:`ChunkedEngine.run` submits items until the window
  is full, then settles the oldest before submitting the next.  Retry
  counting, timing, failure records, the sink call and the progress event
  live in that one settle step; the backend only picks the executor behind
  the window.  A sequential run (``workers=1``, or fewer than two items on
  any backend) is a window of one item run inline at submit time, the
  thread backend is a ``ThreadPoolExecutor``, and the process backend a
  ``ProcessPoolExecutor`` that receives a caller-provided picklable
  *payload* per item (a study's scenario JSON documents) for a
  module-level *worker* function.  Its pools use the fork context so user
  registry registrations reach the workers.  Fleets run sequentially.
* **Results** reach ``sink(index, result)`` in input order as the window
  advances — never held back until the run finishes, never barriered (as
  one item settles, the next is submitted).  Rows are identical (order,
  values, key order) to a sequential run whichever backend executes them.
* **Retry policy.**  Each item gets ``retries`` extra attempts, each after a
  :data:`RETRY_BACKOFF_S` pause.  With no retry budget the first failure
  raises: the kernel's own exception, or an
  :class:`~repro.errors.EngineError` naming the in-flight items when a
  worker process died.  With a budget, an item that exhausts it becomes an
  :class:`EngineFailure` on the report (its sink call is skipped) and the
  run carries on, since a caller who grants retries wants the partial
  result.  A dead worker process (``BrokenProcessPool``) poisons every
  in-flight future without naming the item that killed it, so a death
  charges one attempt to every in-flight item; the pool is then rebuilt
  and the window resubmitted in order.

Per-item wall times and the executed backend land in the returned
:class:`EngineReport`, which is how ``StudyResult.metadata`` keeps its
timing bookkeeping.  :meth:`ChunkedEngine.run_chunks` layers checkpointed,
resumable execution over pre-chunked work run in this process (see
:mod:`repro.scenario.checkpoint`); the fleet runner is its caller.

**Observability and cancellation.**  Long-lived callers (the serving
layer's job manager) watch a run through the ``progress`` callback: the
engine calls it with a small event dict after every settled item
(``{"event": "item", "items_done": n, "failures": k}``) and — under
:meth:`ChunkedEngine.run_chunks` — after every completed chunk
(``{"event": "chunk", ...}`` with chunk/item counts and whether the chunk
was replayed from a checkpoint).  ``run_chunks`` additionally accepts a
``should_stop`` callable, polled before each *new* chunk is executed:
returning ``True`` ends the run early at a chunk boundary
(``stopped_early`` on the report) with every completed chunk already
journaled — which is what makes graceful service shutdown equivalent to a
resumable interruption.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.errors import ConfigError, EngineError

#: Backends the engine understands.
ENGINE_BACKENDS = ("thread", "process")

#: In-flight items per worker slot.  The sliding window keeps
#: ``WINDOW_PER_WORKER * workers`` items submitted at any moment: large
#: enough that no worker starves while the window head finishes, small
#: enough that results stream to the sink promptly and lazily-produced work
#: items are not all materialized up front.
WINDOW_PER_WORKER = 8

#: Pause before each retry of an item and before rebuilding a dead process
#: pool: long enough for a transient resource glitch to clear.
RETRY_BACKOFF_S = 0.05

#: End-of-input marker of the submission loop.
_END = object()


def process_pool_context():
    """The multiprocessing context of the process backend.

    Forked workers inherit user registry registrations (and the loaded
    modules), which is what lets a payload referencing a ``register_*``-ed
    component rebuild inside the pool.  Platforms without fork (Windows;
    macOS defaults to spawn) fall back to the default context, where only
    importable registrations survive — the explicit request keeps the
    behaviour deterministic instead of riding the interpreter's changing
    default (spawn/forkserver).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


@dataclass(frozen=True)
class EngineFailure:
    """One work item the engine gave up on (its retry budget exhausted).

    Attributes:
        index: the item's input-order index (global across a
            :meth:`ChunkedEngine.run_chunks` run).
        attempts: how many times the item was attempted.
        kind: ``"exception"`` (the kernel raised) or ``"worker-death"``
            (the process executing it died).
        error: one-line description of the final failure.
    """

    index: int
    attempts: int
    kind: str
    error: str

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form for metadata and checkpoint journals."""
        return {
            "index": self.index,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, document) -> "EngineFailure":
        return cls(
            index=int(document["index"]),
            attempts=int(document["attempts"]),
            kind=str(document["kind"]),
            error=str(document["error"]),
        )


@dataclass(frozen=True)
class EngineReport:
    """Bookkeeping of one engine run.

    Attributes:
        backend: the backend that actually executed the items —
            ``"sequential"``, ``"thread"`` or ``"process"`` (a parallel
            request over zero or one items degrades to sequential; a fully
            checkpoint-replayed ``run_chunks`` reports ``"resumed"``).
        workers: the effective pool width used.
        items: number of work items executed (including replayed and failed
            ones).
        wall_time_s: total wall time of the run.
        item_wall_times_s: per-item wall times, in input order.  For the
            process backend the time is measured inside the worker and
            covers the payload rebuild plus the kernel, mirroring what the
            in-process path measures.  A failed item's entry spans all its
            attempts (0.0 when worker deaths exhausted it); a replayed
            item's entry is the journaled time of the original execution.
        failures: items given up on.  Only a run with a retry budget
            (``retries > 0``) records any: without one, the first failure
            raises instead.
        retries: total extra attempts spent across all items.
        pool_rebuilds: process pools rebuilt after a worker death.
        chunks: chunks completed by :meth:`ChunkedEngine.run_chunks`
            (executed + replayed); 0 for plain :meth:`ChunkedEngine.run`.
        resumed_chunks: chunks replayed from a checkpoint journal.
        resumed_items: items replayed from a checkpoint journal.
        stopped_early: ``run_chunks`` hit its ``max_new_chunks`` budget
            before exhausting the chunk iterator (the run is partial).
    """

    backend: str
    workers: int
    items: int
    wall_time_s: float
    item_wall_times_s: tuple[float, ...]
    failures: tuple[EngineFailure, ...] = ()
    retries: int = 0
    pool_rebuilds: int = 0
    chunks: int = 0
    resumed_chunks: int = 0
    resumed_items: int = 0
    stopped_early: bool = False


@dataclass(frozen=True)
class _FailedItem:
    """In-band marker of an item whose retry budget is exhausted."""

    kind: str
    error: str


_WORKER_DEATH = _FailedItem("worker-death", "process worker died while running this item")


def _run_attempts(function, argument, retries: int):
    """Run ``function(argument)`` with a bounded retry budget.

    Returns ``(value, elapsed_s, attempts)``.  When every attempt fails,
    ``value`` is a :class:`_FailedItem` if there was a budget to exhaust;
    with ``retries == 0`` the exception propagates unchanged.  The elapsed
    time spans all attempts, mirroring what the caller waited.  Module-level
    so process workers run it too, timing the item inside the worker.
    """
    started = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            value = function(argument)
        except Exception as error:
            if attempts <= retries:
                time.sleep(RETRY_BACKOFF_S)
                continue
            if not retries:
                raise
            failure = _FailedItem("exception", f"{type(error).__name__}: {error}")
            return failure, time.perf_counter() - started, attempts
        return value, time.perf_counter() - started, attempts


class _Settled:
    """A future stand-in that already holds its result."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def result(self):
        return self.value


class _InlineExecutor:
    """The sequential executor: each task runs in this thread at submit time."""

    def submit(self, function, *args) -> _Settled:
        return _Settled(function(*args))

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class ChunkedEngine:
    """Windowed, order-preserving executor for independent work items.

    Args:
        workers: pool width.  ``None`` or 1 executes sequentially.
        backend: ``"thread"`` (default) or ``"process"`` (see the module
            docstring); ignored — sequential — when fewer than two items or
            workers arrive.
        retries: extra attempts per item (and per-item worker deaths
            survived).  0 (the default) makes the first failure raise; a
            positive budget makes an exhausted item an
            :class:`EngineFailure` on the report while the run carries on.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "thread",
        retries: int = 0,
    ) -> None:
        if workers is None:
            workers = 1
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {workers!r}")
        if backend not in ENGINE_BACKENDS:
            raise ConfigError(
                f"unknown execution backend {backend!r}; "
                f"available: {list(ENGINE_BACKENDS)}"
            )
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ConfigError(f"retries must be a non-negative integer, got {retries!r}")
        self.workers = workers
        self.backend = backend
        self.retries = retries

    # -- single-pass execution ----------------------------------------------

    def run(
        self,
        items: Iterable[object],
        kernel: Callable[[object], object],
        sink: Callable[[int, object], None],
        process_worker: Callable[[object], object] | None = None,
        process_payload: Callable[[object], object] | None = None,
        progress: Callable[[dict], None] | None = None,
    ) -> EngineReport:
        """Execute ``kernel`` over ``items`` and stream results to ``sink``.

        Args:
            items: the work items; consumed lazily as the window advances.
            kernel: in-process item evaluator (sequential and thread
                backends, and the sequential degradation of the process
                backend — a single-item "grid" never pays pool start-up).
            sink: called as ``sink(index, result)`` in input order as
                results complete; failed items (with a retry budget) are
                skipped, their indices recorded on the report.
            process_worker: module-level (picklable) function executing one
                *payload* in a worker process; required for the process
                backend.
            process_payload: maps an item to the picklable payload shipped
                to ``process_worker``; required for the process backend.
            progress: optional observer called after every settled item with
                ``{"event": "item", "items_done": n, "failures": k}``
                (cumulative counts, input order — right after the item's
                sink call).  Exceptions it raises propagate, so observers
                must be cheap and non-throwing.

        Returns:
            An :class:`EngineReport` with the executed backend and timings.
        """
        missing_worker = process_worker is None or process_payload is None
        if self.backend == "process" and self.workers > 1 and missing_worker:
            raise ConfigError("the process backend needs process_worker and process_payload")
        if progress is not None and not callable(progress):
            raise ConfigError(f"progress must be callable, got {progress!r}")
        iterator = iter(items)
        # Peek ahead far enough to know whether a pool is worth starting:
        # zero or one items degrade to the sequential path on any backend.
        head = list(itertools.islice(iterator, 2))
        iterator = itertools.chain(head, iterator)
        if self.workers > 1 and len(head) > 1:
            backend, workers, window = self.backend, self.workers, WINDOW_PER_WORKER * self.workers
        else:
            # A window of one: each item settles before the next one runs.
            backend, workers, window = "sequential", 1, 1
        function = kernel
        if backend == "process":
            function, iterator = process_worker, map(process_payload, iterator)

        started = time.perf_counter()
        timings: list[float] = []
        failures: list[EngineFailure] = []
        counters = {"retries": 0, "pool_rebuilds": 0}
        # Entries: [index, argument, worker deaths, future]; the future is
        # None once worker deaths exhausted the entry's budget.
        pending: deque[list] = deque()
        exhausted = False
        submitted = 0
        pool = self._executor(backend, workers)
        try:
            while True:
                while not exhausted and len(pending) < window:
                    argument = next(iterator, _END)
                    if argument is _END:
                        exhausted = True
                        break
                    future = pool.submit(_run_attempts, function, argument, self.retries)
                    pending.append([submitted, argument, 0, future])
                    submitted += 1
                if not pending:
                    break
                entry = pending[0]
                if entry[3] is None:
                    value, elapsed, attempts = _WORKER_DEATH, 0.0, entry[2]
                else:
                    try:
                        value, elapsed, attempts = entry[3].result()
                    except BrokenProcessPool:
                        pool = self._recover_dead_pool(pool, pending, function, counters)
                        continue
                    counters["retries"] += attempts - 1
                pending.popleft()
                timings.append(elapsed)
                if isinstance(value, _FailedItem):
                    failures.append(
                        EngineFailure(
                            index=entry[0], attempts=attempts, kind=value.kind, error=value.error
                        )
                    )
                else:
                    sink(entry[0], value)
                if progress is not None:
                    progress(
                        {"event": "item", "items_done": len(timings), "failures": len(failures)}
                    )
        finally:
            # Threads still running a kernel finish before run() returns;
            # a process pool (possibly broken) is abandoned without waiting.
            pool.shutdown(wait=backend != "process", cancel_futures=True)
        return EngineReport(
            backend=backend,
            workers=workers,
            items=len(timings),
            wall_time_s=time.perf_counter() - started,
            item_wall_times_s=tuple(timings),
            failures=tuple(failures),
            retries=counters["retries"],
            pool_rebuilds=counters["pool_rebuilds"],
        )

    @staticmethod
    def _executor(backend: str, workers: int):
        """The executor behind the window of one run."""
        if backend == "process":
            return ProcessPoolExecutor(max_workers=workers, mp_context=process_pool_context())
        if backend == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        return _InlineExecutor()

    def _recover_dead_pool(self, pool, pending, worker, counters) -> ProcessPoolExecutor:
        """Replace a broken pool, charging one death to every in-flight item.

        Without a retry budget the death aborts the run with an
        :class:`EngineError` naming the in-flight indices.  With one, items
        still within it are resubmitted in order to the new pool; the rest
        settle as ``"worker-death"`` failures when they reach the head.
        """
        in_flight = [entry for entry in pending if entry[3] is not None]
        for entry in in_flight:
            entry[2] += 1
        if not self.retries:
            raise EngineError(
                f"process worker died while running item(s) "
                f"{[entry[0] for entry in in_flight]} "
                f"(retry budget {self.retries} exhausted); "
                "rerun with retries > 0 to rebuild the pool, or resume from a "
                "checkpoint to keep completed chunks"
            )
        pool.shutdown(wait=False, cancel_futures=True)
        time.sleep(RETRY_BACKOFF_S)
        counters["pool_rebuilds"] += 1
        counters["retries"] += len(in_flight)
        pool = self._executor("process", self.workers)
        for entry in in_flight:
            if entry[2] > self.retries:
                entry[3] = None
            else:
                entry[3] = pool.submit(_run_attempts, worker, entry[1], self.retries)
        return pool

    # -- checkpointed chunk execution ---------------------------------------

    def run_chunks(
        self,
        chunks: Iterable[Iterable[object]],
        kernel: Callable[[object], object],
        sink: Callable[[int, object], None],
        checkpoint=None,
        max_new_chunks: int | None = None,
        progress: Callable[[dict], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
        finish: Callable[[list], list] | None = None,
    ) -> EngineReport:
        """Execute pre-chunked work with optional checkpointed resume.

        Each chunk either *replays* from the checkpoint journal (its results
        stream to the sink exactly as the original execution produced them,
        byte for byte) or *executes* through :meth:`run` and — before its
        results reach the sink — is journaled atomically, so a crash at any
        instant loses at most the chunk in flight.

        Args:
            chunks: iterable of work-item chunks (each an iterable, consumed
                one chunk at a time; indices are global across chunks).
            kernel: the in-process item evaluator, as in :meth:`run`
                (chunks take no process payload).
            sink: called as ``sink(global_index, result)`` in input order.
            checkpoint: a :class:`~repro.scenario.checkpoint.CheckpointStore`
                (or ``None`` to run without journaling).
            max_new_chunks: execute at most this many non-replayed chunks,
                then stop (``stopped_early`` on the report); replayed chunks
                are free.  ``None`` runs to completion.
            progress: optional observer; receives the per-item events of
                :meth:`run` with *global* item counts, plus one
                ``{"event": "chunk", "chunk": i, "chunks_done": c,
                "items_done": n, "resumed": bool, "failures": k}`` event
                after every completed (executed or replayed) chunk.
            should_stop: optional cancellation hook, polled before each NEW
                chunk is executed.  Returning ``True`` ends the run at a
                chunk boundary with ``stopped_early`` set — completed chunks
                are already journaled, so a checkpointed run resumes exactly
                where the stop landed (graceful-shutdown semantics).
            finish: optional chunk-completion step.  Called once per
                executed chunk, after every item settled and before the
                chunk is journaled or reaches the sink, with the chunk's
                result list (``None`` in failed slots); returns the list to
                journal and stream.  The fleet runner scans the ledgers of a
                whole chunk here; it is an internal hook, not a user option.

        Returns:
            An :class:`EngineReport` aggregated over all chunks.
        """
        if max_new_chunks is not None and (
            not isinstance(max_new_chunks, int)
            or isinstance(max_new_chunks, bool)
            or max_new_chunks < 1
        ):
            raise ConfigError(
                f"max_new_chunks must be a positive integer, got {max_new_chunks!r}"
            )
        if progress is not None and not callable(progress):
            raise ConfigError(f"progress must be callable, got {progress!r}")
        if should_stop is not None and not callable(should_stop):
            raise ConfigError(f"should_stop must be callable, got {should_stop!r}")
        started = time.perf_counter()
        timings: list[float] = []
        failures: list[EngineFailure] = []
        backend_used: str | None = None
        counters = {"retries": 0, "pool_rebuilds": 0}
        chunks_done = 0
        resumed_chunks = 0
        resumed_items = 0
        executed_chunks = 0
        stopped_early = False
        workers_used = 1
        global_index = 0

        def chunk_event(chunk_index: int, resumed: bool) -> None:
            if progress is not None:
                progress(
                    {
                        "event": "chunk",
                        "chunk": chunk_index,
                        "chunks_done": chunks_done,
                        "items_done": global_index,
                        "resumed": resumed,
                        "failures": len(failures),
                    }
                )

        for chunk_index, chunk in enumerate(chunks):
            chunk_items = list(chunk)
            if checkpoint is not None and checkpoint.has_chunk(chunk_index):
                results, wall_times, chunk_failures = checkpoint.load_chunk(
                    chunk_index, expected_items=len(chunk_items)
                )
                failed = {failure["index"] for failure in chunk_failures}
                for offset, result in enumerate(results):
                    if offset in failed:
                        continue
                    sink(global_index + offset, result)
                timings.extend(wall_times)
                for failure in chunk_failures:
                    failures.append(
                        EngineFailure.from_dict(
                            {**failure, "index": global_index + failure["index"]}
                        )
                    )
                global_index += len(chunk_items)
                resumed_chunks += 1
                resumed_items += len(chunk_items)
                chunks_done += 1
                chunk_event(chunk_index, resumed=True)
                continue
            if max_new_chunks is not None and executed_chunks >= max_new_chunks:
                stopped_early = True
                break
            if should_stop is not None and should_stop():
                stopped_early = True
                break

            buffer: list[object] = [None] * len(chunk_items)

            def buffer_sink(local_index, result, _buffer=buffer):
                _buffer[local_index] = result

            def item_progress(event, _base=global_index, _failed_before=len(failures)):
                if progress is not None:
                    progress(
                        {
                            **event,
                            "items_done": _base + event["items_done"],
                            "failures": _failed_before + event["failures"],
                        }
                    )

            report = self.run(
                chunk_items,
                kernel,
                buffer_sink,
                progress=item_progress if progress is not None else None,
            )
            if finish is not None:
                buffer = finish(buffer)
            if checkpoint is not None:
                checkpoint.record_chunk(
                    chunk_index,
                    results=buffer,
                    wall_times_s=list(report.item_wall_times_s),
                    failures=[failure.to_dict() for failure in report.failures],
                )
            failed_local = {failure.index for failure in report.failures}
            for offset, result in enumerate(buffer):
                if offset in failed_local:
                    continue
                sink(global_index + offset, result)
            timings.extend(report.item_wall_times_s)
            for failure in report.failures:
                failures.append(replace(failure, index=global_index + failure.index))
            counters["retries"] += report.retries
            counters["pool_rebuilds"] += report.pool_rebuilds
            if backend_used is None or report.backend != "sequential":
                backend_used = report.backend
                workers_used = max(workers_used, report.workers)
            global_index += len(chunk_items)
            executed_chunks += 1
            chunks_done += 1
            chunk_event(chunk_index, resumed=False)
        return EngineReport(
            backend=backend_used if backend_used is not None else "resumed",
            workers=workers_used,
            items=global_index,
            wall_time_s=time.perf_counter() - started,
            item_wall_times_s=tuple(timings),
            failures=tuple(failures),
            retries=counters["retries"],
            pool_rebuilds=counters["pool_rebuilds"],
            chunks=chunks_done,
            resumed_chunks=resumed_chunks,
            resumed_items=resumed_items,
            stopped_early=stopped_early,
        )
