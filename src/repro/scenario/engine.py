"""Chunked work-item execution engine shared by studies and fleet runs.

Every "run many independent work items" loop in the toolkit used to live
inside :meth:`repro.scenario.study.Study.run`: scheduling, worker pools,
per-item timing and row collection were welded to the study grid.  This
module extracts that machinery into a reusable engine with a streaming
contract::

    work-item iterator  →  chunked thread/process execution  →  row sink

* **Work items** come from any iterable; the engine consumes it lazily in
  chunks, so neither the item list nor the result set ever needs to be
  materialized wholesale (a million-vehicle fleet streams through a bounded
  window of in-flight work).
* **Execution** runs sequentially (``workers=1`` or fewer than two items),
  on a thread pool, or on a process pool.  The process backend ships each
  item through a caller-provided *payload* function (something picklable —
  scenario JSON documents, vehicle parameter tuples) to a module-level
  *worker* function, using the fork context so user registry registrations
  reach the workers.
* **Results** are pushed to a ``sink(index, result)`` callback in input
  order as the bounded in-flight window advances — never held back until
  the whole run finishes, and never barriered between chunks (as one item
  finishes, the next is submitted).  Rows are identical (order, values,
  key order) to a sequential run whichever backend executes them.
* **Failure degradation** is bounded and structured: per-item exceptions
  are retried up to ``retries`` times with a backoff, and a dead worker
  process (``BrokenProcessPool``) rebuilds the pool and resubmits the
  in-flight window within the same budget.  Exhausted budgets either raise
  (``failure_mode="raise"``, the default — the original exception type for
  item errors, an :class:`~repro.errors.EngineError` naming the in-flight
  item indices for worker death) or surface as :class:`EngineFailure`
  records on the report (``failure_mode="collect"``) while the run carries
  on.

Per-item wall times and the executed backend land in the returned
:class:`EngineReport`, which is how ``StudyResult.metadata`` keeps its
timing bookkeeping.  :meth:`ChunkedEngine.run_chunks` layers checkpointed,
resumable execution over pre-chunked work (see
:mod:`repro.scenario.checkpoint`).

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

#: Default number of in-flight items per worker slot.  The sliding window
#: keeps ``chunk_size * workers`` items submitted at any moment: large
#: enough that no worker starves while the window head finishes, small
#: enough that results stream to the sink promptly and lazily-produced work
#: items are not all materialized up front.
DEFAULT_CHUNK_SIZE = 8

#: Failure modes: ``"raise"`` propagates the first exhausted failure,
#: ``"collect"`` records it on the report and keeps running.
FAILURE_MODES = ("raise", "collect")


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
            in-process path measures.  A failed item's entry covers its
            final attempt; a replayed item's entry is the journaled time of
            the original execution.
        failures: items given up on (``failure_mode="collect"`` only).
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
    """In-band marker a retry wrapper returns when collecting failures."""

    kind: str
    error: str


def _run_attempts(call, retries: int, backoff_s: float, collect: bool):
    """Run ``call`` with a bounded retry budget.

    Returns ``(value, elapsed_s, attempts)`` where ``value`` is the result
    or — when ``collect`` and the budget is exhausted — a :class:`_FailedItem`.
    In raise mode the final attempt's exception propagates unchanged (so a
    retry-less engine behaves exactly like the pre-retry engine).  The
    elapsed time spans all attempts, mirroring what the caller would have
    waited.
    """
    started = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            value = call()
        except Exception as error:
            if attempts <= retries:
                if backoff_s > 0.0:
                    time.sleep(backoff_s)
                continue
            if collect:
                failure = _FailedItem(
                    kind="exception", error=f"{type(error).__name__}: {error}"
                )
                return failure, time.perf_counter() - started, attempts
            raise
        return value, time.perf_counter() - started, attempts


def _timed_process_task(task):
    """Module-level worker wrapper: run one payload, retry and time in-worker."""
    worker, payload, retries, backoff_s, collect = task
    return _run_attempts(lambda: worker(payload), retries, backoff_s, collect)


def _notify_item(progress, items_done: int, failure_count: int) -> None:
    """Emit one per-item progress event (no-op without an observer)."""
    if progress is not None:
        progress({"event": "item", "items_done": items_done, "failures": failure_count})


class ChunkedEngine:
    """Chunked, order-preserving executor for independent work items.

    Args:
        workers: pool width.  ``None`` or 1 executes sequentially.
        backend: ``"thread"`` (default) or ``"process"`` (see the module
            docstring); ignored — sequential — when fewer than two items or
            workers arrive.
        chunk_size: in-flight items per worker slot
            (:data:`DEFAULT_CHUNK_SIZE`); the sliding submission window is
            ``chunk_size * workers`` items.
        retries: extra attempts per item (and per-item worker deaths
            survived) before the engine gives up on it.
        retry_backoff_s: pause before each retry (and before rebuilding a
            dead process pool).
        failure_mode: what an exhausted retry budget does — ``"raise"``
            (default) propagates, ``"collect"`` records an
            :class:`EngineFailure` on the report and skips the item's sink
            call.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "thread",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        failure_mode: str = "raise",
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
        if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1:
            raise ConfigError(f"chunk_size must be a positive integer, got {chunk_size!r}")
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ConfigError(f"retries must be a non-negative integer, got {retries!r}")
        if (
            not isinstance(retry_backoff_s, (int, float))
            or isinstance(retry_backoff_s, bool)
            or retry_backoff_s < 0.0
        ):
            raise ConfigError(
                f"retry_backoff_s must be a non-negative number, got {retry_backoff_s!r}"
            )
        if failure_mode not in FAILURE_MODES:
            raise ConfigError(
                f"unknown failure_mode {failure_mode!r}; available: {list(FAILURE_MODES)}"
            )
        self.workers = workers
        self.backend = backend
        self.chunk_size = chunk_size
        self.retries = retries
        self.retry_backoff_s = float(retry_backoff_s)
        self.failure_mode = failure_mode

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
            items: the work items; consumed lazily, chunk by chunk.
            kernel: in-process item evaluator (sequential and thread
                backends, and the sequential degradation of the process
                backend — a single-item "grid" never pays pool start-up).
            sink: called as ``sink(index, result)`` in input order as
                results complete; failed items (``failure_mode="collect"``)
                are skipped, their indices recorded on the report.
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
        parallel = self.workers > 1 and len(head) > 1
        iterator = itertools.chain(head, iterator)

        started = time.perf_counter()
        timings: list[float] = []
        failures: list[EngineFailure] = []
        counters = {"retries": 0, "pool_rebuilds": 0}
        collect = self.failure_mode == "collect"
        window = self.chunk_size * self.workers
        if parallel and self.backend == "process":
            backend_used = "process"
            tasks = (
                (process_worker, process_payload(item), self.retries, self.retry_backoff_s, collect)
                for item in iterator
            )
            items_run = self._drain_process(
                tasks, window, sink, timings, failures, counters, progress
            )
        elif parallel:
            backend_used = "thread"

            def timed(item):
                return _run_attempts(
                    lambda: kernel(item), self.retries, self.retry_backoff_s, collect
                )

            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                items_run = self._drain_window(
                    pool, timed, iterator, window, sink, timings, failures, counters, progress
                )
        else:
            backend_used = "sequential"
            items_run = 0
            for item in iterator:
                value, elapsed, attempts = _run_attempts(
                    lambda: kernel(item), self.retries, self.retry_backoff_s, collect
                )
                counters["retries"] += attempts - 1
                timings.append(elapsed)
                if isinstance(value, _FailedItem):
                    failures.append(
                        EngineFailure(
                            index=items_run,
                            attempts=attempts,
                            kind=value.kind,
                            error=value.error,
                        )
                    )
                else:
                    sink(items_run, value)
                items_run += 1
                _notify_item(progress, items_run, len(failures))
        return EngineReport(
            backend=backend_used,
            workers=self.workers if parallel else 1,
            items=items_run,
            wall_time_s=time.perf_counter() - started,
            item_wall_times_s=tuple(timings),
            failures=tuple(failures),
            retries=counters["retries"],
            pool_rebuilds=counters["pool_rebuilds"],
        )

    def _drain_window(
        self, pool, task, items, window, sink, timings, failures, counters, progress=None
    ) -> int:
        """Sliding-window submission: bounded in-flight, ordered release.

        At most ``window`` futures are submitted at any moment; as the
        *oldest* completes, its result goes to the sink (preserving input
        order) and the next item is submitted — no barrier, so a slow item
        never idles the other workers beyond the window bound.
        """
        pending: deque = deque()
        index = 0
        for item in items:
            if len(pending) >= window:
                index = self._settle(
                    pending.popleft(), index, sink, timings, failures, counters, progress
                )
            pending.append(pool.submit(task, item))
        while pending:
            index = self._settle(
                pending.popleft(), index, sink, timings, failures, counters, progress
            )
        return index

    @staticmethod
    def _settle(future, index, sink, timings, failures, counters, progress=None) -> int:
        """Release one completed future to the sink (or the failure list)."""
        value, elapsed, attempts = future.result()
        counters["retries"] += attempts - 1
        timings.append(elapsed)
        if isinstance(value, _FailedItem):
            failures.append(
                EngineFailure(index=index, attempts=attempts, kind=value.kind, error=value.error)
            )
        else:
            sink(index, value)
        _notify_item(progress, index + 1, len(failures))
        return index + 1

    def _drain_process(
        self, tasks, window, sink, timings, failures, counters, progress=None
    ) -> int:
        """The process-backend drain: the sliding window plus death recovery.

        A dead worker process poisons every in-flight future
        (``BrokenProcessPool``), with no indication of which item killed it —
        so a death charges one attempt to *every* pending item, the pool is
        rebuilt and the window resubmitted in order.  Items whose budget is
        exhausted either abort the run with an :class:`EngineError` naming
        the in-flight indices (``failure_mode="raise"``) or become
        ``"worker-death"`` failures on the report (``"collect"``).
        """
        context = process_pool_context()
        pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=context)
        # Entries: [item index, task tuple, deaths, future]; future is None
        # once the entry's budget is exhausted in collect mode.
        pending: deque[list] = deque()
        iterator = iter(tasks)
        exhausted = False
        submitted = 0
        index = 0
        try:
            while True:
                while not exhausted and len(pending) < window:
                    try:
                        task = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append([submitted, task, 0, pool.submit(_timed_process_task, task)])
                    submitted += 1
                if not pending:
                    break
                entry = pending[0]
                if entry[3] is None:
                    # Budget exhausted by worker deaths (collect mode).
                    pending.popleft()
                    timings.append(0.0)
                    failures.append(
                        EngineFailure(
                            index=entry[0],
                            attempts=entry[2],
                            kind="worker-death",
                            error="process worker died while running this item",
                        )
                    )
                    index += 1
                    _notify_item(progress, index, len(failures))
                    continue
                try:
                    value, elapsed, attempts = entry[3].result()
                except BrokenProcessPool:
                    pool = self._recover_dead_pool(pool, pending, counters)
                    continue
                pending.popleft()
                counters["retries"] += attempts - 1
                timings.append(elapsed)
                if isinstance(value, _FailedItem):
                    failures.append(
                        EngineFailure(
                            index=entry[0], attempts=attempts, kind=value.kind, error=value.error
                        )
                    )
                else:
                    sink(entry[0], value)
                index += 1
                _notify_item(progress, index, len(failures))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return index

    def _recover_dead_pool(self, pool, pending, counters) -> ProcessPoolExecutor:
        """Replace a broken pool, charging one death to every in-flight item."""
        in_flight = sorted(entry[0] for entry in pending if entry[3] is not None)
        for entry in pending:
            if entry[3] is not None:
                entry[2] += 1
        over_budget = [entry for entry in pending if entry[3] is not None and entry[2] > self.retries]
        if over_budget and self.failure_mode == "raise":
            raise EngineError(
                f"process worker died while running item(s) {in_flight} "
                f"(retry budget {self.retries} exhausted); "
                "rerun with retries > 0 to rebuild the pool, or resume from a "
                "checkpoint to keep completed chunks"
            )
        pool.shutdown(wait=False, cancel_futures=True)
        if self.retry_backoff_s > 0.0:
            time.sleep(self.retry_backoff_s)
        counters["pool_rebuilds"] += 1
        counters["retries"] += len(in_flight)
        pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=process_pool_context())
        for entry in pending:
            if entry[3] is None:
                continue
            if entry[2] > self.retries:
                entry[3] = None  # collect mode: surfaced when it reaches the head
            else:
                entry[3] = pool.submit(_timed_process_task, entry[1])
        return pool

    # -- checkpointed chunk execution ---------------------------------------

    def run_chunks(
        self,
        chunks: Iterable[Iterable[object]],
        kernel: Callable[[object], object],
        sink: Callable[[int, object], None],
        checkpoint=None,
        max_new_chunks: int | None = None,
        process_worker: Callable[[object], object] | None = None,
        process_payload: Callable[[object], object] | None = None,
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
            kernel/process_worker/process_payload: as in :meth:`run`.
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

            try:
                report = self.run(
                    chunk_items,
                    kernel,
                    buffer_sink,
                    process_worker=process_worker,
                    process_payload=process_payload,
                    progress=item_progress if progress is not None else None,
                )
            except EngineError as error:
                raise EngineError(f"chunk {chunk_index}: {error}") from error
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
