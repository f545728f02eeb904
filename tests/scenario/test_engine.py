"""Tests for the chunked execution engine (scheduling shared by study + fleet)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.scenario.engine import ChunkedEngine, EngineReport


def _square_worker(payload):
    """Module-level (picklable) process worker used by the backend tests."""
    base, offset = payload
    return base * base + offset


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "four"])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ConfigError, match="workers"):
            ChunkedEngine(workers=bad)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            ChunkedEngine(backend="quantum")

    @pytest.mark.parametrize("bad", [0, -3, 2.0, False])
    def test_invalid_chunk_size_rejected(self, bad):
        with pytest.raises(ConfigError, match="chunk_size"):
            ChunkedEngine(chunk_size=bad)

    def test_process_backend_requires_worker_and_payload(self):
        engine = ChunkedEngine(workers=2, backend="process")
        with pytest.raises(ConfigError, match="process_worker"):
            engine.run([1, 2, 3], kernel=lambda x: x, sink=lambda i, r: None)


class TestSequential:
    def test_results_stream_in_order(self):
        received = []
        report = ChunkedEngine().run(
            range(5), lambda item: item * 10, lambda i, r: received.append((i, r))
        )
        assert received == [(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]
        assert report.backend == "sequential"
        assert report.items == 5
        assert len(report.item_wall_times_s) == 5

    def test_single_item_never_starts_a_pool(self):
        report = ChunkedEngine(workers=8).run([7], lambda item: item, lambda i, r: None)
        assert report.backend == "sequential"
        assert report.workers == 1

    def test_empty_items(self):
        rows = []
        report = ChunkedEngine(workers=4).run([], lambda item: item, lambda i, r: rows.append(r))
        assert rows == []
        assert report.items == 0
        assert report.item_wall_times_s == ()

    def test_report_is_frozen(self):
        report = ChunkedEngine().run([1], lambda item: item, lambda i, r: None)
        assert isinstance(report, EngineReport)
        with pytest.raises(AttributeError):
            report.items = 99


class TestThreadBackend:
    def test_order_preserved_and_identical_to_sequential(self):
        items = list(range(40))
        sequential = []
        ChunkedEngine().run(items, lambda x: x * x, lambda i, r: sequential.append(r))
        parallel = []
        report = ChunkedEngine(workers=4).run(
            items, lambda x: x * x, lambda i, r: parallel.append(r)
        )
        assert parallel == sequential
        assert report.backend == "thread"
        assert report.workers == 4

    def test_kernel_actually_runs_on_worker_threads(self):
        seen = set()

        def kernel(item):
            seen.add(threading.current_thread().name)
            return item

        ChunkedEngine(workers=3).run(range(30), kernel, lambda i, r: None)
        assert all("MainThread" != name for name in seen)

    def test_chunking_streams_between_chunks(self):
        # chunk span = chunk_size * workers = 4: the sink must have received
        # the whole first chunk before the last item is computed.
        order = []

        def kernel(item):
            order.append(("run", item))
            return item

        def sink(index, result):
            order.append(("sink", result))

        ChunkedEngine(workers=2, chunk_size=2).run(range(8), kernel, sink)
        first_sink = order.index(("sink", 0))
        assert ("run", 7) not in order[:first_sink]
        assert [entry for entry in order if entry[0] == "sink"] == [
            ("sink", i) for i in range(8)
        ]

    def test_items_may_be_a_lazy_iterator(self):
        def generate():
            yield from range(25)

        received = []
        report = ChunkedEngine(workers=4, chunk_size=2).run(
            generate(), lambda x: x + 1, lambda i, r: received.append(r)
        )
        assert received == list(range(1, 26))
        assert report.items == 25


class TestProcessBackend:
    def test_rows_match_sequential(self):
        items = list(range(12))
        sequential = []
        ChunkedEngine().run(items, lambda x: x * x + 1, lambda i, r: sequential.append(r))
        parallel = []
        report = ChunkedEngine(workers=2, backend="process").run(
            items,
            kernel=lambda x: x * x + 1,
            sink=lambda i, r: parallel.append(r),
            process_worker=_square_worker,
            process_payload=lambda item: (item, 1),
        )
        assert parallel == sequential
        assert report.backend == "process"
        assert all(elapsed > 0.0 for elapsed in report.item_wall_times_s)

    def test_single_item_process_run_uses_the_kernel_in_process(self):
        # One item degrades to sequential: the in-process kernel runs, the
        # pool (and the payload function) is never touched.
        def exploding_payload(item):  # pragma: no cover - must not run
            raise AssertionError("payload built for a sequential run")

        rows = []
        report = ChunkedEngine(workers=4, backend="process").run(
            [3],
            kernel=lambda x: x + 1,
            sink=lambda i, r: rows.append(r),
            process_worker=_square_worker,
            process_payload=exploding_payload,
        )
        assert rows == [4]
        assert report.backend == "sequential"


class _Flaky:
    """Kernel failing the first ``fail_times`` calls per item."""

    def __init__(self, fail_times: int):
        self.fail_times = fail_times
        self.calls: dict[object, int] = {}
        self.lock = threading.Lock()

    def __call__(self, item):
        with self.lock:
            count = self.calls.get(item, 0) + 1
            self.calls[item] = count
        if count <= self.fail_times:
            raise ValueError(f"transient failure {count} on {item}")
        return item * 2


class TestRetries:
    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_invalid_retries_rejected(self, bad):
        with pytest.raises(ConfigError, match="retries"):
            ChunkedEngine(retries=bad)

    def test_invalid_failure_mode_rejected(self):
        with pytest.raises(ConfigError, match="failure_mode"):
            ChunkedEngine(failure_mode="shrug")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_transient_failures_retried_to_success(self, workers):
        kernel = _Flaky(fail_times=2)
        received = []
        report = ChunkedEngine(workers=workers, retries=2, retry_backoff_s=0.0).run(
            range(5), kernel, lambda i, r: received.append((i, r))
        )
        assert received == [(i, i * 2) for i in range(5)]
        assert report.failures == ()
        assert report.retries == 10  # 2 extra attempts x 5 items

    def test_raise_mode_propagates_the_original_exception_type(self):
        kernel = _Flaky(fail_times=5)
        with pytest.raises(ValueError, match="transient failure"):
            ChunkedEngine(retries=1, retry_backoff_s=0.0).run(
                range(3), kernel, lambda i, r: None
            )

    def test_no_retries_behaves_like_the_pre_retry_engine(self):
        def kernel(item):
            raise KeyError(item)

        with pytest.raises(KeyError):
            ChunkedEngine().run(range(3), kernel, lambda i, r: None)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_collect_mode_skips_failed_items_and_records_them(self, workers):
        def kernel(item):
            if item == 2:
                raise RuntimeError("poisoned item")
            return item

        received = []
        report = ChunkedEngine(
            workers=workers, retries=1, retry_backoff_s=0.0, failure_mode="collect"
        ).run(range(5), kernel, lambda i, r: received.append((i, r)))
        assert received == [(0, 0), (1, 1), (3, 3), (4, 4)]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 2
        assert failure.attempts == 2
        assert failure.kind == "exception"
        assert "poisoned item" in failure.error
        assert len(report.item_wall_times_s) == 5

    def test_failure_round_trips_through_dict(self):
        from repro.scenario.engine import EngineFailure

        failure = EngineFailure(index=3, attempts=2, kind="worker-death", error="gone")
        assert EngineFailure.from_dict(failure.to_dict()) == failure


class TestRunChunks:
    def test_invalid_max_new_chunks_rejected(self):
        with pytest.raises(ConfigError, match="max_new_chunks"):
            ChunkedEngine().run_chunks([[1]], lambda x: x, lambda i, r: None, max_new_chunks=0)

    def test_global_indices_span_chunks(self):
        received = []
        report = ChunkedEngine().run_chunks(
            [[1, 2], [3], [4, 5, 6]], lambda x: x * 10, lambda i, r: received.append((i, r))
        )
        assert received == [(0, 10), (1, 20), (2, 30), (3, 40), (4, 50), (5, 60)]
        assert report.chunks == 3
        assert report.items == 6
        assert report.stopped_early is False

    def test_max_new_chunks_stops_early(self):
        received = []
        report = ChunkedEngine().run_chunks(
            [[1], [2], [3]], lambda x: x, lambda i, r: received.append(r), max_new_chunks=2
        )
        assert received == [1, 2]
        assert report.chunks == 2
        assert report.stopped_early is True

    def test_lazy_chunk_iterator_is_consumed_incrementally(self):
        produced = []

        def chunks():
            for index in range(3):
                produced.append(index)
                yield [index]

        consumed_at_first_sink = []

        def sink(i, r):
            if not consumed_at_first_sink:
                consumed_at_first_sink.append(list(produced))

        ChunkedEngine().run_chunks(chunks(), lambda x: x, sink)
        # Only the first chunk had been pulled when its result streamed out.
        assert consumed_at_first_sink == [[0]]

    def test_collect_failures_reindexed_globally(self):
        def kernel(item):
            if item == "bad":
                raise RuntimeError("nope")
            return item

        received = []
        report = ChunkedEngine(failure_mode="collect").run_chunks(
            [["a", "b"], ["bad", "c"]], kernel, lambda i, r: received.append((i, r))
        )
        assert received == [(0, "a"), (1, "b"), (3, "c")]
        assert [failure.index for failure in report.failures] == [2]

    def test_finish_sees_each_executed_chunk_before_journal_and_sink(self, tmp_path):
        from repro.scenario.checkpoint import CheckpointStore

        def kernel(item):
            if item == "bad":
                raise RuntimeError("nope")
            return item

        finished = []

        def finish(results):
            finished.append(list(results))
            return [None if value is None else value.upper() for value in results]

        received = []
        store = CheckpointStore(tmp_path / "ckpt", {"kind": "finish-test"})
        engine = ChunkedEngine(failure_mode="collect")
        engine.run_chunks(
            [["a", "bad"], ["c"]],
            kernel,
            lambda i, r: received.append((i, r)),
            checkpoint=store,
            max_new_chunks=1,
            finish=finish,
        )
        assert finished == [["a", None]]
        assert received == [(0, "A")]

        # Replayed chunks stream their journaled (finished) results as they
        # are; finish runs only for the newly executed chunk.
        received.clear()
        engine.run_chunks(
            [["a", "bad"], ["c"]],
            kernel,
            lambda i, r: received.append((i, r)),
            checkpoint=CheckpointStore(tmp_path / "ckpt", {"kind": "finish-test"}),
            finish=finish,
        )
        assert finished == [["a", None], ["c"]]
        assert received == [(0, "A"), (2, "C")]
