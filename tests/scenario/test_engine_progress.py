"""Engine observability hooks: progress events and cooperative stop."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine


def _square(value: int) -> int:
    return value * value


class TestRunProgress:
    def test_sequential_item_events(self):
        events = []
        engine = ChunkedEngine()
        engine.run([1, 2, 3], _square, lambda i, r: None, progress=events.append)
        assert events == [
            {"event": "item", "items_done": 1, "failures": 0},
            {"event": "item", "items_done": 2, "failures": 0},
            {"event": "item", "items_done": 3, "failures": 0},
        ]

    def test_thread_item_events_are_ordered(self):
        events = []
        engine = ChunkedEngine(workers=4)
        engine.run(range(20), _square, lambda i, r: None, progress=events.append)
        assert [event["items_done"] for event in events] == list(range(1, 21))
        assert {event["event"] for event in events} == {"item"}

    def test_failures_counted_in_events(self):
        def kernel(value):
            if value == 1:
                raise ValueError("boom")
            return value

        events = []
        engine = ChunkedEngine(retries=1)
        report = engine.run([0, 1, 2], kernel, lambda i, r: None, progress=events.append)
        assert [event["failures"] for event in events] == [0, 1, 1]
        assert len(report.failures) == 1

    def test_progress_fires_after_sink(self):
        order = []
        engine = ChunkedEngine()
        engine.run(
            [7],
            _square,
            lambda i, r: order.append(("sink", i, r)),
            progress=lambda event: order.append(("progress", event["items_done"])),
        )
        assert order == [("sink", 0, 49), ("progress", 1)]

    def test_rejects_non_callable_progress(self):
        engine = ChunkedEngine()
        with pytest.raises(ConfigError, match="progress must be callable"):
            engine.run([1], _square, lambda i, r: None, progress="nope")


class TestRunChunksProgress:
    def test_chunk_events_with_global_counts(self):
        events = []
        engine = ChunkedEngine()
        engine.run_chunks(
            [[1, 2], [3]], _square, lambda i, r: None, progress=events.append
        )
        chunk_events = [event for event in events if event["event"] == "chunk"]
        assert chunk_events == [
            {
                "event": "chunk",
                "chunk": 0,
                "chunks_done": 1,
                "items_done": 2,
                "resumed": False,
                "failures": 0,
            },
            {
                "event": "chunk",
                "chunk": 1,
                "chunks_done": 2,
                "items_done": 3,
                "resumed": False,
                "failures": 0,
            },
        ]
        item_events = [event for event in events if event["event"] == "item"]
        assert [event["items_done"] for event in item_events] == [1, 2, 3]

    def test_replayed_chunks_emit_resumed_events(self, tmp_path):
        store = CheckpointStore(tmp_path, {"run": "progress-test"})
        engine = ChunkedEngine()
        engine.run_chunks([[1, 2], [3]], _square, lambda i, r: None, checkpoint=store)
        events = []
        replay_store = CheckpointStore(tmp_path, {"run": "progress-test"})
        engine.run_chunks(
            [[1, 2], [3]],
            _square,
            lambda i, r: None,
            checkpoint=replay_store,
            progress=events.append,
        )
        assert [event["resumed"] for event in events if event["event"] == "chunk"] == [
            True,
            True,
        ]
        # Replay streams journaled results without re-running items.
        assert all(event["event"] == "chunk" for event in events)


class TestShouldStop:
    def test_stop_before_first_chunk(self):
        ran = []
        engine = ChunkedEngine()
        report = engine.run_chunks(
            [[1], [2]],
            lambda item: ran.append(item),
            lambda i, r: None,
            should_stop=lambda: True,
        )
        assert ran == []
        assert report.stopped_early
        assert report.chunks == 0

    def test_stop_lands_on_a_chunk_boundary_and_journals(self, tmp_path):
        store = CheckpointStore(tmp_path, {"run": "stop-test"})
        calls = {"count": 0}

        def stop_after_one():
            calls["count"] += 1
            return calls["count"] > 1

        rows = []
        engine = ChunkedEngine()
        report = engine.run_chunks(
            [[1, 2], [3, 4], [5]],
            _square,
            lambda i, r: rows.append(r),
            checkpoint=store,
            should_stop=stop_after_one,
        )
        assert rows == [1, 4]
        assert report.stopped_early and report.chunks == 1
        assert store.completed_chunks == (0,)
        # Resuming replays the journaled chunk and finishes the rest.
        resumed_rows = []
        resume_store = CheckpointStore(tmp_path, {"run": "stop-test"})
        resumed = engine.run_chunks(
            [[1, 2], [3, 4], [5]],
            _square,
            lambda i, r: resumed_rows.append(r),
            checkpoint=resume_store,
        )
        assert resumed_rows == [1, 4, 9, 16, 25]
        assert resumed.resumed_chunks == 1 and not resumed.stopped_early

    def test_rejects_non_callable_should_stop(self):
        engine = ChunkedEngine()
        with pytest.raises(ConfigError, match="should_stop must be callable"):
            engine.run_chunks([[1]], _square, lambda i, r: None, should_stop="nope")
