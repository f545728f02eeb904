"""Fleet runner resume semantics: checkpointing, partial runs, streaming."""

from __future__ import annotations

import json

import pytest

from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.spec import FleetVehicle
from repro.scenario.spec import ScenarioSpec


def _fleet(vehicles: int = 12, seed: int = 5, chunk: int = 4) -> FleetSpec:
    base = ScenarioSpec(
        name="resume",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
    )
    return FleetSpec.from_base(base, vehicles=vehicles, seed=seed, chunk_vehicles=chunk)


def _digest(result) -> str:
    """Canonical byte-level digest of everything a run exports."""
    return json.dumps(
        {
            "summary": result.summary,
            "survival": result.survival,
            "rows": result.vehicle_rows,
        },
        sort_keys=True,
        allow_nan=True,
    )


@pytest.fixture(scope="module")
def fresh_result():
    """One uninterrupted reference run shared by the comparison tests."""
    return FleetRunner(_fleet()).run()


class TestResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path, fresh_result):
        ckpt = str(tmp_path / "ckpt")
        partial = FleetRunner(_fleet(), checkpoint=ckpt, max_chunks=2).run()
        assert partial.metadata["partial"] is True
        assert partial.metadata["chunks_completed"] == 2
        assert partial.metadata["chunks_total"] == 3
        assert partial.metadata["vehicles_run"] == 8

        resumed = FleetRunner(_fleet(), checkpoint=ckpt).run()
        assert resumed.metadata["partial"] is False
        assert resumed.metadata["resumed_chunks"] == 2
        assert resumed.metadata["resumed_vehicles"] == 8
        assert _digest(resumed) == _digest(fresh_result)

    def test_full_replay_is_byte_identical(self, tmp_path, fresh_result):
        ckpt = str(tmp_path / "ckpt")
        FleetRunner(_fleet(), checkpoint=ckpt).run()
        replayed = FleetRunner(_fleet(), checkpoint=ckpt).run()
        assert replayed.metadata["resumed_chunks"] == replayed.metadata["chunks_total"] == 3
        assert _digest(replayed) == _digest(fresh_result)

    def test_resume_across_successive_stops_is_byte_identical(self, tmp_path):
        # The journal carries results, not scheduling: a run stopped twice,
        # after different chunk budgets, finishes to the uninterrupted bytes.
        fleet = _fleet(chunk=2)
        ckpt = str(tmp_path / "ckpt")
        first = FleetRunner(fleet, checkpoint=ckpt, max_chunks=1).run()
        second = FleetRunner(fleet, checkpoint=ckpt, max_chunks=3).run()
        assert (first.metadata["chunks_completed"], second.metadata["chunks_completed"]) == (1, 4)
        assert second.metadata["resumed_chunks"] == 1 and second.metadata["partial"]
        resumed = FleetRunner(fleet, checkpoint=ckpt).run()
        assert resumed.metadata["resumed_chunks"] == 4
        assert not resumed.metadata["partial"]
        assert _digest(resumed) == _digest(FleetRunner(fleet).run())

    def test_should_stop_then_resume_is_byte_identical(self, tmp_path, fresh_result):
        # A stop requested mid-run lands on a chunk boundary; the resumed
        # run replays what was journaled and finishes to the fresh bytes.
        ckpt = str(tmp_path / "ckpt")
        chunks_seen = []

        def progress(event):
            if event["event"] == "chunk":
                chunks_seen.append(event["chunk"])

        stopped = FleetRunner(
            _fleet(), checkpoint=ckpt, progress=progress, should_stop=lambda: bool(chunks_seen)
        ).run()
        assert stopped.metadata["partial"] and stopped.metadata["chunks_completed"] == 1
        resumed = FleetRunner(_fleet(), checkpoint=ckpt).run()
        assert resumed.metadata["resumed_chunks"] == 1
        assert _digest(resumed) == _digest(fresh_result)

    def test_checkpointed_first_run_is_byte_identical_to_plain(self, tmp_path, fresh_result):
        checkpointed = FleetRunner(_fleet(), checkpoint=str(tmp_path / "ckpt")).run()
        assert _digest(checkpointed) == _digest(fresh_result)

    def test_max_chunks_without_checkpoint_is_just_partial(self, fresh_result):
        partial = FleetRunner(_fleet(), max_chunks=1).run()
        assert partial.metadata["partial"] is True
        assert partial.vehicle_rows == fresh_result.vehicle_rows[:4]

    def test_checkpoint_key_pins_runner_parameters(self, tmp_path):
        from repro.errors import CheckpointError

        ckpt = str(tmp_path / "ckpt")
        FleetRunner(_fleet(), checkpoint=ckpt, max_chunks=1).run()
        with pytest.raises(CheckpointError, match="belongs to a different run"):
            FleetRunner(_fleet(), checkpoint=ckpt, record_interval_s=2.0).run()


class TestStreamingMaterialization:
    def test_runner_never_calls_eager_materialize(self, monkeypatch, fresh_result):
        def exploding_materialize(self):  # pragma: no cover - must not run
            raise AssertionError("the runner eagerly materialized the population")

        monkeypatch.setattr(FleetSpec, "materialize", exploding_materialize)
        result = FleetRunner(_fleet()).run()
        assert _digest(result) == _digest(fresh_result)

    def test_parent_holds_at_most_one_chunk_of_vehicles(self, monkeypatch):
        """The in-flight FleetVehicle population is bounded by the chunk size."""
        import gc

        fleet = _fleet(vehicles=12, chunk=4)
        peak = {"alive": 0}
        original_sample = FleetSpec._sample_chunk

        def counting_sample(self, samplers, shared, chunk_index, count):
            gc.collect()
            alive = sum(
                1 for obj in gc.get_objects() if isinstance(obj, FleetVehicle)
            )
            peak["alive"] = max(peak["alive"], alive)
            return original_sample(self, samplers, shared, chunk_index, count)

        monkeypatch.setattr(FleetSpec, "_sample_chunk", counting_sample)
        FleetRunner(fleet).run()
        # At each chunk boundary the previous chunk's vehicles are already
        # garbage: the parent never accumulates the population.
        assert peak["alive"] <= fleet.chunk_vehicles

    def test_parent_holds_at_most_one_chunk_of_columns(self, monkeypatch):
        """Each pass streams column chunks: at most one is alive per pass."""
        import gc

        from repro.fleet.spec import FleetChunk

        fleet = _fleet(vehicles=12, chunk=4)
        peak = {"alive": 0}
        original_sample = FleetSpec._sample_chunk

        def counting_sample(self, samplers, shared, chunk_index, count):
            gc.collect()
            alive = sum(1 for obj in gc.get_objects() if isinstance(obj, FleetChunk))
            peak["alive"] = max(peak["alive"], alive)
            return original_sample(self, samplers, shared, chunk_index, count)

        monkeypatch.setattr(FleetSpec, "_sample_chunk", counting_sample)
        FleetRunner(fleet).run()
        # Drawing chunk c, the pass still holds chunk c - 1 and nothing older.
        assert peak["alive"] <= 1

    def test_discovery_and_execution_chunk_twice(self):
        # Two streaming passes (discovery + execution), not one eager build.
        fleet = _fleet(vehicles=8, chunk=4)
        calls = []
        original = FleetSpec.iter_chunks

        def counting_iter(self):
            calls.append(1)
            return original(self)

        import unittest.mock

        with unittest.mock.patch.object(FleetSpec, "iter_chunks", counting_iter):
            FleetRunner(fleet).run()
        assert len(calls) == 2
