"""CheckpointStore: crash-safe journaling, digests, one-line failure modes."""

import hashlib
import json
import math
import os

import pytest

from repro.errors import CheckpointError
from repro.fleet import FleetRunner, FleetSpec
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.spec import ScenarioSpec


KEY = {"kind": "test", "seed": 7, "spec": {"name": "x"}}


class TestCheckpointStore:
    def test_fresh_directory_stays_empty(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", KEY)
        assert list((tmp_path / "ckpt").iterdir()) == []
        assert store.completed_chunks == ()

    def test_chunk_file_header_certifies_its_body(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        path = store.record_chunk(2, results=[1, 2], wall_times_s=[0.0, 0.0])
        line, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        assert header == {
            "checkpoint": 2,
            "key_sha256": store.key_sha256,
            "chunk": 2,
            "items": 2,
            "sha256": hashlib.sha256(body).hexdigest(),
        }

    def test_record_and_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        results = [{"value": 1.5}, {"value": 2.25}]
        store.record_chunk(0, results=results, wall_times_s=[0.1, 0.2])
        assert store.has_chunk(0)
        assert not store.has_chunk(1)
        loaded, wall_times, failures = store.load_chunk(0, expected_items=2)
        assert loaded == results
        assert wall_times == [0.1, 0.2]
        assert failures == []

    def test_reopen_sees_journaled_chunks(self, tmp_path):
        CheckpointStore(tmp_path, KEY).record_chunk(3, results=[1], wall_times_s=[0.0])
        reopened = CheckpointStore(tmp_path, KEY)
        assert reopened.completed_chunks == (3,)
        assert reopened.load_chunk(3)[0] == [1]

    def test_nan_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        store.record_chunk(0, results=[{"v": float("nan")}], wall_times_s=[0.0])
        loaded, _, _ = CheckpointStore(tmp_path, KEY).load_chunk(0)
        assert math.isnan(loaded[0]["v"])

    def test_float_values_round_trip_exactly(self, tmp_path):
        values = [0.1, 1e-300, 2**53 - 1.0, -3.141592653589793]
        store = CheckpointStore(tmp_path, KEY)
        store.record_chunk(0, results=values, wall_times_s=[0.0] * 4)
        assert CheckpointStore(tmp_path, KEY).load_chunk(0)[0] == values

    def test_failures_are_journaled(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        failure = {"index": 1, "attempts": 2, "kind": "exception", "error": "boom"}
        store.record_chunk(0, results=[5, None], wall_times_s=[0.1, 0.0], failures=[failure])
        _, _, failures = CheckpointStore(tmp_path, KEY).load_chunk(0)
        assert failures == [failure]

    def test_different_key_is_refused(self, tmp_path):
        CheckpointStore(tmp_path, KEY).record_chunk(0, results=[1], wall_times_s=[0.0])
        with pytest.raises(CheckpointError, match="belongs to a different run"):
            CheckpointStore(tmp_path, {**KEY, "seed": 8})

    def test_empty_directory_holds_no_run(self, tmp_path):
        """Nothing is journaled until a chunk lands, so any run may claim it."""
        CheckpointStore(tmp_path, KEY)
        assert CheckpointStore(tmp_path, {**KEY, "seed": 8}).completed_chunks == ()

    def test_corrupt_header_is_one_line_actionable(self, tmp_path):
        path = CheckpointStore(tmp_path, KEY).record_chunk(0, results=[1], wall_times_s=[0.0])
        path.write_bytes(b"{ truncated")
        with pytest.raises(
            CheckpointError, match="unsupported layout.*version 2.*delete the checkpoint"
        ):
            CheckpointStore(tmp_path, KEY)

    def test_unsupported_version_is_refused(self, tmp_path):
        path = CheckpointStore(tmp_path, KEY).record_chunk(0, results=[1], wall_times_s=[0.0])
        line, _, body = path.read_bytes().partition(b"\n")
        header = {**json.loads(line), "checkpoint": 99}
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(CheckpointError, match="unsupported layout"):
            CheckpointStore(tmp_path, KEY)

    def test_old_manifest_layout_is_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"checkpoint": 1, "key_sha256": "x", "chunks": {}}), encoding="utf-8"
        )
        with pytest.raises(CheckpointError, match="unsupported layout \\(expected version 2\\)"):
            CheckpointStore(tmp_path, KEY)

    def test_header_naming_another_chunk_is_refused(self, tmp_path):
        path = CheckpointStore(tmp_path, KEY).record_chunk(0, results=[1], wall_times_s=[0.0])
        path.rename(tmp_path / "chunk-00003.json")
        with pytest.raises(CheckpointError, match="unsupported layout"):
            CheckpointStore(tmp_path, KEY)

    def test_truncated_chunk_file_fails_digest(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        path = store.record_chunk(0, results=[1, 2, 3], wall_times_s=[0.0] * 3)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="corrupt \\(digest mismatch\\)"):
            CheckpointStore(tmp_path, KEY).load_chunk(0)

    def test_missing_chunk_file(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        path = store.record_chunk(0, results=[1], wall_times_s=[0.0])
        path.unlink()
        with pytest.raises(CheckpointError, match="chunk-00000.json is missing"):
            store.load_chunk(0)
        with pytest.raises(CheckpointError, match="chunk 0 is not journaled"):
            CheckpointStore(tmp_path, KEY).load_chunk(0)

    def test_item_count_mismatch_names_the_cause(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        store.record_chunk(0, results=[1, 2], wall_times_s=[0.0, 0.0])
        with pytest.raises(CheckpointError, match="run parameters changed"):
            store.load_chunk(0, expected_items=5)

    def test_unjournaled_chunk_load_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        with pytest.raises(CheckpointError, match="not journaled"):
            store.load_chunk(4)

    def test_headerless_chunk_file_is_refused(self, tmp_path):
        """A chunk file without a header is not silently trusted."""
        store = CheckpointStore(tmp_path, KEY)
        (tmp_path / "chunk-00001.json").write_text('{"results": [9]}', encoding="utf-8")
        with pytest.raises(CheckpointError, match="unsupported layout"):
            store.load_chunk(1)
        with pytest.raises(CheckpointError, match="unsupported layout"):
            CheckpointStore(tmp_path, KEY)

    def test_stray_tmp_file_is_ignored(self, tmp_path):
        """A writer that died before linking (crash window) leaves only a tmp file."""
        (tmp_path / "chunk-00001.json.dead.tmp").write_bytes(b"half a chu")
        assert not CheckpointStore(tmp_path, KEY).has_chunk(1)

    def test_stray_tmp_files_are_removed_once_their_chunk_is_journaled(self, tmp_path):
        CheckpointStore(tmp_path, KEY).record_chunk(0, results=[1], wall_times_s=[0.0])
        (tmp_path / "chunk-00000.json.died-after-link.tmp").write_bytes(b"chunk 0")
        (tmp_path / "chunk-00001.json.died-before-link.tmp").write_bytes(b"half")
        store = CheckpointStore(tmp_path, KEY)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "chunk-00000.json",
            "chunk-00001.json.died-before-link.tmp",
        ]
        store.record_chunk(1, results=[2], wall_times_s=[0.0])
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "chunk-00000.json",
            "chunk-00001.json",
        ]

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        store.record_chunk(0, results=[1], wall_times_s=[0.0])
        assert not list(tmp_path.glob("*.tmp"))

    def test_link_failure_is_one_line_checkpoint_error(self, tmp_path, monkeypatch):
        def no_links(source, target):
            raise PermissionError(1, "Operation not permitted")

        store = CheckpointStore(tmp_path, KEY)
        monkeypatch.setattr(os, "link", no_links)
        with pytest.raises(CheckpointError, match="cannot journal chunk 0") as raised:
            store.record_chunk(0, results=[1], wall_times_s=[0.0])
        assert "\n" not in str(raised.value)
        assert list(tmp_path.iterdir()) == []
        assert not store.has_chunk(0)

    def test_unserializable_results_raise_checkpoint_error(self, tmp_path):
        store = CheckpointStore(tmp_path, KEY)
        with pytest.raises(CheckpointError, match="not JSON-serializable"):
            store.record_chunk(0, results=[object()], wall_times_s=[0.0])

    def test_key_must_be_canonical_json(self, tmp_path):
        with pytest.raises(CheckpointError, match="not canonical JSON"):
            CheckpointStore(tmp_path, {"bad": object()})

    def test_concurrent_stores_never_clobber_each_other(self, tmp_path):
        """Two replicas journaling one run never drop each other's chunks."""
        alpha = CheckpointStore(tmp_path, KEY)
        beta = CheckpointStore(tmp_path, KEY)
        alpha.record_chunk(0, results=[1, 2], wall_times_s=[0.0, 0.0])
        # beta opened before alpha's write, and still sees chunk 0: it would
        # replay it instead of computing it again.
        assert beta.has_chunk(0)
        assert beta.load_chunk(0)[0] == [1, 2]
        beta.record_chunk(1, results=[3, 4], wall_times_s=[0.0, 0.0])
        assert alpha.has_chunk(1)
        assert beta.completed_chunks == (0, 1)
        survivor = CheckpointStore(tmp_path, KEY)
        assert survivor.completed_chunks == (0, 1)
        assert survivor.load_chunk(0)[0] == [1, 2]
        assert survivor.load_chunk(1)[0] == [3, 4]

    def test_foreign_journaled_chunk_wins_over_a_re_record(self, tmp_path):
        alpha = CheckpointStore(tmp_path, KEY)
        beta = CheckpointStore(tmp_path, KEY)
        first = alpha.record_chunk(0, results=[1], wall_times_s=[0.1])
        # beta computed the same chunk concurrently; the journaled file wins
        # (byte-identical by construction) and beta adopts it.
        second = beta.record_chunk(0, results=[1], wall_times_s=[0.2])
        assert second == first
        assert CheckpointStore(tmp_path, KEY).load_chunk(0)[1] == [0.1]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["chunk-00000.json"]

    def test_tmp_file_swept_by_the_winning_store_is_adopted(self, tmp_path, monkeypatch):
        """The winner of a race may remove the loser's tmp file before it links."""
        alpha = CheckpointStore(tmp_path, KEY)
        beta = CheckpointStore(tmp_path, KEY)
        real_link = os.link

        def lose_the_race(source, target):
            monkeypatch.setattr(os, "link", real_link)
            alpha.record_chunk(0, results=[1], wall_times_s=[0.1])
            os.remove(source)
            real_link(source, target)

        monkeypatch.setattr(os, "link", lose_the_race)
        path = beta.record_chunk(0, results=[1], wall_times_s=[0.2])
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert beta.load_chunk(0)[1] == [0.1]

    def test_stores_of_two_runs_on_one_empty_directory_collide_loudly(self, tmp_path):
        """Two runs that claim one empty directory cannot interleave their chunks."""
        alpha = CheckpointStore(tmp_path, KEY)
        beta = CheckpointStore(tmp_path, {**KEY, "seed": 8})
        alpha.record_chunk(0, results=[1], wall_times_s=[0.0])
        with pytest.raises(CheckpointError, match="belongs to a different run") as raised:
            beta.record_chunk(0, results=[2], wall_times_s=[0.0])
        assert "\n" not in str(raised.value)
        assert beta.has_chunk(0)  # alpha's file is listed, and refused on load
        with pytest.raises(CheckpointError, match="belongs to a different run"):
            beta.load_chunk(0)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["chunk-00000.json"]


def test_journaled_fleet_run_keeps_only_chunk_files(tmp_path, monkeypatch):
    """No manifest, no lock file, and one file plus one directory fsync per chunk."""
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    base = ScenarioSpec(name="journal", drive_cycle={"name": "urban", "params": {"repetitions": 1}})
    fleet = FleetSpec.from_base(base, vehicles=8, seed=5, chunk_vehicles=2)
    FleetRunner(fleet, checkpoint=str(tmp_path)).run()
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "manifest.lock").exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"chunk-{index:05d}.json" for index in range(4)
    ]
    assert len(fsyncs) == 2 * 4
