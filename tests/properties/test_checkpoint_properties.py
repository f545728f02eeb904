"""Property-based fault injection on the checkpoint journal (hypothesis).

Whatever happens to a chunk file — its writer killed at any write step,
its bytes truncated or flipped afterwards, two stores racing to journal
it — a fleet run resumed from the directory must export bytes identical
to an uninterrupted run, or raise a one-line :class:`CheckpointError`.
Never a silently different result.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.fleet import FleetRunner, FleetSpec
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.spec import ScenarioSpec

CHUNKS = 3
_FLEET = FleetSpec.from_base(
    ScenarioSpec(name="props", drive_cycle={"name": "urban", "params": {"repetitions": 1}}),
    vehicles=2 * CHUNKS,
    seed=17,
    chunk_vehicles=2,
)
_KEY = {"kind": "race", "seed": 1}

#: Exit status of a writer killed by the injected fault.
_KILLED = 137


def _export(result) -> bytes:
    """Every file a fleet run exports, concatenated."""
    with tempfile.TemporaryDirectory() as directory:
        base = Path(directory)
        result.to_json(base / "summary.json")
        result.survival_to_csv(base / "survival.csv")
        result.vehicles_to_csv(base / "vehicles.csv")
        return b"\0".join(
            (base / name).read_bytes() for name in ("summary.json", "survival.csv", "vehicles.csv")
        )


def _resume(directory: Path) -> bytes | CheckpointError:
    """A resumed run's export, or the one-line error it raised."""
    try:
        return _export(FleetRunner(_FLEET, checkpoint=str(directory)).run())
    except CheckpointError as error:
        assert "\n" not in str(error)
        return error


@pytest.fixture(scope="module")
def clean() -> bytes:
    """The uninterrupted run every resumed run must match."""
    return _export(FleetRunner(_FLEET).run())


@pytest.fixture(scope="module")
def journal(tmp_path_factory) -> Path:
    """A complete journal of the fleet, copied before each damage."""
    directory = tmp_path_factory.mktemp("journal")
    FleetRunner(_FLEET, checkpoint=str(directory)).run()
    return directory


def _run_until_killed(directory: Path, chunk: int, step: str) -> int:
    """Run the journaled fleet in a forked writer killed at one write step.

    ``step`` names where chunk ``chunk``'s writer dies: ``"tmp-written"``
    (at the fsync of its complete tmp file), ``"before-link"`` (the tmp is
    fsync'd, the final name not yet made) or ``"after-link"`` (the final
    name exists, the directory is not yet fsync'd).  The writer leaves
    whatever a killed process leaves: no cleanup runs.
    """
    pid = os.fork()
    if pid:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        real_fsync, real_link = os.fsync, os.link
        seen = {"file": 0, "dir": 0, "link": 0}

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            seen[kind] += 1
            dying = {"tmp-written": "file", "after-link": "dir"}.get(step)
            if kind == dying and seen[kind] == chunk + 1:
                os._exit(_KILLED)
            real_fsync(fd)

        def link(source, target):
            seen["link"] += 1
            if step == "before-link" and seen["link"] == chunk + 1:
                os._exit(_KILLED)
            real_link(source, target)

        with mock.patch.object(os, "fsync", fsync), mock.patch.object(os, "link", link):
            FleetRunner(_FLEET, checkpoint=str(directory)).run()
    finally:
        os._exit(1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestKilledWriter:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        chunk=st.integers(0, CHUNKS - 1),
        step=st.sampled_from(["tmp-written", "before-link", "after-link"]),
    )
    def test_resume_after_a_killed_writer_is_identical(self, clean, chunk, step):
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            assert _run_until_killed(directory, chunk, step) == _KILLED
            linked = chunk + (step == "after-link")
            assert sorted(path.name for path in directory.glob("chunk-*.json")) == [
                f"chunk-{index:05d}.json" for index in range(linked)
            ]
            # The dead writer's tmp file is still there, and is never read.
            assert list(directory.glob(f"chunk-{chunk:05d}.json.*.tmp"))
            assert _resume(directory) == clean
            assert not list(directory.glob("*.tmp"))  # the resume removed it


class TestDamagedChunkFile:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        chunk=st.integers(0, CHUNKS - 1),
        truncate=st.booleans(),
        offset=st.integers(0, 10**6),
        bit=st.integers(0, 7),
    )
    def test_damage_is_caught_or_harmless(self, clean, journal, chunk, truncate, offset, bit):
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory) / "ckpt"
            shutil.copytree(journal, directory)
            path = directory / f"chunk-{chunk:05d}.json"
            blob = bytearray(path.read_bytes())
            offset %= len(blob)
            if truncate:
                del blob[offset:]
            else:
                blob[offset] ^= 1 << bit
            path.write_bytes(bytes(blob))
            outcome = _resume(directory)
            if truncate:
                assert isinstance(outcome, CheckpointError)
            else:
                assert isinstance(outcome, CheckpointError) or outcome == clean


class TestRacingStores:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        results=st.lists(
            st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=8)),
            max_size=6,
        ),
        chunk=st.integers(0, 99),
    )
    def test_two_stores_racing_on_one_chunk_agree(self, results, chunk):
        with tempfile.TemporaryDirectory() as directory:
            stores = [CheckpointStore(directory, _KEY) for _ in range(2)]
            barrier = threading.Barrier(2, timeout=10)
            paths: list[Path] = [None, None]

            def record(slot):
                barrier.wait()
                paths[slot] = stores[slot].record_chunk(
                    chunk, results=results, wall_times_s=[float(slot)] * len(results)
                )

            threads = [threading.Thread(target=record, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert paths[0] == paths[1]
            assert sorted(os.listdir(directory)) == [paths[0].name]
            loaded, wall_times, failures = CheckpointStore(directory, _KEY).load_chunk(
                chunk, expected_items=len(results)
            )
            assert json.dumps(loaded) == json.dumps(results)
            assert wall_times in ([0.0] * len(results), [1.0] * len(results))
            assert failures == []

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(chunk=st.integers(0, CHUNKS - 1))
    def test_racing_fleet_runs_resume_identically(self, clean, chunk):
        """Two runs journal one directory at once, meeting on one chunk."""
        real_record = CheckpointStore.record_chunk
        barrier = threading.Barrier(2, timeout=30)

        def record(store, chunk_index, *args, **kwargs):
            if chunk_index == chunk:
                barrier.wait()
            return real_record(store, chunk_index, *args, **kwargs)

        with tempfile.TemporaryDirectory() as directory:
            exports: list[bytes] = []

            def run():
                exports.append(_export(FleetRunner(_FLEET, checkpoint=directory).run()))

            with mock.patch.object(CheckpointStore, "record_chunk", record):
                threads = [threading.Thread(target=run) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert exports == [clean, clean]
            assert sorted(os.listdir(directory)) == [
                f"chunk-{index:05d}.json" for index in range(CHUNKS)
            ]
            assert _resume(Path(directory)) == clean
