"""Fault injection: flaky components, dying workers, damaged checkpoints.

Every scenario here either recovers to a byte-identical result or fails
with a one-line actionable error — never a half-written journal, never a
silent partial aggregate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import CheckpointError, EngineError
from repro.fleet import FleetRunner, FleetSpec
from repro.scavenger.piezoelectric import PiezoelectricScavenger
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine
from repro.scenario.registry import SCAVENGERS
from repro.scenario.spec import ScenarioSpec

# ---------------------------------------------------------------------------
# Flaky registry-injected scavenger
# ---------------------------------------------------------------------------

#: Module-level glitch state so every vehicle kernel sees the same counters.
_FLAKY = {"remaining": 0, "calls": 0}


class _FlakyScavenger(PiezoelectricScavenger):
    """Piezo harvester whose vectorized sweep glitches for the first N calls."""

    def raw_energy_sweep_j(self, speeds_kmh):
        _FLAKY["calls"] += 1
        if _FLAKY["remaining"] > 0:
            _FLAKY["remaining"] -= 1
            raise RuntimeError("transient sensor glitch")
        return super().raw_energy_sweep_j(speeds_kmh)


@pytest.fixture
def flaky_scavenger():
    SCAVENGERS.register("flaky-piezo", _FlakyScavenger)
    _FLAKY["remaining"] = 0
    _FLAKY["calls"] = 0
    try:
        yield
    finally:
        SCAVENGERS.unregister("flaky-piezo")


def _fleet(scavenger: str = "flaky-piezo", vehicles: int = 8, chunk: int = 3) -> FleetSpec:
    base = ScenarioSpec(
        name="faulty",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
        scavenger=scavenger,
    )
    return FleetSpec.from_base(base, vehicles=vehicles, seed=11, chunk_vehicles=chunk)


class TestFlakyScavenger:
    def test_retries_recover_to_identical_rows(self, flaky_scavenger):
        reference = FleetRunner(_fleet()).run()
        assert _FLAKY["calls"] > 0  # the injected scavenger really ran

        _FLAKY["remaining"] = 2
        recovered = FleetRunner(_fleet(), retries=2).run()
        assert _FLAKY["remaining"] == 0  # both glitches fired
        assert recovered.metadata["failures"] == []
        assert recovered.metadata["partial"] is False
        assert recovered.metadata["retries"] >= 2
        assert recovered.vehicle_rows == reference.vehicle_rows
        assert recovered.summary == reference.summary

    def test_without_retries_the_glitch_aborts_the_run(self, flaky_scavenger):
        _FLAKY["remaining"] = 1
        with pytest.raises(RuntimeError, match="transient sensor glitch"):
            FleetRunner(_fleet()).run()

    def test_exhausted_budget_degrades_to_structured_failures(self, flaky_scavenger):
        # 4 glitches against a 1-retry budget: the first two vehicles burn
        # both their attempts and fail; the rest of the fleet completes.
        _FLAKY["remaining"] = 4
        result = FleetRunner(_fleet(), retries=1).run()
        metadata = result.metadata
        assert metadata["vehicles_failed"] == 2
        assert metadata["partial"] is True
        assert [failure["index"] for failure in metadata["failures"]] == [0, 1]
        assert all(
            failure["kind"] == "exception" and "glitch" in failure["error"]
            for failure in metadata["failures"]
        )
        assert len(result.vehicle_rows) == 6
        assert result.summary["vehicles"] == 6
        # Surviving rows are untouched by the neighbours' failures.
        reference = FleetRunner(_fleet()).run()
        assert result.vehicle_rows == reference.vehicle_rows[2:]


# ---------------------------------------------------------------------------
# Worker killed mid-chunk
# ---------------------------------------------------------------------------


def _dying_worker(payload):
    """Module-level process worker that kills its process once per flag file."""
    value, flag_path = payload
    if value == 5 and not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8") as handle:
            handle.write("died here once\n")
            handle.flush()
            os.fsync(handle.fileno())
        os._exit(3)
    return value * 2


class TestWorkerDeath:
    def test_pool_rebuilt_and_run_completed_within_budget(self, tmp_path):
        flag = str(tmp_path / "died.flag")
        received = []
        report = ChunkedEngine(workers=2, backend="process", retries=1).run(
            range(10),
            kernel=lambda x: x * 2,
            sink=lambda i, r: received.append((i, r)),
            process_worker=_dying_worker,
            process_payload=lambda item: (item, flag),
        )
        assert received == [(i, i * 2) for i in range(10)]
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert report.failures == ()
        assert os.path.exists(flag)

    def test_without_retries_death_is_a_structured_engine_error(self, tmp_path):
        flag = str(tmp_path / "never-written-twice.flag")
        with pytest.raises(EngineError, match=r"process worker died while running item"):
            ChunkedEngine(workers=2, backend="process").run(
                range(10),
                kernel=lambda x: x * 2,
                sink=lambda i, r: None,
                process_worker=_dying_worker,
                process_payload=lambda item: (item, flag),
            )


# ---------------------------------------------------------------------------
# Kernel failing mid-chunk under run_chunks
# ---------------------------------------------------------------------------


def _failing_kernel(flag_path: str):
    """A kernel that raises on item 5 until its flag file exists."""

    def kernel(value):
        if value == 5 and not os.path.exists(flag_path):
            raise RuntimeError("item 5 failed")
        return value * 2

    return kernel


class TestChunkAbort:
    def test_run_chunks_raises_the_kernel_error_unchanged(self, tmp_path):
        # Without retries the kernel's own error ends the run, as it is.
        with pytest.raises(RuntimeError) as raised:
            ChunkedEngine().run_chunks(
                [[0, 1, 2], [3, 4, 5, 6, 7], [8, 9]],
                kernel=_failing_kernel(str(tmp_path / "never.flag")),
                sink=lambda i, r: None,
            )
        assert str(raised.value) == "item 5 failed"

    def test_abort_then_resume_is_identical_to_a_clean_run(self, tmp_path):
        """A mid-chunk failure with checkpointing resumes to the clean result."""
        flag = tmp_path / "fixed.flag"
        chunks = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        key = {"kind": "abort-test", "items": 10}

        # Interrupted run: item 5 raises and aborts the run (no retries), but
        # chunk 0 is already journaled.
        store = CheckpointStore(tmp_path / "ckpt", key)
        with pytest.raises(RuntimeError, match="item 5 failed"):
            ChunkedEngine().run_chunks(
                chunks,
                kernel=_failing_kernel(str(flag)),
                sink=lambda i, r: None,
                checkpoint=store,
            )
        assert store.completed_chunks == (0,)

        # Resume: chunk 0 replays, the rest computes (the flag file makes the
        # kernel succeed now) — the combined stream equals a clean run.
        flag.write_text("fixed\n")
        resumed = []
        report = ChunkedEngine().run_chunks(
            chunks,
            kernel=_failing_kernel(str(flag)),
            sink=lambda i, r: resumed.append((i, r)),
            checkpoint=CheckpointStore(tmp_path / "ckpt", key),
        )
        assert resumed == [(i, i * 2) for i in range(10)]
        assert report.resumed_chunks == 1


# ---------------------------------------------------------------------------
# Damaged checkpoints under the fleet runner
# ---------------------------------------------------------------------------


def _plain_fleet(vehicles: int = 9, chunk: int = 3) -> FleetSpec:
    base = ScenarioSpec(
        name="damage",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
    )
    return FleetSpec.from_base(base, vehicles=vehicles, seed=13, chunk_vehicles=chunk)


class TestDamagedCheckpoints:
    def test_truncated_chunk_file_is_one_line_actionable(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        FleetRunner(_plain_fleet(), checkpoint=str(ckpt), max_chunks=2).run()
        chunk_file = ckpt / "chunk-00000.json"
        chunk_file.write_bytes(chunk_file.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="corrupt \\(digest mismatch\\).*rerun"):
            FleetRunner(_plain_fleet(), checkpoint=str(ckpt)).run()

    def test_corrupted_chunk_header_is_one_line_actionable(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        FleetRunner(_plain_fleet(), checkpoint=str(ckpt), max_chunks=1).run()
        chunk_file = ckpt / "chunk-00000.json"
        header, _, body = chunk_file.read_bytes().partition(b"\n")
        chunk_file.write_bytes(header[:-30] + b"\n" + body)
        with pytest.raises(CheckpointError, match="unsupported layout.*delete the checkpoint"):
            FleetRunner(_plain_fleet(), checkpoint=str(ckpt)).run()

    def test_checkpoint_of_a_different_fleet_is_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        FleetRunner(_plain_fleet(), checkpoint=str(ckpt), max_chunks=1).run()
        other = _plain_fleet().with_population(seed=99)
        with pytest.raises(CheckpointError, match="belongs to a different run"):
            FleetRunner(other, checkpoint=str(ckpt)).run()

    def test_every_listed_chunk_file_passes_its_digest(self, tmp_path):
        """Crash-ordering invariant: a chunk file is complete the moment its

        final name appears, so every listed file loads digest-checked."""
        ckpt = tmp_path / "ckpt"
        runner = FleetRunner(_plain_fleet(), checkpoint=str(ckpt))
        runner.run()
        listed = sorted(ckpt.glob("chunk-*.json"))
        assert listed  # the run journaled something
        store = CheckpointStore(ckpt, json.loads(json.dumps(runner.checkpoint_key())))
        assert [path.name for path in listed] == [
            f"chunk-{index:05d}.json" for index in store.completed_chunks
        ]
        for index in store.completed_chunks:
            store.load_chunk(index)  # digest-checked load must succeed
