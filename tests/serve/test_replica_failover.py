"""Fault injection: SIGKILL a serving replica mid-job, survive via failover.

The full multi-replica resilience story in one test module: two real
``tpms-energy serve`` processes share a store directory and a checkpoint
root; a fleet job is submitted to replica A, which is SIGKILLed after it
journals its first chunk.  The replica-aware client fails over to replica
B, resubmits the content-addressed request, and replica B resumes from
the shared journal — and the bytes the client finally receives are
identical to an uninterrupted single-process run of the same request.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.fleet import FleetRunner, FleetSpec
from repro.scenario.spec import ScenarioSpec
from repro.serve import ServeClient, encode_document, fleet_result_document

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="SIGKILL-based fault injection"
)

FLEET_DOC = {
    "scenario": {
        "name": "replica-failover",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 2}},
    },
    "vehicles": 24,
    "seed": 11,
    "chunk_vehicles": 3,
}


def _expected_bytes() -> bytes:
    """The uninterrupted run's result document, computed in this process."""
    fleet = FleetSpec.from_base(
        ScenarioSpec.from_dict(FLEET_DOC["scenario"])
    ).with_population(vehicles=24, seed=11, chunk_vehicles=3)
    # keep_vehicle_rows=False matches the serve request default.
    return encode_document(
        fleet_result_document(FleetRunner(fleet, keep_vehicle_rows=False).run())
    )


class _Replica:
    """One ``tpms-energy serve`` child process bound to an ephemeral port."""

    def __init__(self, store_dir: Path, checkpoint_dir: Path) -> None:
        source_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_root) + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--store-dir",
                str(store_dir),
                "--checkpoint-dir",
                str(checkpoint_dir),
                "--job-workers",
                "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port = self._parse_banner()

    def _parse_banner(self) -> int:
        # The CLI prints the bound endpoint from the ready callback, so
        # ``--port 0`` still announces the real kernel-assigned port.
        lines = []
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise AssertionError(
                    f"replica exited before binding; output:\n{''.join(lines)}"
                )
            lines.append(line)
            if "serving on http://" in line:
                return int(line.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill_hard(self) -> None:
        os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait(timeout=30)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()


@pytest.fixture
def replicas(tmp_path):
    store_dir = tmp_path / "store"
    checkpoint_dir = tmp_path / "ckpt"
    pair = [_Replica(store_dir, checkpoint_dir) for _ in range(2)]
    yield pair
    for replica in pair:
        replica.close()


def test_replica_kill_mid_job_fails_over_resumes_and_matches_bytes(replicas, tmp_path):
    alpha, beta = replicas
    client = ServeClient(
        endpoints=[f"127.0.0.1:{alpha.port}", f"127.0.0.1:{beta.port}"],
        retries=3,
        timeout=30,
    )
    assert client.health()["pid"] == alpha.pid  # replica A is serving

    # Submit to A and wait until it has journaled at least one chunk, so
    # the kill provably lands mid-job with resumable work on disk.
    job = client.submit_fleet(FLEET_DOC)
    deadline = time.monotonic() + 120
    document = job
    while document["progress"]["chunks_done"] < 1:
        assert time.monotonic() < deadline, "replica A never completed a chunk"
        assert document["state"] != "failed", document
        document = client.job(job["id"], wait=5.0, version=document["version"])

    alpha.kill_hard()
    journals = list((tmp_path / "ckpt").glob("*/chunk-*.json"))
    assert journals, "no checkpoint journal survived the kill"

    # The resubmitted request rides failover to B, resumes from the shared
    # journal, and completes — not partial, byte-identical to an
    # uninterrupted single-process run.
    final, payload = client.run_fleet(FLEET_DOC, timeout=300)
    assert final["state"] == "done" and not final["partial"]
    assert payload == _expected_bytes()
    health = client.health()
    assert health["pid"] == beta.pid  # the answer came from replica B
    # B's run went through the shared store; a re-submission replays it.
    assert health["store"]["entries"] >= 1
    replay, replay_bytes = client.run_fleet(FLEET_DOC, timeout=60)
    assert replay["store_hit"] and replay_bytes == payload
