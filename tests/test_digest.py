"""The single-sourced canonical digest (``repro.digest``).

Checkpoint chunk headers, run-package ``run_id``s and the serving layer's
result-store keys all hash documents through this module, so its byte-level
output is pinned here: a refactor that changes any digest silently orphans
every existing checkpoint directory and run package.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.digest import canonical_digest, canonical_json, sha256_hex
from repro.errors import CheckpointError
from repro.fleet import FleetRunner, FleetSpec
from repro.runpkg import validate_run_package, write_run_package
from repro.scenario.checkpoint import CheckpointStore
from repro.serve.jobs import _FleetRequest, _StudyRequest
from repro.serve.store import ResultStore

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: A representative checkpoint-style run key and its pinned digest.  The
#: value was produced by the pre-extraction implementation in
#: ``repro/scenario/checkpoint.py`` (json.dumps(sort_keys=True) → sha256)
#: and MUST NOT change: existing checkpoint directories are keyed by it.
_PINNED_KEY = {
    "kind": "fleet",
    "seed": 42,
    "fleet": {"name": "x", "vehicles": 10, "nested": {"b": 2, "a": 1}},
    "record_interval_s": 1.0,
}
_PINNED_DIGEST = "cefe0e240b91d34f9d3bd02197de99c1a3a624ebdf1b798a0447727c4dd15f16"

#: A representative run-package digest seed and its pinned run_id suffix
#: (the pre-extraction ``runpkg`` discipline: default=str for non-JSON).
_PINNED_RUN_SEED = {"kind": "fleet", "name": "n", "spec": {"a": 1}, "seed": 3, "kpis": {"k": 1.5}}
_PINNED_RUN_ID12 = "621c90612ddc"

#: Real keys of the example documents: the checkpoint run key of
#: ``fleet.json`` at 24 vehicles / seed 3 / chunk 6, and the result-store
#: keys of that fleet request and of a ``montecarlo`` study request over
#: ``quickstart.json``.  Execution policy (workers, backends) never enters
#: them, so any change here orphans existing checkpoints and store entries.
_FLEET_POPULATION = {"vehicles": 24, "seed": 3, "chunk_vehicles": 6}
_PINNED_FLEET_CHECKPOINT = "0beac44be1afac0c1df0f01f2fa525634d222680cbf0ee289efd5f60b24764be"
_PINNED_FLEET_STORE_KEY = "e527efb2ab781046ddf66e025cc216f12280f51794c4115383945c09c0e3873e"
_PINNED_STUDY_STORE_KEY = "0ba774f6346768a633dffcc3e02eeda4b74f13e2f4a930df2214fc7d6cbde7af"


def _example(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text())


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == canonical_json(
            {"a": {"c": 3, "d": 2}, "b": 1}
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_rejects_non_json_without_default(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_default_serializer(self):
        text = canonical_json({"p": 1 + 2j}, default=str)
        assert json.loads(text) == {"p": str(1 + 2j)}


class TestPinnedDigests:
    def test_checkpoint_key_digest_is_pinned(self):
        assert canonical_digest(_PINNED_KEY) == _PINNED_DIGEST

    def test_sha256_hex_matches_text_and_bytes(self):
        text = canonical_json(_PINNED_KEY)
        assert sha256_hex(text) == sha256_hex(text.encode("utf-8")) == _PINNED_DIGEST

    def test_checkpoint_store_uses_the_shared_digest(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", _PINNED_KEY)
        assert store.key_sha256 == _PINNED_DIGEST
        chunk = store.record_chunk(0, results=[1], wall_times_s=[0.0])
        header = json.loads(chunk.read_bytes().partition(b"\n")[0])
        assert header["key_sha256"] == _PINNED_DIGEST

    def test_checkpoint_rejects_undigestable_key(self, tmp_path):
        with pytest.raises(CheckpointError, match="not canonical JSON"):
            CheckpointStore(tmp_path / "ckpt", {"bad": float("inf")})

    def test_run_package_id_is_pinned(self, tmp_path):
        write_run_package(
            tmp_path,
            kind=_PINNED_RUN_SEED["kind"],
            name=_PINNED_RUN_SEED["name"],
            spec_document=_PINNED_RUN_SEED["spec"],
            seed=_PINNED_RUN_SEED["seed"],
            kpis=_PINNED_RUN_SEED["kpis"],
        )
        summary = validate_run_package(tmp_path)
        assert summary["run_id"] == f"n-{_PINNED_RUN_ID12}"
        assert canonical_digest(_PINNED_RUN_SEED, default=str)[:12] == _PINNED_RUN_ID12


class TestPinnedRealKeys:
    def test_fleet_checkpoint_key(self):
        spec = FleetSpec.from_dict(_example("fleet.json")).with_population(**_FLEET_POPULATION)
        assert canonical_digest(FleetRunner(spec).checkpoint_key()) == _PINNED_FLEET_CHECKPOINT

    def test_fleet_store_key(self):
        request = _FleetRequest(
            {"fleet": _example("fleet.json"), **_FLEET_POPULATION}, None, "thread"
        )
        assert ResultStore.key_digest(request.key) == _PINNED_FLEET_STORE_KEY

    def test_montecarlo_study_store_key(self):
        request = _StudyRequest(
            {
                "scenario": _example("quickstart.json"),
                "analysis": "montecarlo",
                "montecarlo": {"samples": 32, "seed": 7},
            },
            None,
            "thread",
        )
        assert ResultStore.key_digest(request.key) == _PINNED_STUDY_STORE_KEY
