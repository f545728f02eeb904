"""Golden result bytes: committed digests of exported fleets and emulations.

``emulate()``, the fleet runner and the naive reference all resolve their
revolution energies through the same emulator code, so a drift in that code
would move all three together and the bit-identity tests between them would
still pass.  These digests were recorded from exported files before the
resolver's last rewrite; any change to them is a change of results.

``golden/fleet_exports.sha256`` (``sha256sum`` format) holds the digests of
the 24-vehicle, seed-3 export of ``examples/scenarios/fleet.json`` and of its
thermal variant, and of a 256-vehicle, seed-11 urban x2 fleet with the
default population around ``examples/scenarios/quickstart.json``, every one
of whose ledgers the free-ledger certificate takes without a scan; CI's
resume-smoke step checks its own fresh exports against the same file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.scenario.spec import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "examples" / "scenarios"
FLEET_DIGESTS = Path(__file__).resolve().parent / "golden" / "fleet_exports.sha256"

#: sha256 of ``json.dumps({"summary", "trace", "log"}, sort_keys=True)`` of a
#: cold ``emulate()`` of ``quickstart.json`` with a 100-160 s trace window:
#: isothermal, and with a default ``TyreThermalModel``.
EMULATE_DIGESTS = {
    "isothermal": "5962e27e765512db2cdb62c08c87621d514577f3f250bdfde2569b2b2d4ac35c",
    "thermal": "81e5115c487eebcb66f3475b05bfb2f3ff7033b93ccf442fa5cbbe1d29013a8f",
}


def _fleet_digests() -> dict[str, str]:
    lines = FLEET_DIGESTS.read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", ["fresh", "thermal"])
def test_fleet_exports_match_the_golden_digests(variant, tmp_path, capsys):
    document = json.loads((SCENARIOS / "fleet.json").read_text())
    if variant == "thermal":
        document["thermal"] = {}
    fleet = tmp_path / "fleet.json"
    fleet.write_text(json.dumps(document))
    exports = {
        "--export": tmp_path / f"{variant}.json",
        "--export-vehicles": tmp_path / f"{variant}-vehicles.json",
        "--export-survival": tmp_path / f"{variant}-survival.json",
    }
    argv = ["fleet", "--fleet", str(fleet), "--vehicles", "24", "--seed", "3"]
    argv += ["--chunk-vehicles", "6"]
    for option, path in exports.items():
        argv += [option, str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    golden = _fleet_digests()
    for path in exports.values():
        assert _sha256(path) == golden[path.name], path.name


def test_all_certified_urban_fleet_matches_the_golden_digests(tmp_path, capsys, monkeypatch):
    import repro.core.emulator as emulator_module

    scans = []
    scan = emulator_module.trajectory

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(emulator_module, "trajectory", counting)
    exports = {
        "--export": tmp_path / "urban.json",
        "--export-vehicles": tmp_path / "urban-vehicles.json",
        "--export-survival": tmp_path / "urban-survival.json",
    }
    argv = ["fleet", "--scenario", str(SCENARIOS / "quickstart.json")]
    argv += ["--vehicles", "256", "--seed", "11"]
    for option, path in exports.items():
        argv += [option, str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert scans == []
    golden = _fleet_digests()
    for path in exports.values():
        assert _sha256(path) == golden[path.name], path.name


@pytest.mark.parametrize("variant", sorted(EMULATE_DIGESTS))
def test_cold_emulate_matches_the_golden_digest(variant):
    spec = load_scenario(SCENARIOS / "quickstart.json")
    node, database, evaluator = spec.build_components()
    emulator = NodeEmulator(
        node,
        database,
        spec.build_scavenger(),
        spec.build_storage(),
        base_point=spec.operating_point(),
        thermal_model=TyreThermalModel(ambient_celsius=25.0) if variant == "thermal" else None,
        evaluator=evaluator,
    )
    result = emulator.emulate(spec.build_drive_cycle(), trace_window=(100.0, 160.0))
    document = {
        "summary": result.summary(),
        "trace": result.trace.segments(),
        "log": {name: column.tolist() for name, column in result.sample_arrays().items()},
    }
    text = json.dumps(document, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EMULATE_DIGESTS[variant]
