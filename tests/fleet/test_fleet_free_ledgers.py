"""Certified, scanned-free and event-taking ledgers side by side in one cohort and chunk.

A vehicle whose ledger the certificate (``certify_free``) decides free is
never scanned; one it declines is scanned once, and a scan that finds the
ledger free finishes it like a certified one.  Free ledgers take their
totals, survival and ``active_at_end`` from constants of their walk and
cohort; any other vehicle takes them from its trajectory.  Storage-capacity
and scavenger-size tolerances put certified and scanned vehicles in the
same cohort and chunk; a fleet whose storage starts full sits one step away
from a clipped deposit, which the certificate declines while the scan finds
every ledger free; a conditioned scavenger is never eligible.  Every row
and survival curve, fresh or resumed from a checkpoint, must equal the
per-revolution reference (``naive_emulate``) by ``float.hex``.
Call counting pins the hoisting: one ledger demand per cohort per run, one
``trajectory`` call per vehicle the certificate declines and none for a
vehicle it certifies.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.core.emulator as emulator_module
import repro.fleet.runner as fleet_runner
import repro.scavenger.storage as storage_module
from repro.core.emulator import NodeEmulator
from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.aggregate import FleetAccumulator
from repro.scavenger.conditioning import ConditionedScavenger, conditioned
from repro.scavenger.piezoelectric import PiezoelectricScavenger
from repro.scavenger.storage import scaled_storage
from repro.scenario.registry import SCAVENGERS
from repro.scenario.spec import ScenarioSpec

from naive_reference import naive_emulate

VEHICLES = 24
CHUNK = 8
BUCKETS = 10

#: (scavenger, scavenger size, storage, drive-cycle repetitions).  A small
#: scavenger browns some vehicles out and a large one fills some storage
#: elements to the capacity, so both fleets mix certified and scanned
#: vehicles.  A storage element that starts full takes no event when its
#: first unit harvests nothing, but the certificate's margin declines it.
#: A conditioned scavenger's harvest is no multiple of a unit-size sweep.
FLEETS = {
    "brownout": ("piezoelectric", 0.01, "supercapacitor", 2),
    "full": ("piezoelectric", 8.0, "supercapacitor", 1),
    "near-boundary": (
        "piezoelectric",
        1.0,
        {"name": "supercapacitor", "params": {"initial_fraction": 1.0}},
        1,
    ),
    "conditioned": ("conditioned-piezoelectric", 1.0, "supercapacitor", 1),
}


def _conditioned_piezoelectric() -> ConditionedScavenger:
    return conditioned(PiezoelectricScavenger())


@pytest.fixture(scope="module", autouse=True)
def conditioned_scavenger():
    # Registered before any fleet runs.
    SCAVENGERS.register("conditioned-piezoelectric", _conditioned_piezoelectric)
    try:
        yield
    finally:
        SCAVENGERS.unregister("conditioned-piezoelectric")


def _fleet(kind: str) -> FleetSpec:
    scavenger, size, storage, repetitions = FLEETS[kind]
    base = ScenarioSpec.from_dict(
        {
            "name": f"free-{kind}",
            "scavenger": scavenger,
            "scavenger_size": size,
            "storage": storage,
            "drive_cycle": {"name": "urban", "params": {"repetitions": repetitions}},
        }
    )
    # No speed or temperature axis: every vehicle is on one walk and in one cohort.
    return FleetSpec(
        name=f"free-{kind}",
        base=base,
        vehicles=VEHICLES,
        seed=7,
        chunk_vehicles=CHUNK,
        distributions={
            "scavenger_size": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.3}},
            "storage_capacity": {"kind": "gaussian-tolerance", "params": {"rel_std": 0.3}},
        },
    )


def _hex(value) -> object:
    return float(value).hex() if isinstance(value, float) else value


def _naive_outcomes(fleet: FleetSpec) -> list[tuple[dict, tuple]]:
    """Per vehicle: the reference row figures and survival curve."""
    outcomes = []
    for vehicle in fleet.materialize():
        spec = vehicle.scenario
        emulator = NodeEmulator(
            spec.build_node(),
            spec.build_database(),
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
        )
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        result = naive_emulate(emulator, cycle)
        log = result.sample_arrays()
        figures = dict(result.summary())
        figures["active_at_end"] = bool(log["node_active"][-1])
        index = np.minimum(
            (log["time_s"] / cycle.duration_s * BUCKETS).astype(np.intp), BUCKETS - 1
        )
        counts = np.bincount(index, minlength=BUCKETS)
        active = np.bincount(index, weights=log["node_active"].astype(float), minlength=BUCKETS)
        survival = np.where(counts > 0, active / np.maximum(counts, 1), np.nan)
        outcomes.append((figures, tuple(survival.tolist())))
    return outcomes


@pytest.fixture(scope="module")
def naive(conditioned_scavenger):
    return {kind: _naive_outcomes(_fleet(kind)) for kind in FLEETS}


def _run(kind: str, monkeypatch, checkpoint: str | None = None) -> tuple[list, list, dict]:
    """The run's vehicle rows, per-vehicle survival curves (sink order) and metadata.

    With a ``checkpoint``, the run stops after one chunk and is resumed;
    the curves are those of the resumed run, replayed chunk included.
    """
    survivals = []
    add = FleetAccumulator.add

    def recording(self, outcome):
        survivals.append(outcome["survival"])
        return add(self, outcome)

    monkeypatch.setattr(FleetAccumulator, "add", recording)
    if checkpoint is not None:
        FleetRunner(
            _fleet(kind), survival_buckets=BUCKETS, checkpoint=checkpoint, max_chunks=1
        ).run()
        survivals.clear()
    result = FleetRunner(_fleet(kind), survival_buckets=BUCKETS, checkpoint=checkpoint).run()
    return result.vehicle_rows, survivals, result.metadata


class TestFreeBoundary:
    @pytest.mark.parametrize("start", ["fresh", "resumed"])
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_rows_and_survival_equal_the_reference(
        self, naive, kind, start, monkeypatch, tmp_path
    ):
        checkpoint = str(tmp_path / "ckpt") if start == "resumed" else None
        rows, survivals, metadata = _run(kind, monkeypatch, checkpoint)
        assert metadata["resumed_chunks"] == (1 if checkpoint else 0)
        assert metadata["cohorts"] == 1
        assert len(rows) == VEHICLES
        for row, survival, (figures, expected) in zip(rows, survivals, naive[kind], strict=True):
            for key, value in figures.items():
                assert _hex(row[key]) == _hex(value), (kind, start, row["vehicle"], key)
            assert [_hex(x) for x in survival] == [_hex(x) for x in expected], row["vehicle"]

    def _ledger_events(self, monkeypatch) -> list[tuple[str, bool]]:
        """Each row's certificate decision (``("certify", decided)``) and scan
        (``("scan", free)``), in order."""
        events = []
        certify = fleet_runner.certify_free
        scan = emulator_module.trajectory

        def certifying(*args):
            decided = certify(*args)
            events.extend(("certify", bool(row)) for row in np.atleast_1d(decided))
            return decided

        def scanning(*args):
            traj = scan(*args)
            events.append(("scan", traj.free))
            return traj

        monkeypatch.setattr(fleet_runner, "certify_free", certifying)
        monkeypatch.setattr(emulator_module, "trajectory", scanning)
        return events

    @pytest.mark.parametrize("kind", ["brownout", "full"])
    def test_a_chunk_holds_certified_and_scanned_vehicles(self, kind, monkeypatch):
        events = self._ledger_events(monkeypatch)
        FleetRunner(_fleet(kind)).run()
        # Every vehicle is offered to the certificate once, with its walk's
        # vehicles of the chunk; a declined one is scanned.
        certified = [decided for event, decided in events if event == "certify"]
        assert len(certified) == VEHICLES
        chunks = [set(certified[start : start + CHUNK]) for start in range(0, VEHICLES, CHUNK)]
        assert {True, False} in chunks, (kind, certified)

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_one_demand_per_cohort_and_one_scan_per_uncertified_vehicle(
        self, kind, runs, monkeypatch
    ):
        events = self._ledger_events(monkeypatch)
        calls = {}
        for module, name in (
            (fleet_runner, "ledger_leak"),
            (storage_module, "ledger_leak"),
            (emulator_module, "ledger_demand"),
        ):
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            calls[key] = 0
            real = getattr(module, name)

            def counting(*args, _real=real, _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        # Nothing carries over from one run to the next: a second run in the
        # same process demands, certifies and scans exactly as the first.
        trails = []
        for _ in range(runs):
            events.clear()
            result = FleetRunner(_fleet(kind)).run()
            trails.append(list(events))
        assert result.metadata["cohorts"] == 1
        assert calls == {
            "runner.ledger_leak": runs,  # one walk per run
            "storage.ledger_leak": 0,  # the runner hands the walk's leak in
            "emulator.ledger_demand": runs,  # one cohort per run
        }
        assert all(trail == trails[0] for trail in trails)
        # The finish certifies a chunk's vehicles on one walk at once, then
        # scans the declined ones in row order.  Per vehicle: "c" certified
        # and never scanned, "ds" declined and scanned once, "s" not
        # eligible and scanned once.  Each chunk's trail is its decisions,
        # then one scan per declined row: moving each scan behind its
        # declined row gives the per-vehicle trail.
        trail = "".join(
            "s" if event == "scan" else "c" if value else "d" for event, value in events
        )
        per_vehicle = ""
        for decisions, scans in re.findall("([cd]*)(s*)", trail):
            declined = decisions.count("d")
            assert len(scans) == declined or not decisions, trail
            per_vehicle += decisions.replace("d", "ds") if decisions else scans
        vehicles = re.findall("c|ds|s", per_vehicle)
        assert "".join(vehicles) == per_vehicle and len(vehicles) == VEHICLES, trail
        scans_free = [value for event, value in events if event == "scan"]
        if kind == "conditioned":
            assert set(vehicles) == {"s"}
        elif kind == "near-boundary":
            assert set(vehicles) == {"ds"} and all(scans_free)
        else:
            assert set(vehicles) == {"c", "ds"}
        for vehicle, row in zip(vehicles, result.vehicle_rows, strict=True):
            if vehicle == "c":
                assert row["brownout_events"] == 0 and row["active_at_end"], row["vehicle"]
