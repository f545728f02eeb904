"""Free and non-free ledgers side by side in one cohort and one chunk.

A vehicle whose ledger the scan certifies free (active throughout, nothing
clipped) takes its totals, survival and ``active_at_end`` from constants of
its walk and cohort; any other vehicle takes them from its trajectory.
Storage-capacity and scavenger-size tolerances put both kinds of vehicle in
the same cohort and chunk, on the sequential, thread and process backends,
and every row and survival curve must equal the per-revolution reference
(``naive_emulate``) by ``float.hex``.  Call counting pins the hoisting: one
ledger demand per cohort per run, one ``trajectory`` call per vehicle.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.emulator as emulator_module
import repro.fleet.runner as fleet_runner
import repro.scavenger.storage as storage_module
from repro.core.emulator import NodeEmulator
from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.aggregate import FleetAccumulator
from repro.scavenger.storage import scaled_storage
from repro.scenario.spec import ScenarioSpec

from naive_reference import naive_emulate

VEHICLES = 24
CHUNK = 8
BUCKETS = 10

#: (scavenger size, drive-cycle repetitions): a small scavenger browns some
#: vehicles out, a large one fills some storage elements to the capacity.
FLEETS = {"brownout": (0.01, 2), "full": (8.0, 1)}


def _fleet(kind: str) -> FleetSpec:
    size, repetitions = FLEETS[kind]
    base = ScenarioSpec.from_dict(
        {
            "name": f"free-{kind}",
            "scavenger": "piezoelectric",
            "scavenger_size": size,
            "storage": "supercapacitor",
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
def naive():
    return {kind: _naive_outcomes(_fleet(kind)) for kind in FLEETS}


def _run(kind: str, workers: int, backend: str, monkeypatch) -> tuple[list, list, dict]:
    """The run's vehicle rows, per-vehicle survival curves (sink order) and metadata."""
    survivals = []
    add = FleetAccumulator.add

    def recording(self, outcome):
        survivals.append(outcome["survival"])
        return add(self, outcome)

    monkeypatch.setattr(FleetAccumulator, "add", recording)
    result = FleetRunner(
        _fleet(kind), workers=workers, backend=backend, survival_buckets=BUCKETS
    ).run()
    return result.vehicle_rows, survivals, result.metadata


class TestFreeBoundary:
    @pytest.mark.parametrize("workers, backend", [(1, "thread"), (2, "thread"), (2, "process")])
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_rows_and_survival_equal_the_reference(
        self, naive, kind, workers, backend, monkeypatch
    ):
        rows, survivals, metadata = _run(kind, workers, backend, monkeypatch)
        assert metadata["engine_backend"] == (backend if workers > 1 else "sequential")
        assert metadata["cohorts"] == 1
        assert len(rows) == VEHICLES
        for row, survival, (figures, expected) in zip(rows, survivals, naive[kind], strict=True):
            for key, value in figures.items():
                assert _hex(row[key]) == _hex(value), (kind, backend, row["vehicle"], key)
            assert [_hex(x) for x in survival] == [_hex(x) for x in expected], row["vehicle"]

    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_a_chunk_holds_free_and_non_free_ledgers(self, kind, monkeypatch):
        free = []
        scan = NodeEmulator._scan_ledger

        def spy(self, *args):
            traj = scan(self, *args)
            free.append(traj.free)
            return traj

        monkeypatch.setattr(NodeEmulator, "_scan_ledger", spy)
        FleetRunner(_fleet(kind)).run()
        chunks = [set(free[start : start + CHUNK]) for start in range(0, VEHICLES, CHUNK)]
        assert {True, False} in chunks, (kind, free)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_one_demand_per_cohort_and_one_scan_per_vehicle(self, kind, workers, monkeypatch):
        calls = {}
        for module, name in (
            (fleet_runner, "ledger_leak"),
            (storage_module, "ledger_leak"),
            (emulator_module, "ledger_demand"),
            (emulator_module, "trajectory"),
        ):
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            calls[key] = 0
            real = getattr(module, name)

            def counting(*args, _real=real, _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        result = FleetRunner(_fleet(kind), workers=workers).run()
        assert result.metadata["cohorts"] == 1
        assert calls == {
            "runner.ledger_leak": 1,  # one walk
            "storage.ledger_leak": 0,  # the runner hands the walk's leak in
            "emulator.ledger_demand": 1,  # one cohort
            "emulator.trajectory": VEHICLES,
        }
