"""Chunk-finished ledger scans: fleet rows stay bit-identical to emulate().

Fast-path vehicles build their ledger inputs inside the engine's per-vehicle
kernel; once a chunk's vehicles have settled, each ledger is scanned by the
run-length scan behind ``trajectory()``.  On whatever chunking or
drive-cycle mix (cohorts of different lengths), fresh or resumed from a
checkpoint, and with a failed vehicle in the chunk, every row must equal a
naive per-vehicle ``emulate()`` bit for bit.
"""

from __future__ import annotations

import pytest

import repro.fleet.runner as fleet_runner
from repro.core.emulator import NodeEmulator
from repro.errors import EmulationError
from repro.fleet import (
    FleetRunner,
    FleetSpec,
    ThermalSpec,
    default_fleet_distributions,
)
from repro.scavenger.storage import scaled_storage
from repro.scenario.spec import ScenarioSpec

VEHICLES = 20


def _constant_fleet(chunk: int) -> FleetSpec:
    """Urban and cruise vehicles: cohorts of different ledger lengths."""
    base = ScenarioSpec(
        name="batched",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
    )
    distributions = default_fleet_distributions(base)
    distributions["drive_cycle"] = {
        "kind": "categorical",
        "params": {
            "choices": [
                {"name": "urban", "params": {"repetitions": 1}},
                {"name": "constant", "params": {"speed_kmh": 40.0, "duration_s": 90.0}},
            ],
            "weights": [2.0, 1.0],
        },
    }
    distributions["storage_capacity"] = {
        "kind": "gaussian-tolerance",
        "params": {"rel_std": 0.05},
    }
    return FleetSpec(
        name="batched-constant",
        base=base,
        vehicles=VEHICLES,
        seed=21,
        distributions=distributions,
        chunk_vehicles=chunk,
    )


def _thermal_fleet(chunk: int) -> FleetSpec:
    base = ScenarioSpec(
        name="batched-thermal",
        drive_cycle={"name": "urban", "params": {"repetitions": 1}},
    )
    distributions = {
        key: value
        for key, value in default_fleet_distributions(base).items()
        if key != "temperature_c"
    }
    distributions["ambient_offset_c"] = {
        "kind": "correlated-normal",
        "params": {"std": 6.0, "correlation": 0.5},
    }
    return FleetSpec(
        name="batched-thermal",
        base=base,
        vehicles=VEHICLES,
        seed=22,
        distributions=distributions,
        thermal=ThermalSpec(),
        chunk_vehicles=chunk,
    )


FLEETS = {"constant": _constant_fleet, "thermal": _thermal_fleet}
CHUNKS = (3, 8, 64)


def _naive_summaries(fleet: FleetSpec) -> list[dict]:
    """One fresh emulator per vehicle (with the fleet's thermal model)."""
    thermal = fleet.thermal
    summaries = []
    for vehicle in fleet.materialize():
        spec = vehicle.scenario
        emulator = NodeEmulator(
            spec.build_node(),
            spec.build_database(),
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
            thermal_model=thermal.build(spec.temperature_c) if thermal is not None else None,
        )
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        summaries.append(emulator.emulate(cycle).summary())
    return summaries


@pytest.fixture(scope="module")
def naive():
    """Naive summaries per (fleet kind, chunking), computed once."""
    return {
        (kind, chunk): _naive_summaries(build(chunk))
        for kind, build in FLEETS.items()
        for chunk in CHUNKS
    }


class TestRowsEqualNaiveEmulate:
    @pytest.mark.parametrize("start", ["fresh", "resumed"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_rows_bit_identical(self, naive, kind, chunk, start, tmp_path):
        fleet = FLEETS[kind](chunk)
        if start == "resumed":
            # Stop after one chunk, then finish from the journal: replayed
            # rows pass through the checkpoint's JSON and must come back exact.
            checkpoint = str(tmp_path / "ckpt")
            FleetRunner(fleet, checkpoint=checkpoint, max_chunks=1).run()
            result = FleetRunner(fleet, checkpoint=checkpoint).run()
            assert result.metadata["resumed_chunks"] == 1
        else:
            result = FleetRunner(fleet).run()
        metadata = result.metadata
        assert metadata["fast_path_vehicles"] == VEHICLES
        rows = result.vehicle_rows
        assert len(rows) == len(naive[(kind, chunk)])
        for row, summary in zip(rows, naive[(kind, chunk)]):
            for key, value in summary.items():
                assert row[key] == value, (kind, chunk, start, row["vehicle"], key)

    def test_the_constant_fleet_is_ragged(self):
        cycles = {vehicle.scenario.drive_cycle.name for vehicle in _constant_fleet(8).materialize()}
        assert cycles == {"urban", "constant"}


class TestFailuresInsideBatchedChunks:
    def test_a_failed_vehicle_leaves_its_chunk_mates_identical(self, monkeypatch):
        reference = FleetRunner(_constant_fleet(8)).run()
        real = fleet_runner._cohort_vehicle_outcome

        def flaky(vehicle_index, *args, **kwargs):
            if vehicle_index == 2:
                raise EmulationError("injected fault on vehicle 2")
            return real(vehicle_index, *args, **kwargs)

        monkeypatch.setattr(fleet_runner, "_cohort_vehicle_outcome", flaky)
        result = FleetRunner(_constant_fleet(8), retries=1).run()
        assert [failure["index"] for failure in result.metadata["failures"]] == [2]
        expected = [row for row in reference.vehicle_rows if row["vehicle"] != 2]
        assert result.vehicle_rows == expected
