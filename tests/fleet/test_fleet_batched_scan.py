"""The chunk-batched ledger scan: fleet rows stay bit-identical to emulate().

Fast-path vehicles build their ledger inputs inside the engine's per-vehicle
kernel; once a chunk's vehicles have settled, their ledgers are scanned
together by one ``batched_scan`` (or one by one, below
``BATCHED_SCAN_MIN_VEHICLES``).  Whichever way a chunk goes, on whatever
chunking, worker count or resume history, every row must equal a naive
per-vehicle ``emulate()`` bit for bit.
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
    """Urban and cruise vehicles (cohorts of different lengths: ragged padding)."""
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


def _expected_batched(chunk: int) -> int:
    """Vehicles in chunks at or above the crossover (all fast-path here)."""
    full, rest = divmod(VEHICLES, chunk)
    sizes = [chunk] * full + ([rest] if rest else [])
    return sum(size for size in sizes if size >= fleet_runner.BATCHED_SCAN_MIN_VEHICLES)


class TestRowsEqualNaiveEmulate:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", sorted(FLEETS))
    def test_rows_bit_identical(self, naive, kind, chunk, workers):
        result = FleetRunner(FLEETS[kind](chunk), workers=workers).run()
        metadata = result.metadata
        assert metadata["fast_path_vehicles"] == VEHICLES
        assert metadata["batched_scan_vehicles"] == _expected_batched(chunk)
        rows = result.vehicle_rows
        assert len(rows) == len(naive[(kind, chunk)])
        for row, summary in zip(rows, naive[(kind, chunk)]):
            for key, value in summary.items():
                assert row[key] == value, (kind, chunk, workers, row["vehicle"], key)

    def test_the_constant_fleet_is_ragged(self):
        cycles = {vehicle.scenario.drive_cycle.name for vehicle in _constant_fleet(8).materialize()}
        assert cycles == {"urban", "constant"}

    def test_batched_and_per_vehicle_scans_agree(self, monkeypatch):
        batched = FleetRunner(_constant_fleet(64)).run()
        monkeypatch.setattr(fleet_runner, "BATCHED_SCAN_MIN_VEHICLES", VEHICLES + 1)
        single = FleetRunner(_constant_fleet(64)).run()
        assert batched.metadata["batched_scan_vehicles"] == VEHICLES
        assert single.metadata["batched_scan_vehicles"] == 0
        assert batched.vehicle_rows == single.vehicle_rows
        assert batched.survival == single.survival
        assert batched.summary == single.summary


class TestResumeAcrossTheCrossover:
    def test_unbatched_journal_resumes_under_batching(self, tmp_path, monkeypatch):
        fresh = FleetRunner(_constant_fleet(8)).run()
        assert fresh.metadata["batched_scan_vehicles"] == 16

        ckpt = str(tmp_path / "ckpt")
        with monkeypatch.context() as patch:
            # Batching off: the first chunk is journaled from per-vehicle scans.
            patch.setattr(fleet_runner, "BATCHED_SCAN_MIN_VEHICLES", VEHICLES + 1)
            partial = FleetRunner(_constant_fleet(8), checkpoint=ckpt, max_chunks=1).run()
        assert partial.metadata["partial"] is True
        assert partial.metadata["batched_scan_vehicles"] == 0

        resumed = FleetRunner(_constant_fleet(8), checkpoint=ckpt).run()
        assert resumed.metadata["resumed_chunks"] == 1
        assert resumed.metadata["batched_scan_vehicles"] == 8
        for result, stem in ((fresh, "fresh"), (resumed, "resumed")):
            result.to_json(tmp_path / f"{stem}.json")
            result.survival_to_csv(tmp_path / f"{stem}-survival.csv")
            result.vehicles_to_csv(tmp_path / f"{stem}-vehicles.csv")
        for suffix in (".json", "-survival.csv", "-vehicles.csv"):
            fresh_bytes = (tmp_path / f"fresh{suffix}").read_bytes()
            assert (tmp_path / f"resumed{suffix}").read_bytes() == fresh_bytes


class TestFailuresInsideBatchedChunks:
    def test_a_failed_vehicle_leaves_its_chunk_mates_identical(self, monkeypatch):
        reference = FleetRunner(_constant_fleet(8)).run()
        real = fleet_runner._cohort_vehicle_outcome

        def flaky(vehicle_index, *args, **kwargs):
            if vehicle_index == 2:
                raise EmulationError("injected fault on vehicle 2")
            return real(vehicle_index, *args, **kwargs)

        monkeypatch.setattr(fleet_runner, "_cohort_vehicle_outcome", flaky)
        result = FleetRunner(_constant_fleet(8), retries=1, retry_backoff_s=0.0).run()
        assert [failure["index"] for failure in result.metadata["failures"]] == [2]
        # Seven pending vehicles are left in the first chunk: below the
        # crossover, so they scan one by one; the second chunk batches.
        assert result.metadata["batched_scan_vehicles"] == 8
        expected = [row for row in reference.vehicle_rows if row["vehicle"] != 2]
        assert result.vehicle_rows == expected
