"""Thermal fleet fast path: bit-identity, error contract, observability.

The tentpole claim under test: with a :class:`ThermalSpec` on the fleet,
cycle materialization replays the tyre thermal model once per
(cycle, speed-scale, ambient-bin) cohort and the cross-vehicle bin-union
sweep spans (speed, temperature, phase-pattern) triples — yet every
per-vehicle figure is bitwise identical to a naive ``emulate()`` with the
same thermal model, across worker counts and backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.emulator import NodeEmulator
from repro.core.quantize import ambient_bin, ambient_bin_center_c
from repro.errors import ConfigError, ConfigurationError
from repro.fleet import (
    FleetRunner,
    FleetSpec,
    ThermalSpec,
    default_fleet_distributions,
)
from repro.scavenger.storage import scaled_storage
from repro.scenario.spec import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parent.parent.parent / "examples" / "scenarios"


def _thermal_fleet(vehicles: int = 16, seed: int = 13, **fleet_overrides) -> FleetSpec:
    base = ScenarioSpec(
        name="thermal-base",
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
    kwargs = {
        "name": "thermal-fleet",
        "base": base,
        "vehicles": vehicles,
        "seed": seed,
        "distributions": distributions,
        "thermal": ThermalSpec(),
    }
    kwargs.update(fleet_overrides)
    return FleetSpec(**kwargs)


def _naive_summaries(fleet: FleetSpec) -> list[dict]:
    """The reference loop: one fresh thermal emulator per vehicle."""
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
            thermal_model=thermal.build(spec.temperature_c) if thermal else None,
        )
        cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
        summaries.append(emulator.emulate(cycle).summary())
    return summaries


@pytest.fixture(scope="module")
def thermal_fleet() -> FleetSpec:
    return _thermal_fleet()


@pytest.fixture(scope="module")
def naive_reference(thermal_fleet) -> list[dict]:
    return _naive_summaries(thermal_fleet)


@pytest.fixture(scope="module")
def sequential_result(thermal_fleet):
    return FleetRunner(thermal_fleet).run()


class TestThermalSpec:
    def test_round_trips_through_fleet_document(self, thermal_fleet):
        rebuilt = FleetSpec.from_dict(thermal_fleet.to_dict())
        assert rebuilt == thermal_fleet
        assert rebuilt.thermal == ThermalSpec()
        assert rebuilt.to_dict() == thermal_fleet.to_dict()

    def test_document_omits_thermal_when_unset(self):
        # The thermal key is absent (not null) for isothermal fleets so
        # pre-thermal documents keep their digests — and their RNG streams.
        fleet = _thermal_fleet(thermal=None, distributions={})
        assert "thermal" not in fleet.to_dict()
        assert FleetSpec.from_dict(fleet.to_dict()).thermal is None

    def test_coerce_accepts_mapping(self):
        spec = ThermalSpec.coerce({"time_constant_s": 300.0})
        assert spec.time_constant_s == 300.0
        assert spec.rise_coefficient == ThermalSpec().rise_coefficient

    def test_coerce_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown field"):
            ThermalSpec.coerce({"rise": 0.1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rise_coefficient", -0.1),
            ("max_rise_c", float("nan")),
            ("time_constant_s", 0.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ThermalSpec(**{field: value})

    def test_offset_and_absolute_ambient_are_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            _thermal_fleet(
                distributions={
                    "temperature_c": {
                        "kind": "correlated-normal",
                        "params": {"mean": 25.0, "std": 4.0},
                    },
                    "ambient_offset_c": {
                        "kind": "correlated-normal",
                        "params": {"std": 4.0},
                    },
                }
            )


class TestMaterialization:
    def test_ambients_snap_to_bin_centers(self, thermal_fleet):
        # The FP contract: a replayed trajectory is a function of its exact
        # float ambient, so thermal fleets only realize bin-center ambients.
        temperatures = {v.scenario.temperature_c for v in thermal_fleet.materialize()}
        assert len(temperatures) > 1  # the offset axis actually spreads
        for temperature in temperatures:
            assert temperature == ambient_bin_center_c(ambient_bin(temperature))

    def test_offsets_center_on_the_base_ambient(self, thermal_fleet):
        # Zero-mean offsets around the base ambient: every realized ambient
        # stays within a few standard deviations of the base (the correlated
        # fleet-wide component shifts the whole population, so the sample
        # mean itself is not tightly centred at n=16).
        base = thermal_fleet.base.temperature_c
        temperatures = [v.scenario.temperature_c for v in thermal_fleet.materialize()]
        assert all(abs(t - base) < 5 * 6.0 for t in temperatures)

    def test_isothermal_fleet_does_not_snap(self):
        fleet = _thermal_fleet(thermal=None)
        temps = [v.scenario.temperature_c for v in fleet.materialize()]
        snapped = [t for t in temps if t != ambient_bin_center_c(ambient_bin(t))]
        assert snapped  # offsets stay exact floats without a thermal model


class TestBitIdentity:
    def test_fast_path_matches_naive_thermal_emulate(self, sequential_result, naive_reference):
        assert len(sequential_result.vehicle_rows) == len(naive_reference)
        for row, summary in zip(sequential_result.vehicle_rows, naive_reference):
            for key, value in summary.items():
                assert row[key] == value, f"fleet row diverged on {key!r}"

    def test_threaded_rows_identical(self, thermal_fleet, sequential_result):
        threaded = FleetRunner(thermal_fleet, workers=2, backend="thread").run()
        assert threaded.vehicle_rows == sequential_result.vehicle_rows

    def test_process_rows_identical(self, thermal_fleet, sequential_result):
        processed = FleetRunner(thermal_fleet, workers=2, backend="process").run()
        assert processed.vehicle_rows == sequential_result.vehicle_rows


class TestObservability:
    def test_clean_run_counts_every_vehicle_fast(self, thermal_fleet, sequential_result):
        metadata = sequential_result.metadata
        assert metadata["fast_path_vehicles"] == thermal_fleet.vehicles

    def test_thermal_document_and_quantum_reported(self, sequential_result):
        metadata = sequential_result.metadata
        assert metadata["thermal"] == ThermalSpec().to_dict()
        assert metadata["ambient_quantum_c"] == 2.0

    def test_isothermal_metadata_shape(self):
        result = FleetRunner(_thermal_fleet(vehicles=4, thermal=None)).run()
        metadata = result.metadata
        assert metadata["thermal"] is None
        assert metadata["ambient_quantum_c"] is None
        assert metadata["fast_path_vehicles"] == 4


class TestSharedWalks:
    def test_one_walk_per_cycle_and_scale(self, monkeypatch):
        # Thermal cohorts split by ambient bin, but cohorts on the same
        # (cycle, speed scale) share one walk of it.
        document = json.loads((SCENARIOS / "fleet.json").read_text())
        document["thermal"] = {}
        fleet = FleetSpec.from_dict(document).with_population(vehicles=24, seed=3, chunk_vehicles=6)
        walks = []
        materialize = NodeEmulator.materialize_cycle
        monkeypatch.setattr(
            NodeEmulator,
            "materialize_cycle",
            lambda self, *args: walks.append(1) or materialize(self, *args),
        )
        result = FleetRunner(fleet).run()
        pairs = {
            (
                json.dumps(vehicle.scenario.to_dict()["drive_cycle"], sort_keys=True),
                vehicle.speed_scale,
            )
            for vehicle in fleet.materialize()
        }
        assert len(walks) == len(pairs) == 10
        assert result.metadata["cohorts"] > len(walks)


class TestFallbackContract:
    def test_out_of_range_trajectory_errors_like_naive(self):
        # Self-heating from a near-ceiling ambient leaves the modelled
        # range: the cohort's scan stops at the offending unit, and the
        # error surfaces with exactly the message the naive loop raises.
        base = ScenarioSpec(
            name="hot",
            temperature_c=199.0,
            drive_cycle={"name": "urban", "params": {"repetitions": 3}},
        )
        fleet = FleetSpec(
            name="hot-fleet",
            base=base,
            vehicles=2,
            seed=1,
            distributions={},
            thermal=ThermalSpec(),
        )
        with pytest.raises(ConfigurationError) as naive_error:
            _naive_summaries(fleet)
        with pytest.raises(ConfigurationError) as fleet_error:
            FleetRunner(fleet).run()
        assert str(fleet_error.value) == str(naive_error.value)
