"""Tests for the fleet runner: sharing, determinism, aggregate correctness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.emulator import NodeEmulator
from repro.errors import ConfigError
from repro.fleet import FleetResult, FleetRunner, FleetSpec, ThermalSpec, run_fleet
from repro.fleet import runner as fleet_runner
from repro.scavenger.storage import scaled_storage
from repro.scenario.registry import ARCHITECTURES
from repro.scenario.spec import ScenarioSpec
from repro.serve.jobs import encode_document, fleet_result_document


def _fleet(
    vehicles: int = 10, seed: int = 7, chunk_vehicles: int = 64, **base_overrides
) -> FleetSpec:
    kwargs = {
        "name": "base",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
    }
    kwargs.update(base_overrides)
    return FleetSpec.from_base(
        ScenarioSpec(**kwargs), vehicles=vehicles, seed=seed, chunk_vehicles=chunk_vehicles
    )


@pytest.fixture(scope="module")
def sequential_result() -> FleetResult:
    """One sequential reference run shared by the comparison tests."""
    return FleetRunner(_fleet()).run()


class TestValidation:
    def test_needs_a_fleet_spec(self):
        with pytest.raises(ConfigError, match="FleetSpec"):
            FleetRunner({"vehicles": 3})

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            FleetRunner(_fleet(), workers=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            FleetRunner(_fleet(), backend="gpu")

    def test_invalid_record_interval_rejected(self):
        with pytest.raises(ConfigError, match="record interval"):
            FleetRunner(_fleet(), record_interval_s=0.0)

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ConfigError, match="buckets"):
            FleetRunner(_fleet(), survival_buckets=0)


class TestSharing:
    def test_one_evaluator_per_group(self, sequential_result):
        # Every vehicle shares the base architecture/workload/database.
        assert sequential_result.metadata["groups"] == 1
        assert sequential_result.metadata["evaluator_builds"] == 1

    def test_cohorts_far_fewer_than_vehicles(self, sequential_result):
        metadata = sequential_result.metadata
        assert 1 <= metadata["cohorts"] < metadata["vehicles"]
        assert metadata["fast_path_vehicles"] == metadata["vehicles"]

    def test_bins_swept_once_cover_the_population(self, sequential_result):
        assert sequential_result.metadata["shared_energy_bins"] > 0

    def test_no_per_vehicle_specs_or_components(self, monkeypatch):
        # Specs, scavengers, storage elements and registry components are
        # built per run and per cohort, never per vehicle.
        from repro.registry import Registry

        calls = {}

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("with_axes", "build_scavenger", "build_storage"):
            count(ScenarioSpec, name)
        count(Registry, "create")
        fleet = _fleet(vehicles=200, seed=3)
        mix = {"kind": "categorical", "params": {"choices": ["urban", "nedc"]}}
        fleet = replace(fleet, distributions={**dict(fleet.distributions), "drive_cycle": mix})
        result = FleetRunner(fleet).run()
        cohorts = result.metadata["cohorts"]
        assert result.metadata["vehicles"] == 200 and cohorts < 50
        assert calls["build_scavenger"] == calls["build_storage"] == 1
        assert set(calls) == {"with_axes", "build_scavenger", "build_storage", "create"}
        assert all(value <= cohorts for value in calls.values()), calls

    def test_quantization_constants_are_single_sourced(self, sequential_result):
        from repro.core import quantize

        assert sequential_result.metadata["speed_quantum_kmh"] == quantize.SPEED_QUANTUM_KMH
        assert sequential_result.metadata["temperature_quantum_c"] == quantize.TEMPERATURE_QUANTUM_C


class TestCorrectness:
    def test_rows_bit_identical_to_naive_per_vehicle_emulate(self, sequential_result):
        """The acceptance bar: sharing can never change a vehicle's figures."""
        fleet = _fleet()
        for vehicle, row in zip(fleet.materialize(), sequential_result.vehicle_rows):
            spec = vehicle.scenario
            emulator = NodeEmulator(
                spec.build_node(),
                spec.build_database(),
                spec.build_scavenger(),
                scaled_storage(spec.build_storage(), vehicle.storage_scale),
                base_point=spec.operating_point(),
            )
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            summary = emulator.emulate(cycle).summary()
            for key, value in summary.items():
                assert row[key] == value

    def test_summary_row_matches_vehicle_rows(self, sequential_result):
        rows = sequential_result.vehicle_rows
        summary = sequential_result.summary
        assert summary["vehicles"] == len(rows)
        assert summary["mean_coverage_pct"] == pytest.approx(
            float(np.mean([row["revolution_coverage_pct"] for row in rows]))
        )
        assert summary["net_mj_p50"] == pytest.approx(
            float(np.percentile([row["net_mj"] for row in rows], 50.0))
        )
        assert summary["brownout_per_hour_p90"] == pytest.approx(
            float(np.percentile([row["brownout_per_hour"] for row in rows], 90.0))
        )

    def test_survival_curve_shape(self, sequential_result):
        survival = sequential_result.survival
        assert len(survival) == sequential_result.metadata["survival_buckets"]
        for row in survival:
            assert 0.0 <= row["surviving_pct"] <= 100.0
            assert row["vehicles"] == sequential_result.metadata["vehicles"]

    def test_deficit_fleet_reports_brownouts(self):
        # An undersized scavenger on a long cycle must brown out: the fleet
        # statistics have to see it.
        fleet = FleetSpec.from_base(
            ScenarioSpec(
                name="deficit",
                scavenger_size=0.05,
                drive_cycle={"name": "urban", "params": {"repetitions": 2}},
            ),
            vehicles=6,
            seed=3,
        )
        result = FleetRunner(fleet).run()
        assert result.summary["brownout_per_hour_p90"] > 0.0
        assert result.summary["surviving_at_end_pct"] < 100.0
        curve = [row["surviving_pct"] for row in result.survival]
        assert min(curve) < 100.0


class TestDeterminism:
    def test_thread_workers_identical_aggregates(self, sequential_result):
        parallel = FleetRunner(_fleet(), workers=4).run()
        assert parallel.summary == sequential_result.summary
        assert parallel.survival == sequential_result.survival
        assert parallel.vehicle_rows == sequential_result.vehicle_rows

    def test_process_backend_identical_aggregates(self, sequential_result):
        process = FleetRunner(_fleet(), workers=2, backend="process").run()
        assert process.summary == sequential_result.summary
        assert process.survival == sequential_result.survival
        assert process.vehicle_rows == sequential_result.vehicle_rows

    def test_process_fleet_inside_another_keeps_both_tables(self):
        # A second process-backend fleet runs to completion between the
        # first one's chunks (as two serve job workers can): neither may see
        # the other's shared tables, and both match their sequential bytes.
        inner_fleet = _fleet(vehicles=4, seed=8)
        inner: list[FleetResult] = []

        def run_inner(event):
            if event["event"] == "chunk" and not inner:
                inner.append(FleetRunner(inner_fleet, workers=2, backend="process").run())

        outer_fleet = _fleet(chunk_vehicles=4)
        outer = FleetRunner(outer_fleet, workers=2, backend="process", progress=run_inner).run()
        assert outer.metadata["chunks_completed"] == 3
        assert outer.metadata["engine_backend"] == "process"
        for result, fleet in ((outer, outer_fleet), (inner[0], inner_fleet)):
            sequential = FleetRunner(fleet).run()
            assert encode_document(fleet_result_document(result)) == encode_document(
                fleet_result_document(sequential)
            )

    def test_process_backend_without_fork_runs_on_threads(self, sequential_result, monkeypatch):
        monkeypatch.setattr(fleet_runner, "process_pool_context", lambda: None)
        result = FleetRunner(_fleet(), workers=2, backend="process").run()
        assert result.metadata["backend"] == "process"
        assert result.metadata["engine_backend"] == "thread"
        assert encode_document(fleet_result_document(result)) == encode_document(
            fleet_result_document(sequential_result)
        )

    def test_same_seed_reproduces_the_run(self, sequential_result):
        again = FleetRunner(_fleet()).run()
        assert again.summary == sequential_result.summary
        assert again.survival == sequential_result.survival

    def test_different_seed_changes_the_run(self, sequential_result):
        other = FleetRunner(_fleet(seed=8)).run()
        assert other.summary != sequential_result.summary

    def test_200_vehicle_fleet_is_worker_count_independent(self):
        """The acceptance bar: seeded aggregates on a >=200-vehicle fleet are
        identical whatever worker count executes them."""
        fleet = _fleet(vehicles=200, seed=13)
        sequential = FleetRunner(fleet, keep_vehicle_rows=False).run()
        threaded = FleetRunner(fleet, workers=4, keep_vehicle_rows=False).run()
        assert threaded.summary == sequential.summary
        assert threaded.survival == sequential.survival
        assert sequential.summary["vehicles"] == 200


class TestResultSurface:
    def test_to_study_result_rides_existing_exports(self, sequential_result, tmp_path):
        study_result = sequential_result.to_study_result()
        assert study_result.kind == "fleet"
        assert len(study_result) == 1
        path = study_result.to_csv(tmp_path / "fleet.csv")
        assert path.read_text().startswith("fleet,")
        assert "surviving_at_end_pct" in study_result.as_table()

    def test_exports(self, sequential_result, tmp_path):
        sequential_result.to_csv(tmp_path / "summary.csv")
        sequential_result.to_json(tmp_path / "summary.json")
        sequential_result.survival_to_csv(tmp_path / "survival.csv")
        sequential_result.vehicles_to_csv(tmp_path / "vehicles.csv")
        lines = (tmp_path / "vehicles.csv").read_text().splitlines()
        assert len(lines) == sequential_result.metadata["vehicles"] + 1

    def test_streaming_only_mode_drops_vehicle_rows(self):
        result = FleetRunner(_fleet(vehicles=4), keep_vehicle_rows=False).run()
        assert result.vehicle_rows is None
        with pytest.raises(ConfigError, match="per-vehicle rows"):
            result.vehicles_to_csv("anywhere.csv")
        # Aggregates are unaffected.
        assert result.summary["vehicles"] == 4

    def test_run_fleet_convenience(self):
        result = run_fleet(_fleet(vehicles=3), workers=2)
        assert isinstance(result, FleetResult)
        assert len(result) == 3
        assert result.metadata["workers"] == 2

    def test_metadata_records_the_run(self, sequential_result):
        metadata = sequential_result.metadata
        assert metadata["kind"] == "fleet"
        assert metadata["vehicles"] == 10
        assert metadata["backend"] == "thread"
        assert metadata["wall_time_s"] > 0.0
        assert len(metadata["vehicle_wall_times_s"]) == 10
        assert metadata["fleet_document"]["vehicles"] == 10


class TestCycleMixAndTolerances:
    def test_cycle_mix_produces_multiple_cohorts(self):
        fleet = FleetSpec(
            base=ScenarioSpec(
                name="mixed", drive_cycle={"name": "urban", "params": {"repetitions": 1}}
            ),
            vehicles=12,
            seed=5,
            distributions={
                "drive_cycle": {
                    "kind": "categorical",
                    "params": {
                        "choices": [{"name": "urban", "params": {"repetitions": 1}}, "nedc"]
                    },
                },
            },
        )
        result = FleetRunner(fleet).run()
        cycles = {row["cycle"] for row in result.vehicle_rows}
        assert cycles == {"urban-x1", "nedc-like"}

    def test_storage_tolerance_scales_every_threshold(self):
        fleet = _fleet(vehicles=6)
        for vehicle in fleet.materialize():
            storage = scaled_storage(vehicle.scenario.build_storage(), vehicle.storage_scale)
            reference = vehicle.scenario.build_storage()
            ratio = storage.capacity_j / reference.capacity_j
            assert ratio == pytest.approx(vehicle.storage_scale)
            assert storage.restart_level_j / reference.restart_level_j == pytest.approx(
                vehicle.storage_scale
            )


def _constant_fleet_rows_match_emulate(speed_kmh, duration_s, **base_overrides):
    """Run a 3-vehicle constant-cruise fleet; every row must equal emulate()."""
    base = ScenarioSpec(
        name="constant",
        drive_cycle={
            "name": "constant",
            "params": {"speed_kmh": speed_kmh, "duration_s": duration_s},
        },
        **base_overrides,
    )
    fleet = FleetSpec(name="constant", base=base, vehicles=3, seed=1)
    result = FleetRunner(fleet).run()
    for vehicle, row in zip(fleet.materialize(), result.vehicle_rows):
        spec = vehicle.scenario
        emulator = NodeEmulator(
            spec.build_node(),
            spec.build_database(),
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
        )
        summary = emulator.emulate(spec.build_drive_cycle()).summary()
        for key, value in summary.items():
            assert row[key] == value, key
    return result.metadata


class TestZeroRoundCycles:
    """Cycles below the standstill threshold plan no wheel rounds at all."""

    @pytest.mark.parametrize("speed_kmh", [0.0, 0.5])
    def test_rows_equal_emulate(self, speed_kmh):
        metadata = _constant_fleet_rows_match_emulate(speed_kmh, 20.0)
        assert metadata["fast_path_vehicles"] == 3


class TestScheduleLimit:
    """Cohorts whose speed bins straddle the node's feasibility limit."""

    @staticmethod
    def _run(architecture, node, speed_kmh, duration_s):
        from repro.scenario.registry import ARCHITECTURES

        ARCHITECTURES.register(architecture, lambda: node)
        try:
            return _constant_fleet_rows_match_emulate(
                speed_kmh, duration_s, architecture=architecture
            )
        finally:
            ARCHITECTURES.unregister(architecture)

    def test_infeasible_bin_center_resolves_on_exact_speed(self, pocket_node):
        # 102.4 km/h fits, but its bin center (102.5 km/h) does not: the
        # cohort re-keys the rounds on their exact speed, as emulate() does.
        metadata = self._run("test-pocket", pocket_node, 102.4, 20.0)
        assert metadata["fast_path_vehicles"] == 3

    def test_feasible_exact_slots_stay_on_the_fast_path(self, limited_node):
        # 128.7 km/h fits; its bin's upper edge does not, so the rounds are
        # keyed on their exact speed and still share the cohort sweep.
        metadata = self._run("test-limited", limited_node, 128.7, 10.0)
        assert metadata["fast_path_vehicles"] == 3


def _naive_outcomes(fleet: FleetSpec) -> list:
    """Per vehicle: its naive ``emulate()`` summary, or the error it raises."""
    outcomes = []
    for vehicle in fleet.materialize():
        spec = vehicle.scenario
        emulator = NodeEmulator(
            spec.build_node(),
            spec.build_database(),
            spec.build_scavenger(),
            scaled_storage(spec.build_storage(), vehicle.storage_scale),
            base_point=spec.operating_point(),
            thermal_model=fleet.thermal.build(spec.temperature_c) if fleet.thermal else None,
        )
        try:
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            outcomes.append(emulator.emulate(cycle).summary())
        except Exception as error:  # the contract compares the error itself
            outcomes.append(error)
    return outcomes


#: (node, base cruise speed) pairs straddling each node's feasibility limit:
#: ``limited_node`` stops fitting near 119 and 128.7 km/h, ``pocket_node``
#: flips around 102.5 km/h.  Speed scales spread each fleet by ~10%.
_CRUISES = st.one_of(
    st.tuples(st.just("limited"), st.floats(100.0, 140.0)),
    st.tuples(st.just("pocket"), st.floats(98.0, 108.0)),
)

#: (base ambient, thermal time constant) pairs near the model's 200 degC
#: ceiling: with time constants this short, self-heating at these cruise
#: speeds (a 35-55 degC steady rise) can leave the modelled range within the
#: 10 s cruise, before or after the node reaches an unbuildable round.
_HOT = st.tuples(st.floats(160.0, 200.0), st.floats(1.0, 100.0))


class TestErrorContract:
    """Fleets across a node's feasibility limit: rows or errors match naive."""

    @staticmethod
    def _check(node, speed_kmh, rel_std, seed, hot=None, **options):
        ARCHITECTURES.register("test-contract", lambda: node)
        try:
            base = ScenarioSpec(
                name="contract",
                architecture="test-contract",
                drive_cycle={
                    "name": "constant",
                    "params": {"speed_kmh": speed_kmh, "duration_s": 10.0},
                },
                **({"temperature_c": hot[0]} if hot else {}),
            )
            distributions = {
                "speed_scale": {
                    "kind": "lognormal",
                    "params": {"sigma": 0.1, "low": 0.6, "high": 1.4},
                },
                "storage_capacity": {
                    "kind": "gaussian-tolerance",
                    "params": {"rel_std": rel_std},
                },
            }
            if hot:
                distributions["ambient_offset_c"] = {
                    "kind": "correlated-normal",
                    "params": {"std": 4.0, "correlation": 0.5},
                }
            fleet = FleetSpec(
                name="contract",
                base=base,
                vehicles=6,
                seed=seed,
                chunk_vehicles=3,
                distributions=distributions,
                thermal=ThermalSpec(time_constant_s=hot[1]) if hot else None,
            )
            naive = _naive_outcomes(fleet)
            errors = [(i, o) for i, o in enumerate(naive) if isinstance(o, Exception)]
            if not errors:
                result = FleetRunner(fleet, **options).run()
                assert result.metadata["fast_path_vehicles"] == fleet.vehicles
                for row, summary in zip(result.vehicle_rows, naive):
                    for key, value in summary.items():
                        assert row[key] == value, key
                return
            first = errors[0][1]
            with pytest.raises(Exception) as raised:
                FleetRunner(fleet, **options).run()
            assert type(raised.value) is type(first)
            assert str(raised.value) == str(first)
            if len(errors) == fleet.vehicles:
                return  # nothing left to aggregate when every vehicle fails
            result = FleetRunner(fleet, retries=1, retry_backoff_s=0.0, **options).run()
            assert [(f["index"], f["error"]) for f in result.metadata["failures"]] == [
                (i, f"{type(error).__name__}: {error}") for i, error in errors
            ]
            survivors = [summary for summary in naive if isinstance(summary, dict)]
            assert len(result.vehicle_rows) == len(survivors)
            for row, summary in zip(result.vehicle_rows, survivors):
                for key, value in summary.items():
                    assert row[key] == value, key
        finally:
            ARCHITECTURES.unregister("test-contract")

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cruise=_CRUISES, rel_std=st.floats(0.01, 0.3), seed=st.integers(0, 2**16))
    def test_sequential(self, limited_node, pocket_node, cruise, rel_std, seed):
        nodes = {"limited": limited_node, "pocket": pocket_node}
        self._check(nodes[cruise[0]], cruise[1], rel_std, seed)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cruise=_CRUISES, rel_std=st.floats(0.01, 0.3), seed=st.integers(0, 2**16))
    def test_process_backend(self, limited_node, pocket_node, cruise, rel_std, seed):
        nodes = {"limited": limited_node, "pocket": pocket_node}
        self._check(nodes[cruise[0]], cruise[1], rel_std, seed, workers=2, backend="process")

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cruise=_CRUISES, hot=_HOT, rel_std=st.floats(0.01, 0.3), seed=st.integers(0, 2**16))
    def test_thermal(self, limited_node, pocket_node, cruise, hot, rel_std, seed):
        nodes = {"limited": limited_node, "pocket": pocket_node}
        self._check(nodes[cruise[0]], cruise[1], rel_std, seed, hot=hot)
