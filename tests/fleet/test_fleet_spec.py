"""Tests for FleetSpec: validation, round trips, deterministic materialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.errors import ConfigError
from repro.fleet import (
    FLEET_TARGETS,
    DistributionSpec,
    FleetSpec,
    ThermalSpec,
    default_fleet_distributions,
    load_fleet,
)
from repro.scenario.spec import ScenarioSpec


def _base(**overrides) -> ScenarioSpec:
    kwargs = {
        "name": "base",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
    }
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestConstruction:
    def test_from_base_applies_default_distributions(self):
        fleet = FleetSpec.from_base(_base(), vehicles=32, seed=9)
        assert fleet.vehicles == 32
        assert fleet.seed == 9
        targets = [target for target, _spec in fleet.distributions]
        assert targets == sorted(
            ["speed_scale", "temperature_c", "scavenger_size", "storage_capacity"]
        )

    def test_distributions_accept_mapping(self):
        fleet = FleetSpec(
            base=_base(),
            distributions={"speed_scale": {"kind": "lognormal", "params": {"sigma": 0.1}}},
        )
        assert fleet.distribution_for("speed_scale") == DistributionSpec(
            "lognormal", (("sigma", 0.1),)
        )
        assert fleet.distribution_for("temperature_c") is None

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match="unknown fleet distribution target"):
            FleetSpec(base=_base(), distributions={"tyre_width": "normal"})

    def test_storage_required(self):
        with pytest.raises(ConfigError, match="storage"):
            FleetSpec(base=_base(storage=None))

    def test_cycle_required_unless_distributed(self):
        with pytest.raises(ConfigError, match="drive_cycle"):
            FleetSpec(base=ScenarioSpec(name="no-cycle"))
        fleet = FleetSpec(
            base=ScenarioSpec(name="no-cycle"),
            distributions={
                "drive_cycle": {
                    "kind": "categorical",
                    "params": {"choices": ["nedc", "highway"]},
                }
            },
        )
        assert fleet.distribution_for("drive_cycle") is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vehicles": 0},
            {"vehicles": 2.5},
            {"vehicles": True},
            {"seed": -1},
            {"scale_quantum": -0.1},
            {"scale_quantum": float("inf")},
            {"name": ""},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FleetSpec(base=_base(), **kwargs)

    def test_base_document_is_coerced(self):
        fleet = FleetSpec(base=_base().to_dict())
        assert isinstance(fleet.base, ScenarioSpec)
        assert fleet.base == _base()

    def test_with_population(self):
        fleet = FleetSpec.from_base(_base())
        bigger = fleet.with_population(vehicles=999, seed=4)
        assert bigger.vehicles == 999
        assert bigger.seed == 4
        assert bigger.distributions == fleet.distributions
        assert fleet.with_population() is fleet


class TestRoundTrip:
    def test_exact_round_trip(self):
        fleet = FleetSpec.from_base(_base(), vehicles=64, seed=3)
        assert FleetSpec.from_dict(fleet.to_dict()) == fleet

    def test_json_round_trip(self, tmp_path):
        fleet = FleetSpec.from_base(_base(), vehicles=16)
        path = fleet.save(tmp_path / "fleet.json")
        assert load_fleet(path) == fleet

    def test_unknown_fields_rejected(self):
        document = FleetSpec.from_base(_base()).to_dict()
        document["fuel"] = "diesel"
        with pytest.raises(ConfigError, match="unknown fleet field"):
            FleetSpec.from_dict(document)

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read fleet file"):
            load_fleet(tmp_path / "absent.json")

    def test_malformed_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_fleet(path)

    # -- property test: from_dict(to_dict()) == spec, mirroring ScenarioSpec --

    @staticmethod
    def _distribution_strategy():
        finite = st.floats(min_value=0.01, max_value=50.0, allow_nan=False, allow_infinity=False)
        normal = st.builds(
            lambda mean, std: DistributionSpec("normal", (("mean", mean), ("std", std))),
            finite,
            finite,
        )
        lognormal = st.builds(
            lambda sigma: DistributionSpec("lognormal", (("sigma", sigma),)),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
        tolerance = st.builds(
            lambda rel: DistributionSpec("gaussian-tolerance", (("rel_std", rel),)),
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        )
        categorical = st.just(
            DistributionSpec(
                "categorical",
                (("choices", ("urban", "nedc")), ("weights", (2.0, 1.0))),
            )
        )
        return st.one_of(normal, lognormal, tolerance, categorical)

    @given(
        vehicles=st.integers(min_value=1, max_value=100000),
        seed=st.integers(min_value=0, max_value=2**31),
        scale_quantum=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        name=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
            min_size=1,
            max_size=12,
        ),
        targets=st.dictionaries(
            st.sampled_from([t for t in FLEET_TARGETS if t != "drive_cycle"]),
            _distribution_strategy(),
            max_size=4,
        ).map(
            # temperature_c and ambient_offset_c are mutually exclusive axes.
            lambda d: (
                {k: v for k, v in d.items() if k != "ambient_offset_c"}
                if "temperature_c" in d
                else d
            )
        ),
        temperature=st.floats(min_value=-40.0, max_value=125.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, vehicles, seed, scale_quantum, name, targets, temperature):
        low, high = TEMPERATURE_RANGE_C
        fleet = FleetSpec(
            name=name,
            base=_base(temperature_c=min(max(temperature, low), high)),
            vehicles=vehicles,
            seed=seed,
            scale_quantum=scale_quantum,
            distributions=targets,
        )
        document = json.loads(json.dumps(fleet.to_dict()))
        rebuilt = FleetSpec.from_dict(document)
        assert rebuilt == fleet
        assert rebuilt.to_dict() == fleet.to_dict()


class TestMaterialization:
    def test_population_size_and_indices(self):
        fleet = FleetSpec.from_base(_base(), vehicles=17, seed=2)
        vehicles = fleet.materialize()
        assert [vehicle.index for vehicle in vehicles] == list(range(17))
        assert len({vehicle.scenario.name for vehicle in vehicles}) == 17

    def test_same_seed_same_population(self):
        fleet = FleetSpec.from_base(_base(), vehicles=24, seed=5)
        assert fleet.materialize() == fleet.materialize()

    def test_different_seed_different_population(self):
        base = _base()
        first = FleetSpec.from_base(base, vehicles=24, seed=5).materialize()
        second = FleetSpec.from_base(base, vehicles=24, seed=6).materialize()
        assert first != second

    def test_sampled_axes_respect_ranges(self):
        fleet = FleetSpec.from_base(_base(), vehicles=64, seed=1)
        low, high = TEMPERATURE_RANGE_C
        for vehicle in fleet.materialize():
            assert vehicle.speed_scale > 0.0
            assert low <= vehicle.temperature_c <= high
            assert vehicle.scenario.scavenger_size > 0.0
            assert vehicle.storage_scale > 0.0

    def test_scale_quantum_quantizes_the_drive_style_axis(self):
        fleet = FleetSpec.from_base(_base(), vehicles=64, seed=1)
        scales = {vehicle.speed_scale for vehicle in fleet.materialize()}
        for scale in scales:
            assert round(scale / fleet.scale_quantum) == pytest.approx(scale / fleet.scale_quantum)
        # Quantization is what lets vehicles share materialized cycles.
        assert len(scales) < 64

    def test_zero_quantum_keeps_exact_draws(self):
        fleet = FleetSpec(
            base=_base(),
            vehicles=32,
            seed=1,
            scale_quantum=0.0,
            distributions=default_fleet_distributions(_base()),
        )
        scales = {vehicle.speed_scale for vehicle in fleet.materialize()}
        assert len(scales) == 32

    def test_cycle_mix_is_applied(self):
        fleet = FleetSpec(
            base=_base(),
            vehicles=40,
            seed=3,
            distributions={
                "drive_cycle": {
                    "kind": "categorical",
                    "params": {
                        "choices": [
                            {"name": "urban", "params": {"repetitions": 1}},
                            "nedc",
                        ]
                    },
                }
            },
        )
        cycles = {vehicle.scenario.drive_cycle.name for vehicle in fleet.materialize()}
        assert cycles == {"urban", "nedc"}

    def test_materialization_is_spec_derived_not_order_derived(self):
        """Dropping a distribution must not perturb the remaining targets'
        draw *positions* (fixed target order), only remove its own axis."""
        base = _base()
        with_all = FleetSpec(
            base=base,
            vehicles=8,
            seed=7,
            distributions=default_fleet_distributions(base),
        )
        assert with_all.materialize() == with_all.materialize()


def _constant_fleet(target, value, thermal=None, scale_quantum=0.05, **base) -> FleetSpec:
    return FleetSpec(
        name="typed",
        base=_base(**base),
        vehicles=4,
        seed=3,
        scale_quantum=scale_quantum,
        thermal=thermal,
        distributions={target: {"kind": "constant", "params": {"value": value}}},
    )


def _raised(fleet: FleetSpec) -> list[str]:
    """The error of each path: the reference view and the run path."""
    from repro.fleet import FleetRunner

    messages = []
    for path in (fleet.materialize, lambda: list(fleet.iter_chunks()), FleetRunner(fleet).run):
        with pytest.raises(ConfigError) as raised:
            path()
        assert "\n" not in str(raised.value)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1, messages
    return messages[0]


class TestTypedSampleErrors:
    """Sampled columns that are not finite numbers raise one-line ConfigErrors."""

    @pytest.mark.parametrize(
        "value, shown", [("fast", "'fast'"), (None, "None"), (True, "True"), ([1.0], "(1.0,)")]
    )
    def test_speed_scale_that_is_not_a_number(self, value, shown):
        message = _raised(_constant_fleet("speed_scale", value))
        assert message == f"fleet speed_scale distribution produced {shown}, which is not a number"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_speed_scale_that_cannot_be_quantized(self, value):
        message = _raised(_constant_fleet("speed_scale", value))
        assert message == (
            f"fleet speed_scale distribution produced {value!r}, "
            "which scale_quantum 0.05 cannot quantize"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_unquantized_non_finite_speed_keeps_the_scenario_check(self, value):
        message = _raised(_constant_fleet("speed_scale", value, scale_quantum=0.0))
        assert message == "scenario speed_kmh must be a positive finite number"

    def test_non_positive_speed_scale(self):
        message = _raised(_constant_fleet("speed_scale", -1.0))
        assert message == "fleet speed_scale distribution produced -1.0; scales must be positive"

    @pytest.mark.parametrize("thermal", [None, ThermalSpec()])
    @pytest.mark.parametrize("target", ["temperature_c", "ambient_offset_c"])
    def test_nan_ambient_keeps_the_scenario_range_check(self, target, thermal):
        message = _raised(_constant_fleet(target, float("nan"), thermal=thermal))
        low, high = TEMPERATURE_RANGE_C
        assert message == f"scenario temperature_c must lie in [{low}, {high}] degC, got nan"

    def test_ambient_that_is_not_a_number(self):
        message = _raised(_constant_fleet("temperature_c", "warm", thermal=ThermalSpec()))
        assert message == "fleet temperature_c distribution produced 'warm', which is not a number"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308])
    def test_non_finite_scavenger_size_keeps_the_scenario_check(self, value):
        message = _raised(_constant_fleet("scavenger_size", value, scavenger_size=2.0))
        assert message == "scenario scavenger_size must be a positive finite number"

    @pytest.mark.parametrize("target", ["scavenger_size", "storage_capacity"])
    def test_non_positive_tolerance_factor(self, target):
        message = _raised(_constant_fleet(target, 0.0))
        assert message == "fleet tolerance distributions must produce positive factors"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_storage_capacity(self, value):
        message = _raised(_constant_fleet("storage_capacity", value))
        assert message == (
            f"fleet storage_capacity distribution produced {value!r}; factors must be finite"
        )

    def test_storage_capacity_that_is_not_a_number(self):
        message = _raised(_constant_fleet("storage_capacity", "large"))
        assert message == (
            "fleet storage_capacity distribution produced 'large', which is not a number"
        )

    def test_unknown_sampled_drive_cycle_keeps_the_registry_error(self):
        message = _raised(_constant_fleet("drive_cycle", "bogus"))
        assert message.startswith("unknown drive cycle 'bogus'; available: ")

    def test_distribution_returning_the_wrong_count(self):
        from repro.fleet import Distribution, register_distribution

        class Short(Distribution):
            def sample(self, rng, count):
                return np.ones(count - 1)

        register_distribution("test-short", Short)
        try:
            fleet = FleetSpec(
                name="short",
                base=_base(),
                vehicles=4,
                distributions={"scavenger_size": "test-short"},
            )
            message = _raised(fleet)
        finally:
            from repro.fleet import DISTRIBUTIONS

            DISTRIBUTIONS.unregister("test-short")
        assert message == (
            "fleet scavenger_size distribution produced an array of shape (3,) for 4 vehicles"
        )
