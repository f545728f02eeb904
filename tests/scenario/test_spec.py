"""Tests for the declarative ScenarioSpec (construction, dict/JSON round trips)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.node import SensorNode
from repro.errors import ConfigError, ConfigurationError
from repro.power.database import PowerDatabase
from repro.scavenger.base import EnergyScavenger
from repro.scavenger.storage import StorageElement
from repro.scenario.spec import ComponentRef, ScenarioSpec, load_scenario
from repro.vehicle.drive_cycle import DriveCycle


class TestComponentRef:
    def test_coerce_from_string(self):
        ref = ComponentRef.coerce("baseline", "architecture")
        assert ref == ComponentRef("baseline")

    def test_coerce_from_mapping_with_params(self):
        ref = ComponentRef.coerce({"name": "urban", "params": {"repetitions": 2}}, "drive_cycle")
        assert ref.name == "urban"
        assert dict(ref.params) == {"repetitions": 2}

    def test_params_order_is_normalized(self):
        a = ComponentRef("x", params=(("b", 2), ("a", 1)))
        b = ComponentRef("x", params=(("a", 1), ("b", 2)))
        assert a == b
        assert hash(a) == hash(b)

    def test_compact_serialization(self):
        assert ComponentRef("baseline").to_dict() == "baseline"
        assert ComponentRef("urban", (("repetitions", 2),)).to_dict() == {
            "name": "urban",
            "params": {"repetitions": 2},
        }

    def test_unknown_mapping_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ComponentRef.coerce({"name": "urban", "parms": {}}, "drive_cycle")

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigError, match="needs a 'name'"):
            ComponentRef.coerce({"params": {}}, "drive_cycle")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="must be a component name"):
            ComponentRef.coerce(42, "architecture")


class TestConstruction:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.architecture.name == "baseline"
        assert spec.power_database.name == "reference"
        assert spec.storage is not None

    def test_kwargs_accept_bare_names(self):
        spec = ScenarioSpec(architecture="optimized", scavenger="electromagnetic")
        assert spec.architecture == ComponentRef("optimized")
        assert spec.scavenger == ComponentRef("electromagnetic")

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigError, match="unknown architecture"):
            ScenarioSpec(architecture="warp-drive")

    def test_unknown_cycle_rejected(self):
        with pytest.raises(ConfigError, match="unknown drive cycle"):
            ScenarioSpec(drive_cycle="lunar")

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"scavenger_size": 0.0}, "scavenger_size"),
            ({"scavenger_size": -1.0}, "scavenger_size"),
            ({"scavenger_size": float("nan")}, "scavenger_size"),
            ({"speed_kmh": 0.0}, "speed_kmh"),
            ({"speed_kmh": float("inf")}, "speed_kmh"),
            ({"temperature_c": 1000.0}, "temperature_c"),
            ({"temperature_c": float("nan")}, "temperature_c"),
            ({"supply_corner": "nominal"}, "supply_corner"),
            ({"process_corner": "blazing"}, "process_corner"),
            ({"tx_interval_revs": 0}, "tx_interval_revs"),
            ({"tx_interval_revs": 1.5}, "tx_interval_revs"),
            ({"payload_bits": -8}, "payload_bits"),
            ({"name": ""}, "name"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ScenarioSpec(**kwargs)


class TestDictRoundTrip:
    def test_default_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_full_round_trip(self):
        spec = ScenarioSpec(
            name="full",
            architecture="optimized",
            power_database="low-power",
            scavenger={"name": "electromagnetic", "params": {"size_factor": 2.0}},
            scavenger_size=1.5,
            storage={"name": "supercapacitor", "params": {"capacity_j": 0.5}},
            drive_cycle={"name": "urban", "params": {"repetitions": 2}},
            temperature_c=-20.0,
            speed_kmh=90.0,
            supply_corner="min",
            process_corner="fast",
            tx_interval_revs=8,
            payload_bits=96,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ScenarioSpec(drive_cycle="nedc", tx_interval_revs=4)
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_minimal_document(self):
        spec = ScenarioSpec.from_dict({"architecture": "legacy-tpms"})
        assert spec.architecture.name == "legacy-tpms"
        assert spec.temperature_c == 25.0

    def test_null_storage(self):
        spec = ScenarioSpec.from_dict({"storage": None})
        assert spec.storage is None
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"archtecture": "baseline"})

    def test_unknown_environment_field(self):
        with pytest.raises(ConfigError, match="unknown environment field"):
            ScenarioSpec.from_dict({"environment": {"humidity": 0.4}})

    def test_unknown_workload_field(self):
        with pytest.raises(ConfigError, match="unknown workload field"):
            ScenarioSpec.from_dict({"workload": {"tx_power_dbm": 0}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            ScenarioSpec.from_dict(["architecture"])


class TestAxes:
    def test_axis_aliases(self):
        spec = ScenarioSpec()
        assert spec.with_axis("temperature", -20.0).temperature_c == -20.0
        assert spec.with_axis("speed", 90.0).speed_kmh == 90.0
        assert spec.with_axis("size", 2.0).scavenger_size == 2.0
        assert spec.with_axis("database", "low-power").power_database.name == "low-power"
        assert spec.with_axis("cycle", "nedc").drive_cycle == ComponentRef("nedc")

    def test_component_axis_coerces(self):
        spec = ScenarioSpec().with_axis("architecture", "optimized")
        assert spec.architecture == ComponentRef("optimized")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario axis"):
            ScenarioSpec().with_axis("humidity", 0.5)

    def test_with_axes_applies_all(self):
        spec = ScenarioSpec().with_axes(temperature=85.0, architecture="optimized")
        assert spec.temperature_c == 85.0
        assert spec.architecture.name == "optimized"


class TestBuilders:
    def test_build_node(self):
        node = ScenarioSpec(architecture="optimized").build_node()
        assert isinstance(node, SensorNode)
        assert node.name == "optimized"

    def test_workload_overrides_rewire_the_radio(self):
        base = ScenarioSpec().build_node()
        node = ScenarioSpec(tx_interval_revs=16, payload_bits=64).build_node()
        assert node.radio.tx_interval_revs == 16
        assert node.radio.payload_bits == 64
        assert base.radio.tx_interval_revs == 1

    def test_build_database(self):
        database = ScenarioSpec(power_database="low-power").build_database()
        assert isinstance(database, PowerDatabase)
        assert "lp" in database.name

    def test_build_scavenger_applies_size(self):
        scavenger = ScenarioSpec(scavenger_size=2.5).build_scavenger()
        assert isinstance(scavenger, EnergyScavenger)
        assert scavenger.size_factor == pytest.approx(2.5)

    def test_build_storage_and_cycle(self):
        spec = ScenarioSpec(drive_cycle={"name": "urban", "params": {"repetitions": 1}})
        assert isinstance(spec.build_storage(), StorageElement)
        cycle = spec.build_drive_cycle()
        assert isinstance(cycle, DriveCycle)
        assert ScenarioSpec(storage=None).build_storage() is None
        assert ScenarioSpec().build_drive_cycle() is None

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ('{"speed_kmh": NaN}', "speeds must be finite"),
            ('{"speed_kmh": 60, "duration_s": Infinity}', "duration must be finite"),
        ],
    )
    def test_non_finite_cycle_parameters_rejected(self, params, fragment):
        document = json.loads('{"drive_cycle": {"name": "constant", "params": %s}}' % params)
        spec = ScenarioSpec.from_dict(document)
        with pytest.raises(ConfigurationError, match=fragment):
            spec.build_drive_cycle()

    def test_operating_point_reflects_environment(self):
        point = ScenarioSpec(
            temperature_c=-20.0,
            speed_kmh=90.0,
            supply_corner="min",
            process_corner="fast",
        ).operating_point()
        assert point.temperature_c == -20.0
        assert point.speed_kmh == 90.0
        assert point.supply.corner == "min"
        assert point.process.corner.name == "FAST"

    def test_describe_mentions_components(self):
        text = ScenarioSpec(architecture="optimized", drive_cycle="nedc").describe()
        assert "optimized" in text
        assert "nedc" in text


class TestLoadScenario:
    def test_load_from_file(self, tmp_path):
        path = ScenarioSpec(name="saved").save(tmp_path / "spec.json")
        assert load_scenario(path) == ScenarioSpec(name="saved")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read scenario file"):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


# ---------------------------------------------------------------------------
# Property: from_dict(to_dict()) is the identity over randomized valid specs.
# ---------------------------------------------------------------------------

_architectures = st.sampled_from(["baseline", "optimized", "legacy-tpms"])
_databases = st.sampled_from(["reference", "low-power", "high-performance"])
_scavengers = st.sampled_from(["piezoelectric", "electromagnetic", "electrostatic"])
_storages = st.one_of(
    st.none(),
    st.sampled_from(["supercapacitor", "thin-film-battery"]),
)
_cycles = st.one_of(
    st.none(),
    st.sampled_from(["urban", "nedc", "highway"]),
    st.builds(
        lambda reps: {"name": "urban", "params": {"repetitions": reps}},
        st.integers(min_value=1, max_value=4),
    ),
)

_specs = st.builds(
    ScenarioSpec,
    name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=12,
    ),
    architecture=_architectures,
    power_database=_databases,
    scavenger=_scavengers,
    scavenger_size=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    storage=_storages,
    drive_cycle=_cycles,
    temperature_c=st.floats(min_value=-60.0, max_value=200.0, allow_nan=False),
    speed_kmh=st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
    supply_corner=st.sampled_from(["min", "nom", "max"]),
    process_corner=st.sampled_from(["typical", "fast", "slow", "tt", "ff", "ss"]),
    tx_interval_revs=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    payload_bits=st.one_of(st.none(), st.integers(min_value=8, max_value=512)),
)


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(spec=_specs)
    def test_dict_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_json_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec


# ---------------------------------------------------------------------------
# Property: with_axes(**a) equals the chained with_axis calls.
# ---------------------------------------------------------------------------

_axis_values = {
    "architecture": _architectures,
    "power_database": _databases,
    "database": _databases,
    "scavenger": _scavengers,
    "scavenger_size": st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    "size": st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    "storage": _storages,
    "drive_cycle": _cycles,
    "cycle": _cycles,
    "temperature": st.floats(min_value=-60.0, max_value=200.0, allow_nan=False),
    "temperature_c": st.floats(min_value=-60.0, max_value=200.0, allow_nan=False),
    "speed": st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
    "supply_corner": st.sampled_from(["min", "nom", "max"]),
    "process_corner": st.sampled_from(["typical", "fast", "slow"]),
    "tx_interval_revs": st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    "payload_bits": st.one_of(st.none(), st.integers(min_value=8, max_value=512)),
    "name": st.sampled_from(["a", "grid-point", "v-0007"]),
}

_axis_names = st.lists(st.sampled_from(sorted(_axis_values)), unique=True, max_size=8)
_axes = _axis_names.flatmap(
    lambda names: st.fixed_dictionaries({name: _axis_values[name] for name in names})
)


class TestWithAxesProperty:
    @settings(max_examples=120, deadline=None)
    @given(spec=_specs, axes=_axes)
    def test_with_axes_equals_chained_with_axis(self, spec, axes):
        chained = spec
        for axis, value in axes.items():
            chained = chained.with_axis(axis, value)
        assert spec.with_axes(**axes) == chained

    def test_unknown_axis_among_valid_ones_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            ScenarioSpec().with_axes(temperature=10.0, humidity=0.5)
        with pytest.raises(ConfigError) as single:
            ScenarioSpec().with_axis("humidity", 0.5)
        assert str(excinfo.value) == str(single.value)

    def test_parameter_names_are_not_axes(self):
        with pytest.raises(ConfigError, match="unknown scenario axis 'self'"):
            ScenarioSpec().with_axis("self", 1)

    def test_invalid_value_rejected_like_with_axis(self):
        with pytest.raises(ConfigError, match="temperature_c must lie"):
            ScenarioSpec().with_axes(name="hot", temperature=500.0)
