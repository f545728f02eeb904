"""Column chunks against a scalar restatement of the per-vehicle arithmetic.

``FleetSpec.iter_chunks()`` yields columns the runner runs; ``materialize()``
is the reference view built from them.  Both are checked field by field,
bitwise (type and ``repr``, so -0.0 and int-vs-float count), against
:func:`_scalar_vehicle`: the per-vehicle arithmetic written out one vehicle
at a time with Python's ``round``/``float``, the way the columns must
compute it elementwise.  Corrupted samples must raise the same one-line
ConfigError on every path, from the first failing vehicle.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.core.quantize import ambient_bin, ambient_bin_center_c
from repro.errors import ConfigError
from repro.fleet import DISTRIBUTIONS, FleetRunner, FleetSpec, ThermalSpec
from repro.scenario.spec import ScenarioSpec

#: Short cycles; the first two are one reference written two ways.
CYCLE_CHOICES = (
    {"name": "constant", "params": {"speed_kmh": 50.0, "duration_s": 20.0}},
    {"name": "constant", "params": {"duration_s": 20.0, "speed_kmh": 50.0}},
    {"name": "constant", "params": {"speed_kmh": 40.0, "duration_s": 20.0}},
    {"name": "ramp", "params": {"start_kmh": 20.0, "end_kmh": 60.0, "ramp_duration_s": 20.0}},
)

#: A strategy per registered distribution kind, by the values it draws.
KINDS = {
    "normal": lambda center, spread: st.fixed_dictionaries(
        {"mean": st.just(center), "std": st.floats(0.0, spread)}
    ),
    "clipped-normal": lambda center, spread: st.fixed_dictionaries(
        {
            "mean": st.just(center),
            "std": st.floats(0.0, 3 * spread),
            "low": st.just(center - spread),
            "high": st.just(center + spread),
        }
    ),
    "uniform": lambda center, spread: st.fixed_dictionaries(
        {"low": st.just(center - spread), "high": st.just(center + spread)}
    ),
    "lognormal": lambda center, spread: st.fixed_dictionaries(
        {"sigma": st.floats(0.0, 0.3), "median": st.just(center if center > 0.0 else 1.0)}
    ),
    "correlated-normal": lambda center, spread: st.fixed_dictionaries(
        {
            "mean": st.just(center),
            "std": st.floats(0.0, spread),
            "correlation": st.floats(0.0, 1.0),
        }
    ),
    "gaussian-tolerance": lambda center, spread: st.fixed_dictionaries(
        {"rel_std": st.floats(0.001, 0.1), "nominal": st.just(center if center > 0.0 else 1.0)}
    ),
    "constant": lambda center, spread: st.fixed_dictionaries(
        {"value": st.sampled_from([center, center + spread / 4, int(center)])}
    ),
}

#: (center, spread) of each numeric target; positive factors stay positive.
TARGETS = {
    "speed_scale": (1.0, 0.4),
    "temperature_c": (0.0, 90.0),
    "scavenger_size": (1.0, 0.3),
    "storage_capacity": (1.0, 0.3),
    "ambient_offset_c": (0.0, 3.0),
}


def test_every_registered_kind_has_a_strategy():
    assert set(DISTRIBUTIONS.names()) <= set(KINDS) | {"categorical"}


@st.composite
def fleets(draw) -> FleetSpec:
    distributions = {}
    targets = draw(st.sets(st.sampled_from(sorted(TARGETS))))
    if {"temperature_c", "ambient_offset_c"} <= targets:
        targets.discard(draw(st.sampled_from(["temperature_c", "ambient_offset_c"])))
    for target in sorted(targets):
        kind = draw(st.sampled_from(sorted(KINDS)))
        center, spread = TARGETS[target]
        if center > 0.0 and kind == "normal":
            spread = 0.1  # keep the factors positive
        distributions[target] = {"kind": kind, "params": draw(KINDS[kind](center, spread))}
    if draw(st.booleans()):
        choices = draw(st.lists(st.sampled_from(CYCLE_CHOICES), min_size=1, max_size=4))
        distributions["drive_cycle"] = {"kind": "categorical", "params": {"choices": choices}}
    base = ScenarioSpec(
        name="columns",
        drive_cycle={"name": "constant", "params": {"speed_kmh": 50.0, "duration_s": 20.0}},
        temperature_c=draw(st.sampled_from([25, 25.0, 0, -0.4, 0.9, 125.0])),
        scavenger_size=draw(st.sampled_from([1, 1.0, 0.6])),
    )
    return FleetSpec(
        name="columns",
        base=base,
        vehicles=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**31 - 1)),
        scale_quantum=draw(st.sampled_from([0, 0.0, 0.05, 0.1, 1])),
        chunk_vehicles=draw(st.integers(1, 13)),
        distributions=distributions,
        thermal=ThermalSpec() if draw(st.booleans()) else None,
    )


def _sample(fleet: FleetSpec):
    """Each chunk's ``(start, count, samples)`` as the fleet draws them."""
    samplers = fleet._samplers()
    shared = fleet._shared_states(samplers)
    for chunk_index in range(fleet.chunk_count()):
        start, count = fleet.chunk_bounds(chunk_index)
        yield start, count, fleet._sample_chunk(samplers, shared, chunk_index, count)


class _Invalid(Exception):
    pass


def _scalar_vehicle(fleet: FleetSpec, index: int, offset: int, samples) -> tuple:
    """One vehicle's fields, one Python operation at a time.

    Returns ``(index, name, speed scale, temperature, scavenger size,
    storage scale, drive cycle, speed)``; raises :class:`_Invalid` with the
    message of the first failing check, in the documented check order.
    """
    base = fleet.base
    low_t, high_t = TEMPERATURE_RANGE_C

    def number(target, default):
        if target not in samples:
            return default
        value = samples[target][offset]
        value = value.item() if isinstance(value, np.generic) else value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _Invalid(f"fleet {target} distribution produced {value!r}, which is not a number")
        return float(value)

    raw = number("speed_scale", 1.0)
    if raw <= 0.0:
        raise _Invalid(f"fleet speed_scale distribution produced {raw!r}; scales must be positive")
    scale, quantum = raw, fleet.scale_quantum
    if quantum > 0.0:
        if not math.isfinite(raw / quantum):
            raise _Invalid(
                f"fleet speed_scale distribution produced {raw!r}, "
                f"which scale_quantum {quantum!r} cannot quantize"
            )
        scale = max(round(raw / quantum) * quantum, quantum)
    if "temperature_c" in samples:
        temperature = float(np.clip(number("temperature_c", None), low_t, high_t))
    elif "ambient_offset_c" in samples:
        offset_c = number("ambient_offset_c", None)
        temperature = float(np.clip(base.temperature_c + offset_c, low_t, high_t))
    else:
        temperature = base.temperature_c
    if fleet.thermal is not None and not math.isnan(temperature):
        temperature = ambient_bin_center_c(ambient_bin(temperature))
    size_factor = number("scavenger_size", 1.0)
    storage_scale = number("storage_capacity", 1.0)
    if size_factor <= 0.0 or storage_scale <= 0.0:
        raise _Invalid("fleet tolerance distributions must produce positive factors")
    if not math.isfinite(storage_scale):
        raise _Invalid(
            f"fleet storage_capacity distribution produced {storage_scale!r}; "
            "factors must be finite"
        )
    digits = len(str(fleet.vehicles - 1)) if fleet.vehicles > 1 else 1
    name = f"{fleet.name}-{index:0{digits}d}"
    cycle = samples["drive_cycle"][offset] if "drive_cycle" in samples else base.drive_cycle
    try:
        scenario = base.with_axes(
            name=name,
            temperature=temperature,
            speed=base.speed_kmh * scale,
            size=base.scavenger_size * size_factor,
            drive_cycle=cycle,
        )
    except ConfigError as error:
        raise _Invalid(str(error)) from None
    return (
        index,
        name,
        scale,
        temperature,
        scenario.scavenger_size,
        storage_scale,
        scenario.drive_cycle,
        scenario.speed_kmh,
    )


def _scalar_population(fleet: FleetSpec) -> list[tuple]:
    vehicles = []
    for start, count, samples in _sample(fleet):
        for offset in range(count):
            vehicles.append(_scalar_vehicle(fleet, start + offset, offset, samples))
    return vehicles


def _column_fields(fleet: FleetSpec):
    """The fields :func:`_scalar_vehicle` returns, read off the column chunks."""
    for chunk in fleet.iter_chunks():
        for index, scale, temperature, size, storage, code in chunk.records():
            name, cycle = fleet.vehicle_name(index), chunk.cycles[code]
            speed = fleet.base.speed_kmh * scale
            yield (index, name, scale, temperature, size, storage, cycle, speed)


def _view_fields(vehicle) -> tuple:
    """The fields :func:`_scalar_vehicle` returns, read off the reference view."""
    spec = vehicle.scenario
    return (
        vehicle.index,
        spec.name,
        vehicle.speed_scale,
        vehicle.temperature_c,
        spec.scavenger_size,
        vehicle.storage_scale,
        spec.drive_cycle,
        spec.speed_kmh,
    )


def _assert_bitwise(actual: tuple, expected: tuple) -> None:
    assert [type(value) for value in actual] == [type(value) for value in expected]
    assert [repr(value) for value in actual] == [repr(value) for value in expected]


class TestColumnsMatchTheScalarArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(fleet=fleets())
    def test_columns_and_reference_view_field_by_field(self, fleet):
        try:
            expected = _scalar_population(fleet)
        except _Invalid as invalid:
            # A drawn tolerance can reach a non-positive factor: both paths
            # then raise the restatement's error.
            for path in (lambda: list(_column_fields(fleet)), fleet.materialize):
                with pytest.raises(ConfigError) as raised:
                    path()
                assert str(raised.value) == str(invalid)
            return
        from_columns = list(_column_fields(fleet))
        from_view = [_view_fields(vehicle) for vehicle in fleet.materialize()]
        assert len(from_columns) == len(from_view) == len(expected) == fleet.vehicles
        for column, view, scalar in zip(from_columns, from_view, expected):
            _assert_bitwise(column, scalar)
            _assert_bitwise(view, scalar)

    @settings(max_examples=25, deadline=None)
    @given(fleet=fleets())
    def test_column_arrays_hold_the_record_values(self, fleet):
        for chunk in fleet.iter_chunks():
            records = chunk.records()
            assert len(chunk) == len(records)
            assert chunk.index.tolist() == [record[0] for record in records]
            for column, position in (
                (chunk.speed_scale, 1),
                (chunk.temperature_c, 2),
                (chunk.scavenger_size, 3),
                (chunk.storage_scale, 4),
            ):
                assert column.dtype == np.float64
                assert column.tolist() == [float(record[position]) for record in records]


#: A corrupted sample per kind; each carries the vehicle index where it can.
CORRUPTIONS = {
    "not-a-number": lambda index: f"bad-{index}",
    "negative": lambda index: -float(index + 1),
    "zero": lambda index: 0.0,
    "nan": lambda index: float("nan"),
    "inf": lambda index: float("inf"),
    "overflow": lambda index: 1e308,
}


@st.composite
def corrupted_fleets(draw):
    """A fleet, one target it distributes, and ``{vehicle index: corruption}``."""
    fleet = draw(fleets())
    configured = dict(fleet.distributions)
    target = draw(st.sampled_from(sorted(TARGETS) + ["drive_cycle"]))
    ambients = {"temperature_c", "ambient_offset_c"} & set(configured)
    if target in ("temperature_c", "ambient_offset_c") and ambients:
        target = ambients.pop()
    if target not in configured:
        value = CYCLE_CHOICES[0] if target == "drive_cycle" else TARGETS[target][0]
        configured[target] = {"kind": "constant", "params": {"value": value}}
        fleet = replace(fleet, distributions=configured)
    corrupt = draw(
        st.dictionaries(
            st.integers(0, fleet.vehicles - 1),
            st.sampled_from(sorted(CORRUPTIONS)),
            min_size=1,
            max_size=3,
        )
    )
    return fleet, target, corrupt


class TestCorruptedSamples:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_path_raises_the_first_failing_vehicles_error(self, data):
        fleet, target, corrupt = data.draw(corrupted_fleets())
        original = FleetSpec._sample_chunk

        def corrupted_sample(self, samplers, shared, chunk_index, count):
            samples = dict(original(self, samplers, shared, chunk_index, count))
            start = chunk_index * self.chunk_vehicles
            values = np.array(samples[target], dtype=object)
            for index, kind in corrupt.items():
                if start <= index < start + count:
                    if target == "drive_cycle":
                        values[index - start] = 42 if kind == "zero" else f"bogus-{index}"
                    else:
                        values[index - start] = CORRUPTIONS[kind](index)
            samples[target] = values
            return samples

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FleetSpec, "_sample_chunk", corrupted_sample)
            try:
                _scalar_population(fleet)
            except _Invalid as invalid:
                expected = str(invalid)
            else:
                expected = None
            paths = {
                "view": fleet.materialize,
                "columns": lambda: [chunk.records() for chunk in fleet.iter_chunks()],
                "run": FleetRunner(fleet).run,
            }
            if expected is None:
                paths["view"]()
                paths["columns"]()
                return
            for name, path in paths.items():
                with pytest.raises(ConfigError) as raised:
                    path()
                assert str(raised.value) == expected, name
