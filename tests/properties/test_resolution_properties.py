"""Property tests for the emulator's columnar round resolution.

``NodeEmulator._resolve_rounds`` numbers every (slot, temperature bin) entry
of a batch of requests as an int64 code, builds the distinct evaluation
points as columns and sweeps them in one call.  For any batch over several
plans (isothermal and thermal requests, speeds around the limited node's
feasibility limit, which makes exact-speed keys and unbuildable rounds, and
temperatures that leave the modelled range), every run must be what the
scalar path gives it one round at a time:

* a resolved round's energy is a fresh emulator's scalar
  ``_revolution_energy``, bit for bit;
* the unresolved rounds before ``end`` are exactly those whose scalar
  call raises;
* ``end``, ``checked`` and the per-unit ``load`` equal a scalar reference.

A fleet run pins the columnar path by call counting: one sweep and at most
one load gather per walk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.emulator as emulator_module
from repro.blocks import baseline_node
from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.errors import ScheduleError
from repro.fleet import FleetRunner, FleetSpec
from repro.power import reference_power_database
from repro.scavenger import PiezoelectricScavenger, supercapacitor
from repro.scenario import ScenarioSpec
from repro.timing.wheel_round import WheelRound
from repro.vehicle.drive_cycle import DriveCycle, DriveCyclePhase

from naive_reference import revolution_energy

LOW, HIGH = TEMPERATURE_RANGE_C
#: The limited node's transmitting rounds stop fitting just above 128.72
#: km/h (119.19 km/h when they also write the NVM log).
LIMIT_SPEEDS = st.sampled_from([119.1, 119.2, 119.3, 128.5, 128.7, 128.72, 128.74, 128.8, 131.0])
SPEEDS = st.one_of(LIMIT_SPEEDS, st.floats(0.0, 140.0))
PHASES = st.builds(
    DriveCyclePhase,
    duration_s=st.floats(0.5, 4.0),
    start_kmh=SPEEDS,
    end_kmh=SPEEDS,
)
CYCLES = st.lists(PHASES, min_size=1, max_size=3).map(lambda phases: DriveCycle(phases=phases))
#: Isothermal temperatures, some outside the modelled range.
TEMPERATURES = st.one_of(
    st.floats(-30.0, 90.0), st.sampled_from([LOW, HIGH, LOW - 1.0, HIGH + 5.0, -0.0])
)
#: Thermal models, some heating past the upper end of the range.
MODELS = st.builds(
    TyreThermalModel,
    ambient_celsius=st.one_of(st.floats(-20.0, 60.0), st.floats(150.0, 199.0)),
    rise_coefficient=st.floats(0.0, 0.5),
    max_rise_c=st.floats(0.0, 80.0),
    time_constant_s=st.floats(1.0, 600.0),
)
REQUESTS = st.lists(
    st.tuples(st.integers(0, 2), TEMPERATURES, st.one_of(st.none(), MODELS)),
    min_size=1,
    max_size=6,
)


def _limited_node():
    node = baseline_node()
    return node.with_mcu(node.mcu.with_clock(1e6))


NODE = _limited_node()
DATABASE = reference_power_database()


def _emulator() -> NodeEmulator:
    return NodeEmulator(NODE, DATABASE, PiezoelectricScavenger(), supercapacitor())


def _copy(model: TyreThermalModel | None) -> TyreThermalModel | None:
    if model is None:
        return None
    return TyreThermalModel(
        ambient_celsius=model.ambient_celsius,
        rise_coefficient=model.rise_coefficient,
        max_rise_c=model.max_rise_c,
        time_constant_s=model.time_constant_s,
    )


def _reference_temperatures(plan, temperature, model) -> np.ndarray:
    """Per-unit temperatures: the request's one value, or the model stepped unit by unit."""
    if model is None:
        return np.full(len(plan), float(temperature))
    return np.array(
        [model.advance(dt, speed / 3.6) for dt, speed in zip(plan.durations, plan.speeds)]
    )


def _assert_matches_scalar(plan, temperature, model, resolution) -> None:
    temps = _reference_temperatures(plan, temperature, model)
    in_range = (temps >= LOW) & (temps <= HIGH)
    end = len(plan) if in_range.all() else int(np.argmin(in_range))
    if model is None:
        end = len(plan) if in_range.all() else 0
    assert resolution.end == end
    scalar, energies = _emulator(), {}
    pmu = NODE.pmu
    unresolved = False
    for i in range(len(plan)):
        load = float(resolution.load[i])
        k = int(resolution.value_index[i])
        if not plan.is_round[i]:
            sleep = scalar._standstill_power(float(temps[i])) if i < end else 0.0
            expected = pmu.referred_to_storage(sleep * float(plan.durations[i]))
            assert k == -1 and load.hex() == expected.hex()
            continue
        if i >= end:
            assert k == -1 and load == 0.0
            continue
        unit = WheelRound(
            index=int(plan.indices[i]),
            start_s=float(plan.starts[i]),
            period_s=float(plan.durations[i]),
            speed_kmh=float(plan.speeds[i]),
        )
        try:
            energy = revolution_energy(scalar, unit, float(temps[i]), energies)
        except ScheduleError:
            unresolved = True
            assert k == -1 and load == 0.0
            continue
        assert k >= 0
        assert resolution.energies[k].hex() == energy.hex()
        assert load.hex() == pmu.referred_to_storage(energy).hex()
    assert resolution.checked == (end < len(plan) or unresolved)


class TestColumnarResolution:
    @settings(
        derandomize=True,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cycles=st.lists(CYCLES, min_size=1, max_size=3), requests=REQUESTS)
    def test_every_round_is_its_scalar_value(self, cycles, requests):
        emulator = _emulator()
        plans = [emulator.materialize_cycle(cycle) for cycle in cycles]
        batch = [
            (plans[which % len(plans)], temperature, model)
            for which, temperature, model in requests
        ]
        # The batch advances its models in place; the reference steps copies.
        references = [(plan, temperature, _copy(model)) for plan, temperature, model in batch]
        resolutions = emulator._resolve_rounds(batch)
        assert len(resolutions) == len(batch)
        for (plan, temperature, model), resolution in zip(references, resolutions):
            assert resolution.plan is plan
            _assert_matches_scalar(plan, temperature, model, resolution)

    @settings(
        derandomize=True,
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cycles=st.lists(CYCLES, min_size=1, max_size=3), requests=REQUESTS)
    def test_a_batch_resolves_each_request_as_alone(self, cycles, requests):
        """The fleet's batched call gives each run what ``emulate()``'s one-request call does."""
        emulator = _emulator()
        plans = [emulator.materialize_cycle(cycle) for cycle in cycles]
        batch = [
            (plans[which % len(plans)], temperature, model)
            for which, temperature, model in requests
        ]
        alone = [
            _emulator()._resolve_rounds([(plan, temperature, _copy(model))])[0]
            for plan, temperature, model in batch
        ]
        for ours, theirs in zip(emulator._resolve_rounds(batch), alone):
            assert (ours.end, ours.checked) == (theirs.end, theirs.checked)
            assert np.asarray(ours.temps).tobytes() == np.asarray(theirs.temps).tobytes()
            assert ours.load.tobytes() == theirs.load.tobytes()
            resolved = ours.value_index >= 0
            assert np.array_equal(resolved, theirs.value_index >= 0)
            swept = ours.energies[ours.value_index[resolved]]
            assert swept.tobytes() == theirs.energies[theirs.value_index[resolved]].tobytes()


@pytest.mark.parametrize("thermal", [False, True], ids=["isothermal", "thermal"])
def test_fleet_run_is_one_sweep(thermal, monkeypatch):
    sweeps, gathers = [], []
    sweep = NodeEmulator.evaluate_energy_bins
    gather = emulator_module.unit_loads

    def counting_sweep(self, table, temperatures):
        sweeps.append(len(temperatures))
        return sweep(self, table, temperatures)

    def counting_gather(pmu, plan, *rest):
        gathers.append(plan)
        return gather(pmu, plan, *rest)

    monkeypatch.setattr(NodeEmulator, "evaluate_energy_bins", counting_sweep)
    monkeypatch.setattr(emulator_module, "unit_loads", counting_gather)
    base = ScenarioSpec(name="pin", drive_cycle={"name": "urban", "params": {"repetitions": 1}})
    document = FleetSpec.from_base(base, vehicles=24, seed=5).to_dict()
    if thermal:
        document["thermal"] = {}
    result = FleetRunner(FleetSpec.from_dict(document)).run()
    assert len(sweeps) == 1
    assert sweeps[0] == result.metadata["shared_energy_bins"] > 0
    walks = {id(plan) for plan in gathers}
    assert len(gathers) == len(walks) > 1
