"""Tests for the long-window node emulator."""

from __future__ import annotations

import pytest

from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import NodeEmulator
from repro.errors import EmulationError
from repro.scavenger.electrostatic import ElectrostaticScavenger
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import constant_cruise, urban_cycle


def make_emulator(node, database, scavenger, storage, **kwargs):
    return NodeEmulator(node, database, scavenger, storage, **kwargs)


class TestSteadyStateCruise:
    def test_surplus_cruise_keeps_node_active(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(constant_cruise(100.0, duration_s=120.0))
        assert result.moving_active_fraction == pytest.approx(1.0)
        assert result.brownout_events == 0

    def test_surplus_cruise_accumulates_energy(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(constant_cruise(120.0, duration_s=120.0))
        assert result.harvested_j > result.consumed_j

    def test_deficit_cruise_eventually_browns_out(self, node, database, scavenger):
        storage = supercapacitor(capacity_j=0.05, initial_fraction=0.3)
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(constant_cruise(20.0, duration_s=600.0))
        assert result.brownout_events >= 1
        assert result.moving_active_fraction < 1.0

    def test_revolution_count_matches_kinematics(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        duration = 60.0
        result = emulator.emulate(constant_cruise(90.0, duration_s=duration))
        expected = duration * node.wheel.revolutions_per_second(90.0)
        assert result.revolutions == pytest.approx(expected, abs=2)

    def test_standstill_cycle_harvests_nothing(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(constant_cruise(0.0, duration_s=60.0))
        assert result.harvested_j == 0.0
        assert result.revolutions == 0
        assert result.consumed_j > 0.0  # sleep floor still drains the storage

    def test_summary_keys(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        summary = emulator.emulate(constant_cruise(80.0, duration_s=30.0)).summary()
        assert {"harvested_mj", "consumed_mj", "revolutions", "brownout_events"} <= set(
            summary
        )


class TestSamplesAndState:
    def test_samples_are_recorded_at_the_requested_interval(
        self, node, database, scavenger, storage
    ):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(constant_cruise(80.0, duration_s=30.0), record_interval_s=1.0)
        assert 29 <= result.sample_count <= 32

    def test_sample_arrays_are_parallel(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        arrays = emulator.emulate(constant_cruise(80.0, duration_s=20.0)).sample_arrays()
        lengths = {len(values) for values in arrays.values()}
        assert len(lengths) == 1

    def test_state_of_charge_stays_in_bounds(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        arrays = emulator.emulate(urban_cycle(repetitions=1)).sample_arrays()
        soc = arrays["state_of_charge"]
        assert soc.min() >= 0.0
        assert soc.max() <= 1.0

    def test_record_interval_must_be_positive(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        with pytest.raises(EmulationError):
            emulator.emulate(constant_cruise(80.0), record_interval_s=0.0)

    def test_storage_is_reset_between_runs(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        first = emulator.emulate(constant_cruise(120.0, duration_s=60.0))
        second = emulator.emulate(constant_cruise(120.0, duration_s=60.0))
        assert first.harvested_j == pytest.approx(second.harvested_j)
        assert first.consumed_j == pytest.approx(second.consumed_j)


class TestThermalCoupling:
    def test_thermal_model_increases_consumption(self, node, database, scavenger):
        cycle = constant_cruise(130.0, duration_s=900.0)
        cold = make_emulator(node, database, scavenger, supercapacitor())
        hot = make_emulator(
            node,
            database,
            scavenger,
            supercapacitor(),
            thermal_model=TyreThermalModel(ambient_celsius=35.0, time_constant_s=120.0),
        )
        cold_result = cold.emulate(cycle)
        hot_result = hot.emulate(cycle)
        assert hot_result.consumed_j > cold_result.consumed_j

    def test_temperature_is_recorded(self, node, database, scavenger, storage):
        emulator = make_emulator(
            node, database, scavenger, storage,
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        arrays = emulator.emulate(constant_cruise(120.0, duration_s=300.0)).sample_arrays()
        assert arrays["temperature_c"][-1] > arrays["temperature_c"][0]


class TestInstantPowerTrace:
    def test_trace_window_is_respected(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(
            constant_cruise(80.0, duration_s=30.0), trace_window=(10.0, 11.0)
        )
        assert result.trace is not None
        assert result.trace.start_s >= 10.0 - 1e-6
        assert result.trace.end_s <= 11.0 + 1e-6

    def test_trace_shows_burst_structure(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(
            constant_cruise(80.0, duration_s=10.0), trace_window=(2.0, 3.0)
        )
        trace = result.trace
        assert trace.peak_to_average_ratio() > 3.0
        labels = {label for _, _, _, label in trace.segments()}
        assert {"acquire", "compute", "transmit"} <= labels

    def test_no_trace_without_window(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        assert emulator.emulate(constant_cruise(80.0, duration_s=5.0)).trace is None

    def test_invalid_trace_window_rejected(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        with pytest.raises(EmulationError):
            emulator.emulate(constant_cruise(80.0), trace_window=(5.0, 2.0))


class TestSteadyStateTraceHelper:
    def test_window_duration(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        trace = emulator.steady_state_trace(60.0, window_s=0.5)
        assert trace.duration_s == pytest.approx(0.5, abs=0.01)

    def test_periodicity_matches_wheel_round(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        trace = emulator.steady_state_trace(60.0, window_s=1.0)
        transmit_segments = [
            start for start, _, _, label in trace.segments() if label == "transmit"
        ]
        period = node.wheel.revolution_period_s(60.0)
        assert len(transmit_segments) >= 2
        assert transmit_segments[1] - transmit_segments[0] == pytest.approx(period, rel=0.01)

    def test_energy_matches_evaluator(self, node, database, scavenger, storage, point):
        """Integrating the instant-power trace reproduces the evaluator's
        average energy (cross-check between Fig. 2 and Fig. 3 machinery)."""
        from repro.core.evaluator import EnergyEvaluator

        emulator = make_emulator(node, database, scavenger, storage)
        period = node.wheel.revolution_period_s(60.0)
        trace = emulator.steady_state_trace(60.0, window_s=8 * period)
        per_revolution = trace.energy_j() / 8.0
        expected = EnergyEvaluator(node, database).energy_per_revolution_j(point)
        assert per_revolution == pytest.approx(expected, rel=0.05)

    def test_requires_positive_speed_and_window(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        with pytest.raises(EmulationError):
            emulator.steady_state_trace(0.0, window_s=1.0)
        with pytest.raises(EmulationError):
            emulator.steady_state_trace(60.0, window_s=0.0)


class TestUrbanCycle:
    def test_weak_scavenger_gives_poor_coverage(self, node, database):
        storage = supercapacitor(capacity_j=0.05, initial_fraction=0.2)
        emulator = make_emulator(node, database, ElectrostaticScavenger(), storage)
        result = emulator.emulate(urban_cycle(repetitions=2))
        assert result.moving_active_fraction < 0.9

    def test_energy_bookkeeping_is_consistent(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(urban_cycle(repetitions=1))
        # Energy flows are all non-negative and the net equals the difference.
        assert result.harvested_j >= 0.0
        assert result.consumed_j >= 0.0
        assert result.discarded_j >= 0.0
        assert result.net_energy_j == pytest.approx(
            result.harvested_j - result.consumed_j
        )

    def test_active_revolutions_never_exceed_total(self, node, database, scavenger, storage):
        emulator = make_emulator(node, database, scavenger, storage)
        result = emulator.emulate(urban_cycle(repetitions=1))
        assert result.active_revolutions <= result.revolutions
