"""Regression tests: emulator memo reuse and the columnar sample log.

The emulator keeps its standstill-power memo, its speed-key classes and its
cycle plans warm across ``emulate()`` runs (the evaluator and database are
fixed per instance).  Reusing them must not change any ``EmulationResult``
totals, and the columnar :class:`SampleLog` must hold exactly the columns
it was built from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import EmulationResult, NodeEmulator, SampleLog
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import constant_cruise, urban_cycle


def result_totals(result: EmulationResult) -> dict[str, float]:
    return {
        "harvested_j": result.harvested_j,
        "consumed_j": result.consumed_j,
        "discarded_j": result.discarded_j,
        "revolutions": result.revolutions,
        "active_revolutions": result.active_revolutions,
        "brownout_events": result.brownout_events,
        "moving_time_s": result.moving_time_s,
        "active_time_s": result.active_time_s,
    }


class TestCacheReuse:
    def test_warm_run_reproduces_cold_run_totals(self, node, database, scavenger):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = urban_cycle(repetitions=1)
        cold = emulator.emulate(cycle)
        warm = emulator.emulate(cycle)  # same instance: the memos are warm
        assert result_totals(warm) == pytest.approx(result_totals(cold))
        for key, column in cold.sample_arrays().items():
            assert np.array_equal(column, warm.sample_arrays()[key]), key

    def test_speed_key_classes_persist_across_runs(self, node, database, scavenger):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(constant_cruise(80.0, duration_s=30.0))
        trusted = set(emulator._trusted_speed_keys)
        assert trusted
        emulator.emulate(constant_cruise(80.0, duration_s=30.0))
        assert emulator._trusted_speed_keys == trusted

    def test_warm_emulator_matches_fresh_emulator(self, node, database, scavenger):
        cycle = constant_cruise(70.0, duration_s=60.0)
        warm = NodeEmulator(node, database, scavenger, supercapacitor())
        warm.emulate(constant_cruise(110.0, duration_s=30.0))  # populate caches
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        assert result_totals(warm.emulate(cycle)) == pytest.approx(
            result_totals(fresh.emulate(cycle))
        )

    def test_in_place_database_mutation_invalidates_caches(
        self, node, database, scavenger
    ):
        cycle = constant_cruise(70.0, duration_s=60.0)
        warm = NodeEmulator(node, database, scavenger, supercapacitor())
        warm.emulate(cycle)  # populate caches from the original database
        entry = warm.evaluator.database.entry("rf_tx", "active")
        warm.evaluator.database.remove("rf_tx", "active")
        warm.evaluator.database.add(entry.scaled(dynamic_factor=100.0))
        mutated = warm.emulate(cycle)
        fresh = NodeEmulator(node, warm.evaluator.database, scavenger, supercapacitor())
        assert mutated.consumed_j == pytest.approx(fresh.emulate(cycle).consumed_j)

    def test_base_point_reassignment_invalidates_caches(
        self, node, database, scavenger
    ):
        from repro.conditions.operating_point import OperatingPoint
        from repro.conditions.supply import SupplyCondition, SupplyRail

        cycle = constant_cruise(70.0, duration_s=60.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        low_rail = SupplyRail(name="vdd_core", nominal_v=1.0, tolerance=0.0)
        low_point = OperatingPoint(supply=SupplyCondition(rail=low_rail))
        emulator.base_point = low_point
        warm = emulator.emulate(cycle)
        fresh = NodeEmulator(
            node, database, scavenger, supercapacitor(), base_point=low_point
        ).emulate(cycle)
        assert warm.consumed_j == pytest.approx(fresh.consumed_j)

    def test_feasibility_boundary_round_falls_back_to_exact_speed(
        self, limited_node, database, scavenger
    ):
        """A round feasible at its exact speed but not at its bin's upper
        edge must still emulate, keyed on the exact speed."""
        from repro.timing.wheel_round import WheelRound

        node = limited_node
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        speed = 128.7  # feasible, but its bin's upper edge (128.75) is not
        node.schedule_for(speed, 0)
        assert not node.schedule_table([128.75], [node.phase_pattern(0)]).feasible[0]
        unit = WheelRound(
            index=0,
            start_s=0.0,
            period_s=node.wheel.revolution_period_s(speed),
            speed_kmh=speed,
        )
        energy = emulator._revolution_energy(unit, 25.0)
        assert isinstance(energy, float) and energy > 0.0
        # The boundary (bin, pattern) is classified once as exact-keyed so
        # later rounds in the same bin skip the doomed schedule build.
        assert any(key[0] == round(speed / 0.5) for key in emulator._exact_speed_keys)
        again = emulator._revolution_energy(unit, 25.0)
        assert again == energy

    def test_cached_bin_does_not_mask_faster_infeasible_speed(
        self, limited_node, database, scavenger
    ):
        """A bin entry seeded by a feasible speed must not suppress the
        ScheduleError for a later, faster, infeasible speed in the same bin."""
        from repro.errors import ScheduleError
        from repro.timing.wheel_round import WheelRound

        node = limited_node
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())

        def round_at(speed):
            return WheelRound(
                index=0,
                start_s=0.0,
                period_s=node.wheel.revolution_period_s(speed),
                speed_kmh=speed,
            )

        # 128.7 and 128.74 share bin 257 (center 128.5, feasible).
        node.schedule_for(128.5, 0)
        emulator._revolution_energy(round_at(128.7), 25.0)  # seeds the bin
        with pytest.raises(ScheduleError):
            emulator._revolution_energy(round_at(128.74), 25.0)

    def test_infeasible_exact_speed_still_raises(
        self, limited_node, database, scavenger
    ):
        """A feasible bin center must not mask an infeasible actual speed."""
        from repro.errors import ScheduleError
        from repro.timing.wheel_round import WheelRound

        node = limited_node
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        speed = 128.74  # infeasible, but its bin center (128.5) is feasible
        node.schedule_for(128.5, 0)
        unit = WheelRound(
            index=0,
            start_s=0.0,
            period_s=node.wheel.revolution_period_s(speed),
            speed_kmh=speed,
        )
        with pytest.raises(ScheduleError) as raised:
            emulator._revolution_energy(unit, 25.0)
        with pytest.raises(ScheduleError) as reference:
            node.schedule_for(speed, 0)
        assert str(raised.value) == str(reference.value)

    def test_bin_sweep_leaves_out_unbuildable_keys(self, limited_node, database, scavenger):
        """One sweep decides feasibility: a round that cannot be built stays unresolved.

        At 128.74 km/h the limited node's transmitting rounds no longer fit,
        its other rounds do, and its bin (upper edge 128.75) is keyed on the
        exact speed; at 128.7 every round fits.
        """
        from repro.errors import ScheduleError
        from repro.timing.wheel_round import WheelRound

        node = limited_node
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cruises = [constant_cruise(speed, duration_s=5.0) for speed in (128.7, 128.74)]
        plans = [emulator.materialize_cycle(cycle) for cycle in cruises]
        fits, fails = emulator._resolve_rounds([(plan, 25.0, None) for plan in plans])
        assert not fits.checked and fails.checked
        alone = NodeEmulator(node, database, scavenger, supercapacitor())
        outcomes = []
        for plan, resolution in zip(plans, (fits, fails)):
            for i in plan.round_indices.tolist():
                unit = WheelRound(
                    index=int(plan.indices[i]),
                    start_s=float(plan.starts[i]),
                    period_s=float(plan.durations[i]),
                    speed_kmh=float(plan.speeds[i]),
                )
                k = resolution.value_index[i]
                outcomes.append(k >= 0)
                if k < 0:
                    with pytest.raises(ScheduleError):
                        alone._revolution_energy(unit, 25.0)
                else:
                    value = alone._revolution_energy(unit, 25.0)
                    assert resolution.energies[k].hex() == value.hex()
        assert any(outcomes) and not all(outcomes)

    def test_bin_sharing_speeds_do_not_leak_history(self, node, database, scavenger):
        """Two speeds in the same 0.5 km/h bin must not cross-contaminate runs.

        80.24 and 80.49 km/h share a quantization bin; a warm emulator that
        saw 80.24 first must report the same totals for an 80.49 cycle as a
        fresh emulator, because cached energies are evaluated at the
        bin-representative speed, not at the first speed seen.
        """
        cycle = constant_cruise(80.49, duration_s=60.0)
        warm = NodeEmulator(node, database, scavenger, supercapacitor())
        warm.emulate(constant_cruise(80.24, duration_s=60.0))
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        assert result_totals(warm.emulate(cycle)) == pytest.approx(
            result_totals(fresh.emulate(cycle))
        )

    def test_thermal_warm_emulator_matches_fresh_emulator(
        self, node, database, scavenger
    ):
        """Standstill memoization must not make emulate() history-dependent.

        The warm emulator seeds its temperature bins while running a hotter
        cycle; re-running the reference cycle must still match a fresh
        emulator exactly because bins are evaluated at their representative
        temperature, not at the first temperature seen.
        """
        cycle = constant_cruise(90.0, duration_s=120.0)
        warm = NodeEmulator(
            node, database, scavenger, supercapacitor(),
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        warm.emulate(constant_cruise(130.0, duration_s=300.0))
        fresh = NodeEmulator(
            node, database, scavenger, supercapacitor(),
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        assert result_totals(warm.emulate(cycle)) == pytest.approx(
            result_totals(fresh.emulate(cycle))
        )

    def test_node_and_evaluator_reassignment_invalidates_caches(
        self, node, optimized, database, scavenger
    ):
        from repro.core.evaluator import EnergyEvaluator

        cycle = constant_cruise(70.0, duration_s=60.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        emulator.node = optimized
        emulator.evaluator = EnergyEvaluator(optimized, database)
        warm = emulator.emulate(cycle)
        fresh = NodeEmulator(optimized, database, scavenger, supercapacitor()).emulate(cycle)
        assert warm.consumed_j == pytest.approx(fresh.consumed_j)

    def test_standstill_power_is_memoized_per_temperature_quantum(
        self, node, database, scavenger
    ):
        emulator = NodeEmulator(
            node,
            database,
            scavenger,
            supercapacitor(),
            thermal_model=TyreThermalModel(time_constant_s=60.0),
        )
        emulator.emulate(constant_cruise(120.0, duration_s=120.0))
        assert len(emulator._standstill_cache) >= 1
        # Far fewer cache entries than wheel rounds: the memoization works.
        assert len(emulator._standstill_cache) < 50


class TestSampleLog:
    def test_from_columns_owns_typed_copies(self):
        time_s = [float(i) for i in range(100)]
        active = [i % 2 == 0 for i in range(100)]
        log = SampleLog.from_columns(time_s, [50.0] * 100, [25.0] * 100, [0.5] * 100, active)
        time_s[99] = -1.0  # the log owns its columns
        assert len(log) == 100
        arrays = log.arrays()
        assert arrays["time_s"].shape == (100,) and arrays["time_s"].dtype == float
        assert arrays["time_s"][99] == 99.0
        assert arrays["node_active"].dtype == bool
        assert bool(arrays["node_active"][0]) is True
        assert bool(arrays["node_active"][1]) is False

    def test_arrays_are_views_not_copies(self):
        log = SampleLog.from_columns([0.0], [10.0], [20.0], [0.9], [True])
        arrays = log.arrays()
        assert arrays["speed_kmh"].base is not None
        with pytest.raises(ValueError):
            arrays["speed_kmh"][0] = 0.0
        assert log.arrays()["speed_kmh"][0] == 10.0

    def test_result_log_replacement(self):
        result = EmulationResult(node_name="n", cycle_name="c", duration_s=3.0)
        result.log = SampleLog.from_columns([0.0], [50.0], [25.0], [0.5], [True])
        assert result.sample_count == 1
        assert result.sample_arrays()["speed_kmh"][0] == 50.0
        result.log = SampleLog.from_columns([], [], [], [], [])
        assert result.sample_count == 0

    def test_lazy_empty_log_has_typed_columns(self):
        """A result's empty log, built on first use, has a recorded log's dtypes."""
        result = EmulationResult(node_name="n", cycle_name="c", duration_s=1.0)
        empty = result.log
        assert len(empty) == 0 and result.log is empty
        recorded = SampleLog.from_columns([0.0], [50.0], [25.0], [0.5], [True]).arrays()
        columns = empty.arrays()
        assert list(columns) == list(recorded)
        for key, column in columns.items():
            assert column.shape == (0,) and column.dtype == recorded[key].dtype, key

    def test_a_result_without_samples_allocates_no_log(self):
        # The fleet builds one result per vehicle and never records into it.
        result = EmulationResult(node_name="n", cycle_name="c", duration_s=1.0)
        other = EmulationResult(node_name="n", cycle_name="c", duration_s=1.0)
        assert result.sample_count == 0
        assert "samples=0" in repr(result)
        assert result._log is None
        assert result == other
        assert result.sample_arrays()["time_s"].shape == (0,)
        other.log = SampleLog.from_columns([0.0], [50.0], [25.0], [0.5], [True])
        assert result != other
        assert "samples=1" in repr(other)

