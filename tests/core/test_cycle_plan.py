"""The emulator's cycle-plan memo and its walk count.

A cold ``emulate()`` walks the cycle exactly once (one ``materialize_cycle``
call); a warm re-run walks nothing.  The memo is keyed on the cycle's
content, so an in-place edit of ``cycle.phases`` must miss it, and every
input the plan bakes in — the node — or that the run's caches bake in —
the base point, the database version — must give the fresh result.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.emulator as emulator_module
from repro.conditions.operating_point import OperatingPoint
from repro.core.cycle_plan import sample_walk
from repro.core.emulator import NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import DriveCyclePhase, constant_cruise, urban_cycle
from repro.vehicle.tyre import Tyre
from repro.vehicle.wheel import Wheel


@pytest.fixture
def plan_builds(monkeypatch) -> list:
    """Counts ``NodeEmulator.materialize_cycle`` calls (cycle walks)."""
    calls = []
    original = NodeEmulator.materialize_cycle

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(NodeEmulator, "materialize_cycle", counting)
    return calls


def _emulator(node, database, scavenger, **options) -> NodeEmulator:
    return NodeEmulator(node, database, scavenger, supercapacitor(initial_fraction=0.3), **options)


class TestPlanMemo:
    def test_cold_run_walks_once_and_warm_run_walks_nothing(
        self, node, database, scavenger, plan_builds
    ):
        emulator = _emulator(node, database, scavenger)
        cycle = urban_cycle(repetitions=2)
        cold = emulator.emulate(cycle)
        assert len(plan_builds) == 1
        assert emulator.emulate(cycle) == cold
        assert emulator.emulate(cycle, trace_window=(5.0, 9.0)).revolutions == cold.revolutions
        assert len(plan_builds) == 1

    def test_equal_cycle_objects_share_one_plan(self, node, database, scavenger, plan_builds):
        emulator = _emulator(node, database, scavenger)
        emulator.emulate(urban_cycle(repetitions=1))
        emulator.emulate(urban_cycle(repetitions=1))
        assert len(plan_builds) == 1

    def test_step_sizes_are_part_of_the_key(self, node, database, scavenger, plan_builds):
        emulator = _emulator(node, database, scavenger)
        cycle = urban_cycle(repetitions=1)
        emulator.emulate(cycle)
        emulator.emulate(cycle, record_interval_s=0.5)
        emulator.emulate(cycle, idle_step_s=0.5)
        assert len(plan_builds) == 3
        assert emulator.emulate(cycle, idle_step_s=0.5) == _emulator(
            node, database, scavenger
        ).emulate(cycle, idle_step_s=0.5)

    def test_in_place_phase_mutation_gives_the_fresh_result(
        self, node, database, scavenger, plan_builds
    ):
        emulator = _emulator(node, database, scavenger)
        cycle = urban_cycle(repetitions=1)
        before = emulator.emulate(cycle)
        cycle.phases[0] = DriveCyclePhase(duration_s=30.0, start_kmh=60.0, end_kmh=90.0)
        cycle.phases.append(DriveCyclePhase(duration_s=20.0, start_kmh=90.0, end_kmh=90.0))
        after = emulator.emulate(cycle)
        assert len(plan_builds) == 2
        assert after != before
        assert after == _emulator(node, database, scavenger).emulate(cycle)

    def test_node_reassignment_gives_the_fresh_result(
        self, node, optimized, database, scavenger, plan_builds
    ):
        # A different wheel and phase patterns: a stale plan would be wrong.
        tyre = Tyre(width_m=0.255, aspect_ratio=0.35, rim_diameter_m=0.48)
        other = replace(optimized, wheel=Wheel(tyre))
        emulator = _emulator(node, database, scavenger)
        cycle = urban_cycle(repetitions=1)
        emulator.emulate(cycle)
        emulator.node = other
        emulator.evaluator = EnergyEvaluator(other, database)
        warm = emulator.emulate(cycle)
        assert len(plan_builds) == 2
        assert warm == _emulator(other, database, scavenger).emulate(cycle)

    def test_base_point_change_gives_the_fresh_result(self, node, database, scavenger):
        emulator = _emulator(node, database, scavenger)
        cycle = urban_cycle(repetitions=1)
        emulator.emulate(cycle)
        emulator.base_point = OperatingPoint(temperature_c=-10.0)
        fresh = _emulator(node, database, scavenger, base_point=OperatingPoint(temperature_c=-10.0))
        assert emulator.emulate(cycle) == fresh.emulate(cycle)

    def test_database_version_bump_gives_the_fresh_result(self, node, database, scavenger):
        emulator = _emulator(node, database, scavenger)
        cycle = constant_cruise(70.0, duration_s=60.0)
        before = emulator.emulate(cycle)
        entry = emulator.evaluator.database.entry("rf_tx", "active")
        emulator.evaluator.database.remove("rf_tx", "active")
        emulator.evaluator.database.add(entry.scaled(dynamic_factor=100.0))
        after = emulator.emulate(cycle)
        assert after != before
        fresh = _emulator(node, emulator.evaluator.database, scavenger)
        assert after == fresh.emulate(cycle)

    def test_memo_never_exceeds_its_bound(self, node, database, scavenger, plan_builds):
        emulator = _emulator(node, database, scavenger)
        speeds = [40.0 + 5.0 * k for k in range(emulator_module._MAX_PLANS + 3)]
        for speed in speeds:
            emulator.emulate(constant_cruise(speed, duration_s=5.0))
            assert len(emulator._plans) <= emulator_module._MAX_PLANS
        assert len(plan_builds) == len(speeds)
        # The most recent cycle is still memoized; the oldest was evicted.
        emulator.emulate(constant_cruise(speeds[-1], duration_s=5.0))
        assert len(plan_builds) == len(speeds)
        emulator.emulate(constant_cruise(speeds[0], duration_s=5.0))
        assert len(plan_builds) == len(speeds) + 1


class TestSampleWalk:
    @pytest.mark.parametrize("interval", [0.1, 0.3, 0.7, 1.0, 2.5, 1e3])
    def test_matches_the_accumulating_loop(self, interval):
        rng = np.random.default_rng(7)
        ends = np.cumsum(rng.uniform(0.01, 1.3, size=400))
        times, units = sample_walk(ends, interval)
        expected_times, expected_units = [], []
        next_record_s = 0.0
        for i, end in enumerate(ends):
            while next_record_s <= end:
                expected_times.append(next_record_s)
                expected_units.append(i)
                next_record_s += interval
        assert times.tobytes() == np.array(expected_times).tobytes()
        assert units.tolist() == expected_units

    def test_empty_walk_records_nothing(self):
        times, units = sample_walk(np.empty(0), 1.0)
        assert times.size == 0 and units.size == 0
