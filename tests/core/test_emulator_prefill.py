"""Byte identity of the emulator's planned, one-sweep round resolution.

``emulate()`` builds one cycle plan, evaluates every quantized
(speed, temperature, phase-pattern) point its rounds play with ONE batch
sweep before the state-of-charge integration, and integrates through one
call of the pure ledger kernel, ``trajectory()``.  Rounds whose
schedule cannot be built draw nothing in that scan; the first one the node
reaches while active raises, as does the first unit outside the modelled
temperature range.  The contract is strict: the output must be *byte
identical* to the naive per-revolution reference (``naive_reference.py``)
— one ``WheelRound`` at a time from ``iter_wheel_rounds``, per-round
``_revolution_energy`` evaluations and a mutating ``StorageElement`` with
restart hysteresis — same totals, same ``SampleLog`` bytes, same trace, or
the same error.  A warm isothermal run reuses the cold run's memoized round
resolution, and must still give a fresh emulator's bytes whatever changed
between the runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.emulator as emulator_module
from repro.blocks.node import SensorNode
from repro.conditions.temperature import TyreThermalModel
from repro.core.emulator import EmulationResult, NodeEmulator
from repro.core.quantize import speed_bin, speed_bin_upper_edge_kmh
from repro.errors import ConfigurationError, ScheduleError
from repro.scavenger.storage import supercapacitor
from repro.timing.wheel_round import WheelRound
from repro.vehicle.drive_cycle import (
    DriveCycle,
    DriveCyclePhase,
    constant_cruise,
    highway_cycle,
    urban_cycle,
)

from naive_reference import naive_emulate


def _thermal_emulator(node, database, scavenger, **thermal) -> NodeEmulator:
    return NodeEmulator(
        node,
        database,
        scavenger,
        supercapacitor(initial_fraction=0.3),
        thermal_model=TyreThermalModel(**{"time_constant_s": 120.0, **thermal}),
    )


def _hour_cycle() -> DriveCycle:
    """An hour-long profile mixing cruises, ramps and a stop."""
    phases = [
        DriveCyclePhase(duration_s=600.0, start_kmh=30.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=120.0, end_kmh=120.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=120.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=300.0, start_kmh=0.0, end_kmh=0.0),
        DriveCyclePhase(duration_s=600.0, start_kmh=0.0, end_kmh=90.0),
        DriveCyclePhase(duration_s=900.0, start_kmh=90.0, end_kmh=45.0),
    ]
    return DriveCycle(phases=phases, name="hour")


def _assert_byte_identical(ours: EmulationResult, theirs: EmulationResult) -> None:
    columns, reference = ours.sample_arrays(), theirs.sample_arrays()
    for key in columns:
        assert columns[key].tobytes() == reference[key].tobytes(), key
    assert ours == theirs


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``NodeEmulator.<name>`` (arguments after self)."""
    calls = []
    original = getattr(NodeEmulator, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(NodeEmulator, name, counting)
    return calls


def _memoized_resolution(emulator: NodeEmulator):
    """The one isothermal round resolution ``emulator``'s plan memo holds."""
    ((_plan, resolutions),) = emulator._plans.values()
    (resolution,) = resolutions.values()
    return resolution


def _fits(node, speed_kmh: float, pattern) -> bool:
    """Whether the scalar reference can build this schedule."""
    try:
        node.schedule_for_pattern(speed_kmh, *pattern)
    except ScheduleError:
        return False
    return True


class TestPrefillByteIdentity:
    def test_hour_long_cycle_samplelog_is_byte_identical(self, node, database, scavenger):
        cycle = _hour_cycle()
        planned = _thermal_emulator(node, database, scavenger).emulate(cycle)
        reference = naive_emulate(_thermal_emulator(node, database, scavenger), cycle)
        _assert_byte_identical(planned, reference)

    def test_trace_window_is_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        window = (10.0, 12.0)
        planned = _thermal_emulator(node, database, scavenger).emulate(
            cycle, trace_window=window
        )
        reference = naive_emulate(
            _thermal_emulator(node, database, scavenger), cycle, trace_window=window
        )
        assert planned.trace is not None and not planned.trace.is_empty
        assert planned.trace == reference.trace
        _assert_byte_identical(planned, reference)

    def test_constant_temperature_run_is_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=2)
        planned = NodeEmulator(node, database, scavenger, supercapacitor()).emulate(cycle)
        reference = naive_emulate(
            NodeEmulator(node, database, scavenger, supercapacitor()), cycle
        )
        _assert_byte_identical(planned, reference)

    def test_record_interval_and_idle_step_are_identical(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        options = {"record_interval_s": 0.7, "idle_step_s": 0.45}
        planned = _thermal_emulator(node, database, scavenger).emulate(cycle, **options)
        reference = naive_emulate(_thermal_emulator(node, database, scavenger), cycle, **options)
        _assert_byte_identical(planned, reference)

    def test_warm_cold_and_fresh_runs_are_identical(self, node, database, scavenger):
        cycle = _hour_cycle()
        emulator = _thermal_emulator(node, database, scavenger)
        cold = emulator.emulate(cycle)
        warm = emulator.emulate(cycle)
        fresh = _thermal_emulator(node, database, scavenger).emulate(cycle)
        _assert_byte_identical(warm, cold)
        _assert_byte_identical(fresh, cold)


class TestPrefillMechanics:
    def test_one_sweep_before_the_one_scan(self, node, database, scavenger, monkeypatch):
        """Every point of the run is swept in one call before the ledger scan starts."""
        events = []
        sweep = NodeEmulator.evaluate_energy_bins

        def sweeping(self, table, temperatures):
            events.append(("sweep", len(temperatures)))
            return sweep(self, table, temperatures)

        monkeypatch.setattr(NodeEmulator, "evaluate_energy_bins", sweeping)
        scan = emulator_module.trajectory

        def scanning(*args, **kwargs):
            events.append(("scan", None))
            return scan(*args, **kwargs)

        monkeypatch.setattr(emulator_module, "trajectory", scanning)
        _thermal_emulator(node, database, scavenger).emulate(_hour_cycle())
        (first, swept), second = events
        assert first == "sweep" and swept > 0 and second == ("scan", None)

    def test_second_prefill_is_a_no_op(self, node, database, scavenger, monkeypatch):
        """A warm isothermal run builds no schedule table and sweeps nothing.

        A warm thermal run resolves again, and equals the cold run and a
        fresh emulator bit for bit.
        """
        cycle = _hour_cycle()
        emulator = NodeEmulator(node, database, scavenger, supercapacitor(initial_fraction=0.3))
        cold = emulator.emulate(cycle)
        sweeps = _count_calls(monkeypatch, "evaluate_energy_bins")
        tables = []
        schedule_table = SensorNode.schedule_table
        monkeypatch.setattr(
            SensorNode,
            "schedule_table",
            lambda self, *args: tables.append(1) or schedule_table(self, *args),
        )
        _assert_byte_identical(emulator.emulate(cycle), cold)
        assert sweeps == []
        assert tables == [], "a warm run built schedule tables"

        thermal = _thermal_emulator(node, database, scavenger)
        cold = thermal.emulate(cycle)
        sweeps.clear()
        warm = thermal.emulate(cycle)
        assert len(sweeps) == 1
        _assert_byte_identical(warm, cold)
        _assert_byte_identical(warm, _thermal_emulator(node, database, scavenger).emulate(cycle))

    def test_warm_cycle_skips_the_rescan(self, node, database, scavenger, monkeypatch):
        """A cold run builds the plan once; a warm run walks nothing."""
        builds = _count_calls(monkeypatch, "materialize_cycle")
        emulator = _thermal_emulator(node, database, scavenger)
        cycle = _hour_cycle()
        cold = emulator.emulate(cycle)
        assert len(builds) == 1
        warm = emulator.emulate(cycle)
        assert len(builds) == 1, "warm run re-walked the cycle"
        fresh = _thermal_emulator(node, database, scavenger).emulate(cycle)
        assert warm == fresh == cold

    def test_base_point_change_invalidates_the_scan_memo(
        self, node, database, scavenger, monkeypatch
    ):
        """Only a supply or process change clears the caches and the plan memo.

        Every evaluation overrides the base point's speed and temperature,
        and the keys carry the temperature bin, so a temperature change
        walks nothing and still gives the reference's bytes.
        """
        from repro.conditions.operating_point import OperatingPoint
        from repro.conditions.process import ProcessCorner, ProcessVariation
        from repro.conditions.supply import CORE_RAIL, SupplyCondition

        builds = _count_calls(monkeypatch, "materialize_cycle")
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = _hour_cycle()
        emulator.emulate(cycle)
        for temperature in (40.0, 25.0, 40.0):
            emulator.base_point = OperatingPoint(temperature_c=temperature)
            moved = emulator.emulate(cycle)
            point = OperatingPoint(temperature_c=temperature)
            fresh = NodeEmulator(node, database, scavenger, supercapacitor(), base_point=point)
            _assert_byte_identical(moved, naive_emulate(fresh, cycle))
        assert len(builds) == 1, "a temperature change re-walked the cycle"
        low_supply = SupplyCondition(rail=CORE_RAIL, corner="min")
        fast = ProcessVariation(corner=ProcessCorner.FAST)
        # First the supply alone changes, then the process alone.
        for changed in (
            OperatingPoint(40.0, supply=low_supply),
            OperatingPoint(40.0, supply=low_supply, process=fast),
        ):
            assert emulator._standstill_cache and emulator._plans
            assert emulator._trusted_speed_keys
            emulator.base_point = changed
            emulator._ensure_caches_fresh()
            assert not emulator._standstill_cache
            assert not emulator._plans and not emulator._trusted_speed_keys
            builds.clear()
            moved = emulator.emulate(cycle)
            assert len(builds) == 1
            fresh = NodeEmulator(node, database, scavenger, supercapacitor(), base_point=changed)
            _assert_byte_identical(moved, naive_emulate(fresh, cycle))

    def test_prefill_resets_the_thermal_model(self, node, database, scavenger):
        """Planning leaves the thermal model alone; a run ends where the reference ends."""
        emulator = _thermal_emulator(node, database, scavenger)
        ambient = emulator.thermal_model.current_celsius
        emulator.materialize_cycle(_hour_cycle())
        assert emulator.thermal_model.current_celsius == ambient
        emulator.emulate(_hour_cycle())
        reference = _thermal_emulator(node, database, scavenger)
        naive_emulate(reference, _hour_cycle())
        assert emulator.thermal_model.current_celsius == reference.thermal_model.current_celsius
        assert emulator.thermal_model.current_celsius != ambient

    def test_prefill_skips_infeasible_bins(
        self, limited_node, database, scavenger, monkeypatch
    ):
        """Rounds whose schedule cannot be built are left out of the sweep."""
        node = limited_node
        tables = []
        sweep = NodeEmulator.evaluate_energy_bins

        def recording(self, table, temperatures):
            tables.append(table)
            return sweep(self, table, temperatures)

        monkeypatch.setattr(NodeEmulator, "evaluate_energy_bins", recording)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cycle = DriveCycle(
            phases=[DriveCyclePhase(duration_s=60.0, start_kmh=80.0, end_kmh=130.0)],
            name="ramp-past-limit",
        )
        assert _fits(node, 80.0, node.phase_pattern(0))
        assert not _fits(node, 130.0, node.phase_pattern(0))
        # emulate() raises at the first unsustainable round the node reaches
        # while active, exactly as the per-revolution reference does.
        with pytest.raises(ScheduleError) as planned:
            emulator.emulate(cycle)
        # The one sweep's points all build, and they are the resolution's.
        assert len(tables) == 1 and tables[0].feasible.all()
        resolution = _memoized_resolution(emulator)
        resolved = ~np.isnan(resolution.energies)
        assert np.count_nonzero(resolved) == len(tables[0])
        swept = zip(resolution.speeds[resolved].tolist(), resolution.patterns[resolved].tolist())
        patterns = emulator_module._PATTERN_FLAGS.tolist()
        keys = [(speed_bin(speed), *patterns[code]) for speed, code in swept]
        assert all(
            _fits(node, speed_bin_upper_edge_kmh(key[0]), key[1:])
            for key in keys
            if key in emulator._trusted_speed_keys
        ), "a bin past the feasibility limit was swept"
        with pytest.raises(ScheduleError) as reference:
            naive_emulate(NodeEmulator(node, database, scavenger, supercapacitor()), cycle)
        assert str(planned.value) == str(reference.value)

    def test_prefill_entries_match_miss_entries(self, node, database, scavenger, monkeypatch):
        """Each round's swept energy is bitwise what the scalar path computes."""
        cycle = urban_cycle(repetitions=2)
        scans = _count_calls(monkeypatch, "_scan_ledger")
        _thermal_emulator(node, database, scavenger).emulate(cycle)
        ((resolution, *_),) = scans
        plan = resolution.plan
        scalar = _thermal_emulator(node, database, scavenger)
        rounds = plan.round_indices.tolist()
        assert rounds and (resolution.value_index[rounds] >= 0).all()
        for i in rounds:
            unit = WheelRound(
                index=int(plan.indices[i]),
                start_s=float(plan.starts[i]),
                period_s=float(plan.durations[i]),
                speed_kmh=float(plan.speeds[i]),
            )
            energy = scalar._revolution_energy(unit, float(resolution.temps[i]))
            swept = resolution.energies[resolution.value_index[i]]
            assert type(energy) is float, i
            assert swept.hex() == energy.hex(), i

    def test_infeasible_bin_center_matches_reference(
        self, pocket_node, database, scavenger, monkeypatch
    ):
        """A bin whose center is infeasible falls back to exact keys, cold and warm.

        The cold run finds the infeasible center in its sweep and resolves
        those rounds on their exact speed before the one ledger scan: no
        round energy is evaluated one by one.
        """
        node = pocket_node
        pattern = node.phase_pattern(0)
        # 102.4 km/h fits and so does its bin's upper edge, but the bin
        # center (102.5 km/h) does not.
        assert _fits(node, 102.4, pattern) and _fits(node, 102.75, pattern)
        assert not _fits(node, 102.5, pattern)
        cycle = constant_cruise(102.4, duration_s=20.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        scans = []
        scan = emulator_module.trajectory
        monkeypatch.setattr(
            emulator_module, "trajectory", lambda *a, **k: scans.append(1) or scan(*a, **k)
        )
        per_round = _count_calls(monkeypatch, "_revolution_energy")
        cold = emulator.emulate(cycle)
        assert scans == [1]
        assert per_round == []
        assert 102.4 in _memoized_resolution(emulator).speeds.tolist()
        assert (205, *pattern) in emulator._exact_speed_keys
        warm = emulator.emulate(cycle)
        reference = naive_emulate(NodeEmulator(node, database, scavenger, supercapacitor()), cycle)
        _assert_byte_identical(cold, reference)
        _assert_byte_identical(warm, reference)

    def test_self_heating_out_of_range_raises_on_the_same_unit(self, node, database, scavenger):
        """Equal error texts mean the same unit raised: the text carries its temperature."""
        hot = {"ambient_celsius": 150.0, "max_rise_c": 120.0, "time_constant_s": 30.0}
        cycle = highway_cycle(duration_s=600.0)
        with pytest.raises(ConfigurationError, match="outside the modelled range") as planned:
            _thermal_emulator(node, database, scavenger, **hot).emulate(cycle)
        with pytest.raises(ConfigurationError, match="outside the modelled range") as reference:
            naive_emulate(_thermal_emulator(node, database, scavenger, **hot), cycle)
        assert str(planned.value) == str(reference.value)


_IDLE_LABELS = ("sleep", "standstill", "inactive")


def _assert_same_trace(ours, theirs) -> None:
    """Entry for entry, bitwise: start, duration and power bytes, then labels."""
    for column in ("_starts", "_durations", "_powers"):
        mine, reference = (np.array(getattr(t, column), dtype=float) for t in (ours, theirs))
        assert mine.tobytes() == reference.tobytes(), column
    assert ours._labels == theirs._labels


class TestTracePhasesOnDemand:
    """Sweeps keep energies only; a trace builds its rounds' phase lists.

    The phases of the distinct keys a window plays come from one kernel
    call at the keys' evaluation points, so the trace must equal the
    reference's entry for entry, whatever the memos hold.
    """

    @staticmethod
    def _traced(emulator, reference, cycle, window) -> EmulationResult:
        ours = emulator.emulate(cycle, trace_window=window)
        theirs = naive_emulate(reference, cycle, trace_window=window)
        phases = [label for label in ours.trace._labels if label not in _IDLE_LABELS]
        assert phases, "the window plays no round's phases"
        _assert_same_trace(ours.trace, theirs.trace)
        _assert_byte_identical(ours, theirs)
        return ours

    @pytest.mark.parametrize("thermal", [False, True])
    def test_cold(self, node, database, scavenger, thermal):
        def build() -> NodeEmulator:
            if thermal:
                return _thermal_emulator(node, database, scavenger)
            return NodeEmulator(node, database, scavenger, supercapacitor(initial_fraction=0.3))

        self._traced(build(), build(), urban_cycle(repetitions=1), (10.0, 40.0))

    def test_warm_resolution_memo_hit(self, node, database, scavenger, monkeypatch):
        cycle = urban_cycle(repetitions=1)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        resolves = _count_calls(monkeypatch, "_resolve_rounds")
        reference = NodeEmulator(node, database, scavenger, supercapacitor())
        self._traced(emulator, reference, cycle, (10.0, 40.0))
        assert resolves == [], "the traced warm run resolved again"

    @pytest.mark.parametrize(
        "fixture, speed",
        [
            ("limited_node", 128.7),  # the bin edge cannot be built
            ("pocket_node", 102.4),  # the bin center cannot be built
        ],
    )
    def test_exact_speed_keys(self, request, database, scavenger, fixture, speed):
        node = request.getfixturevalue(fixture)
        cycle = constant_cruise(speed, duration_s=10.0)  # no NVM-writing round yet
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        reference = NodeEmulator(node, database, scavenger, supercapacitor())
        self._traced(emulator, reference, cycle, (2.0, 8.0))
        assert speed in _memoized_resolution(emulator).speeds.tolist()

    def test_after_a_warm_thermal_run(self, node, database, scavenger, monkeypatch):
        cycle = _hour_cycle()
        emulator = _thermal_emulator(node, database, scavenger)
        emulator.emulate(cycle)
        resolves = _count_calls(monkeypatch, "_resolve_rounds")
        reference = _thermal_emulator(node, database, scavenger)
        self._traced(emulator, reference, cycle, (100.0, 160.0))
        assert len(resolves) == 1


_RAMP = st.builds(
    DriveCyclePhase,
    duration_s=st.floats(1.0, 12.0),
    start_kmh=st.floats(110.0, 140.0),
    end_kmh=st.floats(110.0, 140.0),
)
_IDLE = st.builds(
    DriveCyclePhase, duration_s=st.floats(0.5, 5.0), start_kmh=st.just(0.0), end_kmh=st.just(0.0)
)


class TestUnsustainableRounds:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        fraction=st.one_of(st.floats(0.0, 0.12), st.floats(0.0, 1.0)),
        phases=st.lists(st.one_of(_RAMP, _IDLE), min_size=1, max_size=4),
    )
    def test_emulate_matches_reference_or_raises_alike(
        self, limited_node, database, scavenger, fraction, phases
    ):
        """Ramps across the speed limit: same bytes, or the same error.

        A node that starts below the restart level passes unsustainable
        rounds browned out, which must not raise; the first one it reaches
        while active raises the reference's error.
        """
        cycle = DriveCycle(phases=phases, name="limit-crossing")

        def emulator() -> NodeEmulator:
            storage = supercapacitor(initial_fraction=fraction)
            return NodeEmulator(limited_node, database, scavenger, storage)

        try:
            reference = naive_emulate(emulator(), cycle)
        except ScheduleError as error:
            with pytest.raises(ScheduleError) as planned:
                emulator().emulate(cycle)
            assert type(planned.value) is type(error)
            assert str(planned.value) == str(error)
            return
        _assert_byte_identical(emulator().emulate(cycle), reference)


class TestArrayCoreByteIdentity:
    """The array-based integration core: one ``trajectory()`` call ≡ reference."""

    def test_kernel_path_is_actually_taken(self, node, database, scavenger, monkeypatch):
        calls = []
        original = emulator_module.trajectory

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(emulator_module, "trajectory", counting)
        _thermal_emulator(node, database, scavenger).emulate(_hour_cycle())
        assert calls, "a fully swept cycle should integrate through the kernel"

    def test_storage_holds_the_final_charge(self, node, database, scavenger):
        """The integration leaves the element where the reference leaves it."""
        cycle = _hour_cycle()
        kernel_emulator = _thermal_emulator(node, database, scavenger)
        kernel_emulator.emulate(cycle)
        kernel_charge = kernel_emulator.storage.charge_j
        assert 0.0 <= kernel_charge <= kernel_emulator.storage.capacity_j
        reference = _thermal_emulator(node, database, scavenger)
        naive_emulate(reference, cycle)
        assert reference.storage.charge_j == kernel_charge

    def test_harvest_rides_the_vectorized_sweep(self, node, database, scavenger, monkeypatch):
        """emulate() calls energy_sweep_j once instead of N scalar calls."""
        from repro.scavenger.piezoelectric import PiezoelectricScavenger

        sweeps = []
        scalars = []
        original_sweep = PiezoelectricScavenger.energy_sweep_j
        original_scalar = PiezoelectricScavenger.energy_per_revolution_j

        def counting_sweep(self, speeds):
            sweeps.append(len(speeds))
            return original_sweep(self, speeds)

        def counting_scalar(self, speed):
            scalars.append(speed)
            return original_scalar(self, speed)

        monkeypatch.setattr(PiezoelectricScavenger, "energy_sweep_j", counting_sweep)
        monkeypatch.setattr(PiezoelectricScavenger, "energy_per_revolution_j", counting_scalar)
        result = NodeEmulator(node, database, PiezoelectricScavenger(), supercapacitor()).emulate(
            urban_cycle(repetitions=1)
        )
        assert sweeps == [result.revolutions]
        assert scalars == []


def _assert_summary_bits(ours: EmulationResult, theirs: EmulationResult) -> None:
    assert list(ours.summary()) == list(theirs.summary())
    packed = [np.array(list(run.summary().values())).tobytes() for run in (ours, theirs)]
    assert packed[0] == packed[1]


def _assert_warm_equals_fresh(emulator: NodeEmulator, cycle, fresh: NodeEmulator):
    """The warm run's log and summary equal a fresh emulator's, bit for bit."""
    warm = emulator.emulate(cycle)
    expected = fresh.emulate(cycle)
    _assert_byte_identical(warm, expected)
    _assert_summary_bits(warm, expected)
    return warm


class TestResolutionMemo:
    """A warm isothermal run gathers the cold run's memoized resolution.

    Nothing that changes between runs may leak into it: every case below
    changes one input between a cold and a warm run and still gets the
    bytes of a fresh emulator.
    """

    def test_warm_isothermal_run_is_a_pure_gather(self, node, database, scavenger, monkeypatch):
        cycle = urban_cycle(repetitions=2)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        cold = emulator.emulate(cycle)
        slots = _count_calls(monkeypatch, "speed_slots")
        sweeps = _count_calls(monkeypatch, "evaluate_energy_bins")
        resolves = _count_calls(monkeypatch, "_resolve_rounds")
        warm = emulator.emulate(cycle)
        assert slots == [] and sweeps == [] and resolves == []
        _assert_byte_identical(warm, cold)
        reference = naive_emulate(NodeEmulator(node, database, scavenger, supercapacitor()), cycle)
        _assert_byte_identical(warm, reference)

    def test_shared_resolution_is_immutable(self, node, database, scavenger, monkeypatch):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        scans = _count_calls(monkeypatch, "_scan_ledger")
        emulator.emulate(urban_cycle(repetitions=1))
        emulator.emulate(urban_cycle(repetitions=1))
        (cold, *_), (resolution, *_) = scans
        assert resolution is cold
        columns = (resolution.speeds, resolution.temperatures, resolution.patterns)
        for array in (resolution.load, resolution.value_index, resolution.energies, *columns):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_warm_thermal_run_resolves_again(self, node, database, scavenger, monkeypatch):
        cycle = urban_cycle(repetitions=1)
        emulator = _thermal_emulator(node, database, scavenger)
        emulator.emulate(cycle)
        resolves = _count_calls(monkeypatch, "_resolve_rounds")
        warm = emulator.emulate(cycle)
        assert len(resolves) == 1
        reference = _thermal_emulator(node, database, scavenger)
        _assert_byte_identical(warm, naive_emulate(reference, cycle))
        model, expected = emulator.thermal_model, reference.thermal_model
        assert model.current_celsius == expected.current_celsius
        assert model._current_time_s == expected._current_time_s

    def test_in_place_database_edit(self, node, database, scavenger):
        cycle = constant_cruise(70.0, duration_s=60.0)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        before = emulator.emulate(cycle)
        edited = emulator.evaluator.database
        entry = edited.entry("rf_tx", "active")
        edited.remove("rf_tx", "active")
        edited.add(entry.scaled(dynamic_factor=100.0))
        fresh = NodeEmulator(node, edited, scavenger, supercapacitor())
        assert _assert_warm_equals_fresh(emulator, cycle, fresh) != before

    def test_new_base_point(self, node, database, scavenger):
        from repro.conditions.operating_point import OperatingPoint
        from repro.conditions.supply import CORE_RAIL, SupplyCondition

        cycle = urban_cycle(repetitions=1)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        before = emulator.emulate(cycle)
        low = OperatingPoint(supply=SupplyCondition(rail=CORE_RAIL, corner="min"))
        emulator.base_point = low
        fresh = NodeEmulator(node, database, scavenger, supercapacitor(), base_point=low)
        assert _assert_warm_equals_fresh(emulator, cycle, fresh) != before

    def test_new_node(self, node, optimized, database, scavenger):
        from repro.core.evaluator import EnergyEvaluator

        cycle = urban_cycle(repetitions=1)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        before = emulator.emulate(cycle)
        emulator.node = optimized
        emulator.evaluator = EnergyEvaluator(optimized, database)
        fresh = NodeEmulator(optimized, database, scavenger, supercapacitor())
        assert _assert_warm_equals_fresh(emulator, cycle, fresh) != before

    @pytest.mark.parametrize(
        "fixture, ramp, cruise",
        [
            ("limited_node", (100.0, 118.0), 128.7),  # the bin edge cannot be built
            ("pocket_node", (96.0, 102.0), 102.4),  # the bin center cannot be built
        ],
    )
    def test_infeasible_key_found_by_another_cycle(
        self, request, database, scavenger, fixture, ramp, cruise
    ):
        node = request.getfixturevalue(fixture)
        cycle = DriveCycle(
            phases=[DriveCyclePhase(duration_s=30.0, start_kmh=ramp[0], end_kmh=ramp[1])],
            name="ramp-below-limit",
        )
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        exact = set(emulator._exact_speed_keys)
        emulator.emulate(constant_cruise(cruise, duration_s=10.0))
        assert emulator._exact_speed_keys > exact
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        _assert_warm_equals_fresh(emulator, cycle, fresh)

    def test_another_cycle_between_runs(self, node, database, scavenger):
        cycle = urban_cycle(repetitions=1)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(cycle)
        emulator.emulate(_hour_cycle())
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        _assert_warm_equals_fresh(emulator, cycle, fresh)

    def test_signed_zero_base_temperature(self, node, database, scavenger):
        from repro.conditions.operating_point import OperatingPoint

        cycle = urban_cycle(repetitions=1)
        emulator = NodeEmulator(
            node, database, scavenger, supercapacitor(), base_point=OperatingPoint(0.0)
        )
        walks = []
        materialize = emulator.materialize_cycle
        emulator.materialize_cycle = lambda *args: walks.append(1) or materialize(*args)
        emulator.emulate(cycle)
        for temperature in (-0.0, 0.0, -0.0):
            emulator.base_point = OperatingPoint(temperature)
            fresh = NodeEmulator(
                node, database, scavenger, supercapacitor(), base_point=OperatingPoint(temperature)
            )
            warm = _assert_warm_equals_fresh(emulator, cycle, fresh)
            signs = np.signbit(warm.sample_arrays()["temperature_c"])
            assert signs.all() if np.signbit(temperature) else not signs.any()
        # 0.0 == -0.0, so the base points compare equal and the memo stayed warm.
        assert walks == [1]

    def test_swapped_scavenger_and_storage(self, node, database, scavenger):
        from repro.scavenger import ElectromagneticScavenger
        from repro.scavenger.storage import thin_film_battery

        cycle = urban_cycle(repetitions=1)
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        before = emulator.emulate(cycle)
        emulator.scavenger = ElectromagneticScavenger()
        emulator.storage = thin_film_battery()
        fresh = NodeEmulator(node, database, ElectromagneticScavenger(), thin_film_battery())
        assert _assert_warm_equals_fresh(emulator, cycle, fresh) != before


class TestScalarRoundEnergy:
    """``_revolution_energy`` evaluates one round afresh on every call.

    It is the ledger scan's raise path and the test oracle's scalar value:
    it keeps no energy between calls, so nothing an emulator ran before
    changes a round's energy or a later run.
    """

    @staticmethod
    def _round(node, speed_kmh: float) -> WheelRound:
        return WheelRound(
            index=0,
            start_s=0.0,
            period_s=node.wheel.revolution_period_s(speed_kmh),
            speed_kmh=speed_kmh,
        )

    def test_every_call_evaluates_the_round(self, node, database, scavenger, monkeypatch):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        emulator.emulate(urban_cycle(repetitions=1))
        tables = []
        schedule_table = SensorNode.schedule_table
        monkeypatch.setattr(
            SensorNode,
            "schedule_table",
            lambda self, *args: tables.append(1) or schedule_table(self, *args),
        )
        unit = self._round(node, 50.0)
        first = emulator._revolution_energy(unit, 25.0)
        second = emulator._revolution_energy(unit, 25.0)
        assert len(tables) == 2
        assert first.hex() == second.hex()
        fresh = NodeEmulator(node, database, scavenger, supercapacitor())
        assert fresh._revolution_energy(unit, 25.0).hex() == first.hex()

    def test_an_unbuildable_round_raises_on_every_call(self, limited_node, database, scavenger):
        emulator = NodeEmulator(limited_node, database, scavenger, supercapacitor())
        unit = self._round(limited_node, 131.0)
        for _ in range(2):
            with pytest.raises(ScheduleError):
                emulator._revolution_energy(unit, 25.0)

    def test_thermal_runs_do_not_depend_on_earlier_runs(self, node, database, scavenger):
        emulator = _thermal_emulator(node, database, scavenger)
        for cycle in (_hour_cycle(), urban_cycle(repetitions=1), _hour_cycle()):
            fresh = _thermal_emulator(node, database, scavenger)
            _assert_warm_equals_fresh(emulator, cycle, fresh)
