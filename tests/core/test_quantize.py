"""Tests for the single-sourced quantization module and the emulator bin APIs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.core import quantize
from repro.core.emulator import NodeEmulator
from repro.timing.wheel_round import WheelRound, iter_wheel_rounds
from repro.vehicle.drive_cycle import urban_cycle


class TestQuantize:
    def test_bin_round_trips(self):
        for speed in (0.2, 0.25, 17.3, 249.99):
            bin_index = quantize.speed_bin(speed)
            center = quantize.speed_bin_center_kmh(bin_index)
            assert abs(center - speed) <= quantize.SPEED_QUANTUM_KMH / 2 + 1e-12
            assert quantize.speed_bin(center) == bin_index
        for temperature in (-39.7, 0.0, 24.5, 124.9):
            bin_index = quantize.temperature_bin(temperature)
            center = quantize.temperature_bin_center_c(bin_index)
            assert abs(center - temperature) <= quantize.TEMPERATURE_QUANTUM_C / 2 + 1e-12

    def test_ambient_quantum_is_a_temperature_quantum_multiple(self):
        # The fleet fast path relies on ambient bin centers BEING temperature
        # bin centers (a cohort's standstill sweep reuses the temperature
        # memo); a non-integer ratio would break that identity.
        ratio = quantize.AMBIENT_QUANTUM_C / quantize.TEMPERATURE_QUANTUM_C
        assert ratio == int(ratio)
        assert ratio >= 1

    @given(temperature=st.floats(min_value=-40.0, max_value=125.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_ambient_bin_round_trip_property(self, temperature):
        bin_index = quantize.ambient_bin(temperature)
        center = quantize.ambient_bin_center_c(bin_index)
        # Center stays within half a quantum of the sample...
        assert abs(center - temperature) <= quantize.AMBIENT_QUANTUM_C / 2 + 1e-12
        # ...and re-binning the center is a fixed point (snapping is
        # idempotent — materializing a cohort at the center loses nothing).
        assert quantize.ambient_bin(center) == bin_index
        assert quantize.ambient_bin_center_c(quantize.ambient_bin(center)) == center

    @given(temperature=st.floats(min_value=-40.0, max_value=125.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_ambient_center_is_a_temperature_center(self, temperature):
        # Every ambient bin center must itself be an exact temperature bin
        # center, so the cohort standstill memo indexed by temperature_bin
        # answers for snapped ambients too.
        center = quantize.ambient_bin_center_c(quantize.ambient_bin(temperature))
        temp_bin = quantize.temperature_bin(center)
        assert quantize.temperature_bin_center_c(temp_bin) == center

    @given(
        temperature=st.floats(
            min_value=TEMPERATURE_RANGE_C[0],
            max_value=TEMPERATURE_RANGE_C[1],
            allow_nan=False,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_clipped_ambient_center_stays_in_model_range(self, temperature):
        # Snapping a clipped ambient must never leave the model range —
        # otherwise the thermal cohort would spuriously fall back.
        low, high = TEMPERATURE_RANGE_C
        center = quantize.ambient_bin_center_c(quantize.ambient_bin(temperature))
        assert low <= center <= high

    def test_upper_edge_rounds_into_the_bin_below(self):
        # Every speed strictly below the upper edge rounds into the bin, so
        # one feasibility probe at the edge covers the whole bin.
        bin_index = quantize.speed_bin(60.0)
        edge = quantize.speed_bin_upper_edge_kmh(bin_index)
        assert quantize.speed_bin(edge - 1e-9) == bin_index


class TestEmulatorBinSharing:
    @pytest.fixture
    def emulators(self, node, database, scavenger, storage):
        from repro.scavenger.storage import supercapacitor

        first = NodeEmulator(node, database, scavenger, storage)
        second = NodeEmulator(node, database, scavenger, supercapacitor())
        return first, second

    def test_seeded_entries_match_per_miss_evaluation(self, emulators):
        """Each round's energy in the one sweep == its scalar ``_revolution_energy``."""
        donor, _receiver = emulators
        cycle = urban_cycle(repetitions=1)
        # The donor's cold run: its one sweep, and the resolution it scans.
        sweeps, scans = [], []
        sweep, scan = donor.evaluate_energy_bins, donor._scan_ledger
        donor.evaluate_energy_bins = lambda *args: sweeps.append(sweep(*args)) or sweeps[-1]
        donor._scan_ledger = lambda *args: scans.append(args[0]) or scan(*args)
        result = donor.emulate(cycle)
        (resolution,) = scans
        assert len(sweeps) == 1 and len(sweeps[0]) == len(resolution.energies) > 0

        # Scalar reference: every wheel round through _revolution_energy, one
        # at a time, on an emulator that never swept.
        cold = NodeEmulator(
            donor.node,
            donor.evaluator.source_database,
            donor.scavenger,
            donor.storage,
            evaluator=donor.evaluator,
        )
        temperature = cold.base_point.temperature_c
        rounds = [
            unit
            for unit in iter_wheel_rounds(cycle, cold.node.wheel)
            if isinstance(unit, WheelRound)
        ]
        # Every energy the scalar path produces must equal the swept one bit
        # for bit, and every swept point must be some round's.
        values = resolution.value_index[resolution.plan.round_indices]
        assert len(values) == len(rounds) == result.revolutions
        for unit, k in zip(rounds, values.tolist()):
            energy = cold._revolution_energy(unit, temperature)
            assert type(energy) is float, unit.index
            assert resolution.energies[k].hex() == energy.hex(), unit.index
        assert set(values.tolist()) == set(range(len(resolution.energies)))

    def test_evaluate_empty_pending(self, emulators):
        donor, _receiver = emulators
        table = donor.node.schedule_table([], np.empty((0, 3), dtype=bool))
        assert len(donor.evaluate_energy_bins(table, [])) == 0
        assert donor._resolve_rounds([]) == []
