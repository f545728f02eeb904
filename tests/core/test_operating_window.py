"""Tests for operating-window extraction and summarization."""

from __future__ import annotations

import pytest

from repro.core.emulator import EmulationResult, NodeEmulator, SampleLog
from repro.core.operating_window import (
    OperatingWindow,
    OperatingWindowSummary,
    find_operating_windows,
    summarize_windows,
)
from repro.errors import AnalysisError
from repro.scavenger.storage import supercapacitor
from repro.vehicle.drive_cycle import constant_cruise


def synthetic_result(active_pattern, dt_s=1.0) -> EmulationResult:
    """Build an emulation result with a given per-second activity pattern."""
    count = len(active_pattern)
    result = EmulationResult(
        node_name="synthetic",
        cycle_name="synthetic",
        duration_s=count * dt_s,
    )
    result.log = SampleLog.from_columns(
        [index * dt_s for index in range(count)],
        [50.0] * count,
        [25.0] * count,
        [0.5] * count,
        [bool(active) for active in active_pattern],
    )
    return result


class TestOperatingWindow:
    def test_duration(self):
        assert OperatingWindow(start_s=10.0, end_s=25.0).duration_s == 15.0

    def test_rejects_empty_window(self):
        with pytest.raises(AnalysisError):
            OperatingWindow(start_s=10.0, end_s=10.0)


class TestFindWindows:
    def test_single_window(self):
        result = synthetic_result([0, 1, 1, 1, 0, 0])
        windows = find_operating_windows(result)
        assert len(windows) == 1
        assert windows[0].start_s == 1.0
        assert windows[0].end_s == 4.0

    def test_multiple_windows(self):
        result = synthetic_result([1, 1, 0, 0, 1, 1, 1, 0])
        windows = find_operating_windows(result)
        assert len(windows) == 2
        assert windows[0].duration_s == pytest.approx(2.0)
        assert windows[1].duration_s == pytest.approx(3.0)

    def test_window_open_at_the_end_is_closed_at_cycle_end(self):
        result = synthetic_result([0, 0, 1, 1])
        windows = find_operating_windows(result)
        assert len(windows) == 1
        assert windows[0].end_s == pytest.approx(result.duration_s)

    def test_fully_inactive_gives_no_windows(self):
        assert find_operating_windows(synthetic_result([0, 0, 0])) == []

    def test_fully_active_gives_one_window(self):
        windows = find_operating_windows(synthetic_result([1, 1, 1, 1]))
        assert len(windows) == 1
        assert windows[0].duration_s == pytest.approx(4.0)

    def test_minimum_duration_filter(self):
        result = synthetic_result([1, 0, 1, 1, 1, 1, 0])
        windows = find_operating_windows(result, minimum_duration_s=2.0)
        assert len(windows) == 1
        assert windows[0].duration_s >= 2.0

    def test_no_samples_raises(self):
        result = synthetic_result([1])
        result.log = SampleLog.from_columns([], [], [], [], [])
        with pytest.raises(AnalysisError):
            find_operating_windows(result)

    def test_negative_minimum_duration_rejected(self):
        with pytest.raises(AnalysisError):
            find_operating_windows(synthetic_result([1, 0]), minimum_duration_s=-1.0)


class TestSummaries:
    def test_summary_statistics(self):
        windows = [
            OperatingWindow(0.0, 10.0),
            OperatingWindow(20.0, 25.0),
            OperatingWindow(30.0, 45.0),
        ]
        summary = summarize_windows(windows, total_duration_s=50.0)
        assert summary.window_count == 3
        assert summary.covered_s == pytest.approx(30.0)
        assert summary.longest_s == pytest.approx(15.0)
        assert summary.shortest_s == pytest.approx(5.0)
        assert summary.mean_s == pytest.approx(10.0)
        assert summary.coverage_fraction == pytest.approx(0.6)

    def test_empty_summary(self):
        summary = summarize_windows([], total_duration_s=100.0)
        assert summary == OperatingWindowSummary.empty()

    def test_invalid_total_duration_rejected(self):
        with pytest.raises(AnalysisError):
            summarize_windows([], total_duration_s=0.0)

    def test_coverage_capped_at_one(self):
        windows = [OperatingWindow(0.0, 100.0)]
        assert summarize_windows(windows, total_duration_s=50.0).coverage_fraction == 1.0


class TestEndToEndWithEmulator:
    def test_surplus_cruise_has_full_coverage(self, node, database, scavenger):
        emulator = NodeEmulator(node, database, scavenger, supercapacitor())
        result = emulator.emulate(constant_cruise(120.0, duration_s=120.0))
        windows = find_operating_windows(result)
        summary = summarize_windows(windows, result.duration_s)
        assert summary.window_count == 1
        assert summary.coverage_fraction > 0.95

    def test_deficit_cruise_has_partial_coverage(self, node, database, scavenger):
        storage = supercapacitor(capacity_j=0.05, initial_fraction=0.3)
        emulator = NodeEmulator(node, database, scavenger, storage)
        result = emulator.emulate(constant_cruise(15.0, duration_s=900.0))
        windows = find_operating_windows(result)
        summary = summarize_windows(windows, result.duration_s)
        assert summary.coverage_fraction < 0.9
