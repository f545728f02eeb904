"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.blocks import baseline_node, legacy_tpms_node, optimized_node
from repro.scenario import engine
from repro.conditions.operating_point import OperatingPoint
from repro.power import reference_power_database
from repro.scavenger import PiezoelectricScavenger, supercapacitor


@pytest.fixture(autouse=True)
def _no_retry_backoff(monkeypatch):
    """Engine retries in tests need no pause (forked pool workers inherit it)."""
    monkeypatch.setattr(engine, "RETRY_BACKOFF_S", 0.0)


@pytest.fixture
def database():
    """A fresh reference power database."""
    return reference_power_database()


@pytest.fixture
def node():
    """The baseline Sensor Node architecture."""
    return baseline_node()


@pytest.fixture
def limited_node():
    """The baseline node on a 1 MHz MCU clock: really speed-limited.

    Its transmitting rounds stop fitting in the wheel round just above
    128.72 km/h (119.19 km/h when they also write the NVM log), so speed
    bins around there straddle the feasibility limit.
    """
    node = baseline_node()
    return node.with_mcu(node.mcu.with_clock(1e6))


@pytest.fixture
def pocket_node():
    """A node whose feasibility has pockets at the 0.5 km/h bin scale.

    Truncating the sample count makes the compute time a sawtooth of the
    speed, so near this node's limit feasibility flips back and forth: at
    102.5 km/h a transmitting round does not fit, at 102.4 and 102.75 km/h
    it does.  It keeps no NVM log, so only the transmitting rounds matter.
    """
    from dataclasses import replace

    from repro.blocks.mcu import McuConfig
    from repro.blocks.memory import MemoryConfig

    return replace(
        baseline_node(),
        mcu=McuConfig(clock_hz=11.5e6, cycles_per_sample=1000),
        memory=MemoryConfig(use_nvm=False),
    )


@pytest.fixture
def optimized():
    """The architecture-level optimized Sensor Node."""
    return optimized_node()


@pytest.fixture
def legacy():
    """The legacy pressure/temperature-only TPMS node."""
    return legacy_tpms_node()


@pytest.fixture
def point():
    """Nominal operating point at 60 km/h."""
    return OperatingPoint(speed_kmh=60.0)


@pytest.fixture
def slow_point():
    """Nominal operating point at 20 km/h (deficit region)."""
    return OperatingPoint(speed_kmh=20.0)


@pytest.fixture
def scavenger():
    """The default piezoelectric scavenger."""
    return PiezoelectricScavenger()


@pytest.fixture
def storage():
    """A default supercapacitor storage element."""
    return supercapacitor()
