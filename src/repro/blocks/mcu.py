"""Data-computing system (MCU/DSP) of the Sensor Node."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocks.base import BlockCategory, FunctionalBlock
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class McuConfig:
    """Operating-condition parameters of the data-computing system.

    The per-revolution workload is modelled as a fixed overhead (scheduling,
    housekeeping, packet assembly) plus a per-sample cost for the
    contact-patch feature extraction.

    Attributes:
        clock_hz: core clock frequency while active.
        cycles_per_sample: processing cost of one accelerometer sample.
        base_cycles_per_revolution: fixed per-revolution overhead in cycles.
        compression_ratio: ratio of transmitted payload bits to raw feature
            bits; 1.0 means no compression.  The data-compression
            optimization technique lowers this (more MCU work, fewer radio
            bits).
        compression_cycles_per_bit: extra cycles spent per raw bit when
            compression is enabled (``compression_ratio`` < 1).
    """

    clock_hz: float = 16e6
    cycles_per_sample: int = 48
    base_cycles_per_revolution: int = 20_000
    compression_ratio: float = 1.0
    compression_cycles_per_bit: float = 1.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0.0:
            raise ConfigurationError("MCU clock must be positive")
        if self.cycles_per_sample < 0:
            raise ConfigurationError("cycles per sample must be non-negative")
        if self.base_cycles_per_revolution < 0:
            raise ConfigurationError("base cycles per revolution must be non-negative")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ConfigurationError("compression ratio must be in (0, 1]")
        if self.compression_cycles_per_bit < 0.0:
            raise ConfigurationError("compression cycles per bit must be non-negative")

    def block(self) -> FunctionalBlock:
        """Architectural description of the MCU."""
        return FunctionalBlock(
            name="mcu",
            category=BlockCategory.DIGITAL,
            modes=("active", "idle", "sleep"),
            resting_mode="sleep",
            description=f"ULP MCU/DSP @ {self.clock_hz / 1e6:.0f} MHz",
        )

    def compute_cycles(self, samples: int, raw_bits: int = 0) -> int:
        """Cycles needed to process one revolution's worth of samples."""
        if samples < 0:
            raise ConfigurationError("sample count must be non-negative")
        if raw_bits < 0:
            raise ConfigurationError("raw bit count must be non-negative")
        cycles = self.base_cycles_per_revolution + self.cycles_per_sample * samples
        if self.compression_ratio < 1.0:
            cycles += int(self.compression_cycles_per_bit * raw_bits)
        return cycles

    def compute_time_s(self, samples: int, raw_bits: int = 0) -> float:
        """Time needed to process one revolution's worth of samples, in seconds."""
        return self.compute_cycles(samples, raw_bits) / self.clock_hz

    def compute_times_s(self, samples: np.ndarray, raw_bits: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`compute_time_s` over int64 sample and bit counts.

        The same integer cycle count, then the same division, so the result
        is bitwise the scalar one while every count stays below ``2**53``
        (the caller's bound; beyond it int64 and float64 stop being exact).
        """
        cycles = self.base_cycles_per_revolution + self.cycles_per_sample * samples
        if self.compression_ratio < 1.0:
            extra = np.trunc(self.compression_cycles_per_bit * raw_bits).astype(np.int64)
            cycles = cycles + extra
        return cycles / self.clock_hz

    def with_clock(self, clock_hz: float) -> "McuConfig":
        """Return a copy running at a different clock frequency."""
        if clock_hz <= 0.0:
            raise ConfigurationError("MCU clock must be positive")
        return McuConfig(
            clock_hz=clock_hz,
            cycles_per_sample=self.cycles_per_sample,
            base_cycles_per_revolution=self.base_cycles_per_revolution,
            compression_ratio=self.compression_ratio,
            compression_cycles_per_bit=self.compression_cycles_per_bit,
        )
