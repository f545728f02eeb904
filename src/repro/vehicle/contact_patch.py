"""Contact-patch timing model.

The Cyber Tyre acquisition strategy samples the in-tyre accelerometer around
the contact patch (where the tread deformation carries the friction
information), so the acquisition duty cycle per wheel round is tied to the
contact-patch transit time.  This module computes the per-revolution timing
of the patch and the number of samples the acquisition chain collects while
crossing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import kmh_to_ms
from repro.vehicle.wheel import Wheel


@dataclass(frozen=True)
class ContactPatchWindow:
    """Timing of one contact-patch crossing inside a wheel round.

    Attributes:
        start_s: start time of the crossing, measured from the start of the
            revolution.
        duration_s: transit time of the patch.
        samples: number of ADC samples collected while crossing, given the
            acquisition sample rate.
    """

    start_s: float
    duration_s: float
    samples: int


@dataclass(frozen=True)
class ContactPatchModel:
    """Computes contact-patch windows and acquisition sample counts.

    Attributes:
        wheel: the wheel whose tyre defines the patch geometry.
        guard_factor: the acquisition window is widened by this factor around
            the geometric patch transit (the signal of interest extends a bit
            before and after the patch itself).
        phase_fraction: where inside the revolution the patch crossing starts,
            as a fraction of the revolution period.  Physically arbitrary (it
            depends on where the sensor is glued), but it fixes the trace
            layout so Fig. 3 style plots are reproducible.
    """

    wheel: Wheel = Wheel()
    guard_factor: float = 1.5
    phase_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.guard_factor < 1.0:
            raise ConfigurationError("guard factor must be >= 1")
        if not 0.0 <= self.phase_fraction < 1.0:
            raise ConfigurationError("phase fraction must be in [0, 1)")

    def acquisition_window_s(self, speed_kmh: float) -> float:
        """Duration of the acquisition window per revolution, in seconds."""
        return self.wheel.contact_patch_duration_s(speed_kmh) * self.guard_factor

    def acquisition_windows_s(self, speeds_kmh) -> np.ndarray:
        """Vectorized :meth:`acquisition_window_s` over positive speeds.

        The same operations in the same order (patch length over the speed
        in m/s, times the guard factor), so every element is bitwise the
        scalar value; the caller guarantees the speeds are positive.
        """
        speeds = np.asarray(speeds_kmh, dtype=np.float64)
        return self.wheel.tyre.contact_patch_length_m / kmh_to_ms(speeds) * self.guard_factor

    def acquisition_duty_cycle(self, speed_kmh: float) -> float:
        """Fraction of the wheel round spent acquiring around the patch.

        Note that this is *speed independent* to first order: both the patch
        transit time and the revolution period scale as ``1/v``, so their
        ratio is the geometric patch fraction times the guard factor.  It is
        still computed from the timing quantities so that tyres with
        different geometry produce different duty cycles.
        """
        window = self.acquisition_window_s(speed_kmh)
        period = self.wheel.revolution_period_s(speed_kmh)
        return min(1.0, window / period)

    def samples_per_revolution(self, speed_kmh: float, sample_rate_hz: float) -> int:
        """Number of samples collected per revolution at ``sample_rate_hz``.

        At least one sample is always collected while the vehicle moves: the
        node still refreshes pressure/temperature once per revolution even
        when the patch transit is shorter than a sample interval.
        """
        if sample_rate_hz <= 0.0:
            raise ConfigurationError("sample rate must be positive")
        window = self.acquisition_window_s(speed_kmh)
        return max(1, int(math.floor(window * sample_rate_hz)))

    def window(self, speed_kmh: float, sample_rate_hz: float) -> ContactPatchWindow:
        """Full timing description of the patch crossing at ``speed_kmh``."""
        period = self.wheel.revolution_period_s(speed_kmh)
        duration = min(period, self.acquisition_window_s(speed_kmh))
        start = self.phase_fraction * period
        if start + duration > period:
            start = period - duration
        return ContactPatchWindow(
            start_s=start,
            duration_s=duration,
            samples=self.samples_per_revolution(speed_kmh, sample_rate_hz),
        )
