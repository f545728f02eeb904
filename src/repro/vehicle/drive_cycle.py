"""Drive cycles: cruising-speed profiles for the long-window emulation.

The paper's emulator takes "a desired cruising speed profile" and checks
whether the monitoring system can stay active over the whole window.  Real
recorded traces are not available, so this module provides synthetic cycles
covering the same regimes: constant cruise, urban stop-and-go, extra-urban,
highway, a NEDC-like composite and configurable ramps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DriveCyclePhase:
    """One phase of a drive cycle: a speed ramp of a given duration.

    The speed varies linearly from ``start_kmh`` to ``end_kmh`` over
    ``duration_s`` seconds.  A constant-speed phase has equal start and end
    speeds; a stop has both at zero.
    """

    duration_s: float
    start_kmh: float
    end_kmh: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ConfigurationError("phase duration must be positive")
        if not math.isfinite(self.duration_s):
            raise ConfigurationError("phase duration must be finite")
        if self.start_kmh < 0.0 or self.end_kmh < 0.0:
            raise ConfigurationError("phase speeds must be non-negative")
        if not (math.isfinite(self.start_kmh) and math.isfinite(self.end_kmh)):
            raise ConfigurationError("phase speeds must be finite")

    def speed_at(self, t_in_phase_s: float) -> float:
        """Speed (km/h) at ``t_in_phase_s`` seconds into the phase."""
        if t_in_phase_s <= 0.0:
            return self.start_kmh
        if t_in_phase_s >= self.duration_s:
            return self.end_kmh
        fraction = t_in_phase_s / self.duration_s
        return self.start_kmh + fraction * (self.end_kmh - self.start_kmh)


@dataclass
class DriveCycle:
    """A cruising-speed profile made of consecutive :class:`DriveCyclePhase` items."""

    phases: list[DriveCyclePhase] = field(default_factory=list)
    name: str = "custom"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("a drive cycle needs at least one phase")

    @property
    def duration_s(self) -> float:
        """Total duration of the cycle in seconds."""
        return sum(phase.duration_s for phase in self.phases)

    def speed_at(self, time_s: float) -> float:
        """Speed in km/h at absolute time ``time_s`` (clamped to the cycle ends)."""
        if time_s <= 0.0:
            return self.phases[0].start_kmh
        remaining = time_s
        for phase in self.phases:
            if remaining <= phase.duration_s:
                return phase.speed_at(remaining)
            remaining -= phase.duration_s
        return self.phases[-1].end_kmh

    def sample(self, dt_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Sample the cycle on a uniform grid.

        Returns:
            ``(times, speeds)`` arrays; times start at 0 and end at the cycle
            duration (inclusive), speeds in km/h.
        """
        if dt_s <= 0.0:
            raise ConfigurationError("sampling step must be positive")
        times = np.arange(0.0, self.duration_s + dt_s / 2.0, dt_s)
        speeds = np.array([self.speed_at(float(t)) for t in times])
        return times, speeds

    def iter_steps(self, dt_s: float) -> Iterator[tuple[float, float]]:
        """Iterate ``(time, speed_kmh)`` pairs on a uniform grid of ``dt_s``."""
        times, speeds = self.sample(dt_s)
        for time_value, speed_value in zip(times, speeds):
            yield float(time_value), float(speed_value)

    def mean_speed_kmh(self, dt_s: float = 1.0) -> float:
        """Time-averaged speed of the cycle in km/h."""
        _, speeds = self.sample(dt_s)
        return float(np.mean(speeds))

    def max_speed_kmh(self) -> float:
        """Maximum speed reached over the cycle in km/h."""
        return max(max(p.start_kmh, p.end_kmh) for p in self.phases)

    def distance_m(self, dt_s: float = 1.0) -> float:
        """Distance covered over the cycle in metres (trapezoidal integration)."""
        times, speeds = self.sample(dt_s)
        return float(np.trapezoid(speeds / 3.6, times))

    def moving_fraction(self, dt_s: float = 1.0, threshold_kmh: float = 0.5) -> float:
        """Fraction of the cycle duration spent above ``threshold_kmh``."""
        _, speeds = self.sample(dt_s)
        if speeds.size == 0:
            return 0.0
        return float(np.mean(speeds > threshold_kmh))

    def concatenated(self, other: "DriveCycle", name: str = "") -> "DriveCycle":
        """Return a new cycle consisting of this cycle followed by ``other``."""
        return DriveCycle(
            phases=list(self.phases) + list(other.phases),
            name=name or f"{self.name}+{other.name}",
        )

    def repeated(self, count: int, name: str = "") -> "DriveCycle":
        """Return this cycle repeated ``count`` times."""
        if count < 1:
            raise ConfigurationError("repetition count must be at least 1")
        return DriveCycle(
            phases=list(self.phases) * count,
            name=name or f"{self.name}x{count}",
        )

    def scaled(self, speed_factor: float, name: str = "") -> "DriveCycle":
        """Return this cycle with every speed multiplied by ``speed_factor``.

        Phase durations are unchanged — a faster driver covers more distance
        in the same time.  This is the fleet runner's drive-style axis: a
        population samples per-vehicle speed-scale factors and plays the
        same route at each vehicle's own pace.  A factor of 1 returns
        ``self`` unchanged (same object), so cohorts keyed on the cycle
        share materializations.
        """
        if speed_factor <= 0.0:
            raise ConfigurationError("speed factor must be positive")
        if speed_factor == 1.0:
            return self
        return DriveCycle(
            phases=[
                DriveCyclePhase(
                    duration_s=phase.duration_s,
                    start_kmh=phase.start_kmh * speed_factor,
                    end_kmh=phase.end_kmh * speed_factor,
                    label=phase.label,
                )
                for phase in self.phases
            ],
            name=name or f"{self.name}*{speed_factor:g}",
        )


# ---------------------------------------------------------------------------
# Cycle builders
# ---------------------------------------------------------------------------


def constant_cruise(speed_kmh: float, duration_s: float = 600.0) -> DriveCycle:
    """A constant-speed cruise, the condition of the paper's Fig. 2 snapshot."""
    if speed_kmh < 0.0:
        raise ConfigurationError("cruise speed must be non-negative")
    phase = DriveCyclePhase(
        duration_s=duration_s,
        start_kmh=speed_kmh,
        end_kmh=speed_kmh,
        label=f"cruise {speed_kmh:.0f} km/h",
    )
    return DriveCycle(phases=[phase], name=f"cruise-{speed_kmh:.0f}")


def ramp_cycle(
    start_kmh: float,
    end_kmh: float,
    ramp_duration_s: float = 300.0,
    hold_duration_s: float = 300.0,
) -> DriveCycle:
    """Accelerate (or decelerate) linearly, then hold the final speed."""
    phases = [
        DriveCyclePhase(ramp_duration_s, start_kmh, end_kmh, label="ramp"),
        DriveCyclePhase(hold_duration_s, end_kmh, end_kmh, label="hold"),
    ]
    return DriveCycle(phases=phases, name=f"ramp-{start_kmh:.0f}-{end_kmh:.0f}")


def _stop_and_go(peak_kmh: float, cruise_s: float, stop_s: float) -> list[DriveCyclePhase]:
    """One urban micro-trip: accelerate, cruise, brake, stand still."""
    return [
        DriveCyclePhase(15.0, 0.0, peak_kmh, label="accelerate"),
        DriveCyclePhase(cruise_s, peak_kmh, peak_kmh, label="cruise"),
        DriveCyclePhase(10.0, peak_kmh, 0.0, label="brake"),
        DriveCyclePhase(stop_s, 0.0, 0.0, label="stop"),
    ]


def urban_cycle(repetitions: int = 4) -> DriveCycle:
    """An urban stop-and-go cycle (ECE-15-like micro-trips, peaks 15-50 km/h)."""
    if repetitions < 1:
        raise ConfigurationError("repetitions must be at least 1")
    micro_trips: list[DriveCyclePhase] = []
    peaks = (15.0, 32.0, 50.0)
    cruises = (10.0, 25.0, 12.0)
    stops = (22.0, 15.0, 20.0)
    for _ in range(repetitions):
        for peak, cruise, stop in zip(peaks, cruises, stops):
            micro_trips.extend(_stop_and_go(peak, cruise, stop))
    return DriveCycle(phases=micro_trips, name=f"urban-x{repetitions}")


def highway_cycle(duration_s: float = 1800.0, cruise_kmh: float = 120.0) -> DriveCycle:
    """A highway cycle: on-ramp acceleration, long cruise, brief overtakes."""
    phases = [
        DriveCyclePhase(30.0, 0.0, cruise_kmh, label="on-ramp"),
        DriveCyclePhase(duration_s * 0.4, cruise_kmh, cruise_kmh, label="cruise"),
        DriveCyclePhase(20.0, cruise_kmh, cruise_kmh + 15.0, label="overtake"),
        DriveCyclePhase(60.0, cruise_kmh + 15.0, cruise_kmh + 15.0, label="overtake hold"),
        DriveCyclePhase(20.0, cruise_kmh + 15.0, cruise_kmh, label="settle"),
        DriveCyclePhase(duration_s * 0.4, cruise_kmh, cruise_kmh, label="cruise"),
        DriveCyclePhase(45.0, cruise_kmh, 0.0, label="exit"),
    ]
    return DriveCycle(phases=phases, name="highway")


def nedc_like_cycle() -> DriveCycle:
    """A NEDC-like composite: four urban micro-trip groups plus an extra-urban part.

    The extra-urban part ramps through 70, 100 and 120 km/h plateaus before
    decelerating to a stop, mirroring the structure (not the exact second-by-
    second trace) of the New European Driving Cycle.
    """
    urban = urban_cycle(repetitions=4)
    extra_urban_phases = [
        DriveCyclePhase(25.0, 0.0, 70.0, label="accelerate"),
        DriveCyclePhase(50.0, 70.0, 70.0, label="plateau 70"),
        DriveCyclePhase(15.0, 70.0, 100.0, label="accelerate"),
        DriveCyclePhase(60.0, 100.0, 100.0, label="plateau 100"),
        DriveCyclePhase(15.0, 100.0, 120.0, label="accelerate"),
        DriveCyclePhase(60.0, 120.0, 120.0, label="plateau 120"),
        DriveCyclePhase(35.0, 120.0, 0.0, label="final brake"),
        DriveCyclePhase(20.0, 0.0, 0.0, label="final stop"),
    ]
    extra_urban = DriveCycle(phases=extra_urban_phases, name="extra-urban")
    return urban.concatenated(extra_urban, name="nedc-like")


def cycle_from_samples(
    times_s: Sequence[float] | Iterable[float],
    speeds_kmh: Sequence[float] | Iterable[float],
    name: str = "sampled",
) -> DriveCycle:
    """Build a drive cycle from sampled ``(time, speed)`` points.

    Consecutive samples become linear phases.  Times must be strictly
    increasing and start at zero or later.
    """
    times = [float(t) for t in times_s]
    speeds = [float(s) for s in speeds_kmh]
    if len(times) != len(speeds):
        raise ConfigurationError("times and speeds must have the same length")
    if len(times) < 2:
        raise ConfigurationError("at least two samples are needed")
    phases: list[DriveCyclePhase] = []
    for index in range(1, len(times)):
        duration = times[index] - times[index - 1]
        if duration <= 0.0:
            raise ConfigurationError("sample times must be strictly increasing")
        phases.append(
            DriveCyclePhase(
                duration_s=duration,
                start_kmh=speeds[index - 1],
                end_kmh=speeds[index],
            )
        )
    return DriveCycle(phases=phases, name=name)
