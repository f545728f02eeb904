"""The wheel round as the basic timing unit.

This module turns a drive cycle into the sequence of timing units the rest of
the analysis consumes: :class:`WheelRound` instances while the vehicle moves
and :class:`IdleInterval` instances while it is stationary — or, for array
consumers such as the emulator's cycle plan, the same walk as parallel
per-unit arrays (:func:`wheel_round_arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import kmh_to_ms
from repro.vehicle.drive_cycle import DriveCycle
from repro.vehicle.wheel import Wheel

#: Below this speed the wheel is considered stationary: a revolution would
#: take longer than ~10 s and the harvester produces nothing useful.
STANDSTILL_THRESHOLD_KMH = 1.0


@dataclass(frozen=True)
class WheelRound:
    """One wheel revolution.

    Attributes:
        index: ordinal of the revolution since the start of the window.
        start_s: absolute start time of the revolution.
        period_s: duration of the revolution.
        speed_kmh: vehicle speed at the start of the revolution (assumed
            constant over the revolution, which at >= 1 km/h is at most a
            ~10 s approximation window and usually well under a second).
    """

    index: int
    start_s: float
    period_s: float
    speed_kmh: float

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ConfigurationError("wheel round period must be positive")
        if self.speed_kmh <= 0.0:
            raise ConfigurationError("a wheel round requires a positive speed")

    @property
    def end_s(self) -> float:
        """Absolute end time of the revolution."""
        return self.start_s + self.period_s


@dataclass(frozen=True)
class IdleInterval:
    """A stretch of time with the vehicle (effectively) stationary."""

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ConfigurationError("idle interval duration must be positive")

    @property
    def end_s(self) -> float:
        """Absolute end time of the interval."""
        return self.start_s + self.duration_s


class WheelRoundArrays(NamedTuple):
    """A drive-cycle walk as parallel per-unit arrays (see :func:`wheel_round_arrays`).

    ``indices`` holds the revolution index of every wheel round and ``-1``
    for idle intervals; idle units have zero speed.  ``ends`` is
    ``starts + durations``, elementwise — exactly :attr:`WheelRound.end_s`.
    """

    is_round: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    speeds: np.ndarray
    ends: np.ndarray
    indices: np.ndarray


def wheel_round_arrays(
    cycle: DriveCycle,
    wheel: Wheel,
    idle_step_s: float = 1.0,
    standstill_threshold_kmh: float = STANDSTILL_THRESHOLD_KMH,
    max_units: int | None = None,
) -> WheelRoundArrays:
    """Walk a drive cycle revolution by revolution, into arrays.

    While the vehicle moves faster than ``standstill_threshold_kmh`` each
    unit is one wheel revolution whose period follows the instantaneous
    speed; while it is stationary each unit is an idle interval of
    ``idle_step_s`` seconds, so callers can still account for sleep power and
    storage self-discharge.  A final partial revolution is truncated to the
    remaining time, or dropped when that remainder is below 1 ns.

    The loop inlines :meth:`DriveCycle.speed_at` (the same per-phase
    subtraction chain) and :meth:`Wheel.revolution_period_s`, so the arrays
    are bitwise what stepping those methods one unit at a time yields.

    Args:
        cycle: the cruising-speed profile.
        wheel: the wheel converting speed into revolution periods.
        idle_step_s: granularity of the stationary intervals.
        standstill_threshold_kmh: speed below which the wheel is treated as
            stopped.
        max_units: optional safety cap on the number of units generated.
    """
    if idle_step_s <= 0.0:
        raise ConfigurationError("idle step must be positive")
    if standstill_threshold_kmh <= 0.0:
        raise ConfigurationError("standstill threshold must be positive")

    phases = [(phase.duration_s, phase.start_kmh, phase.end_kmh) for phase in cycle.phases]
    first_kmh = phases[0][1]
    last_kmh = phases[-1][2]
    circumference = wheel.tyre.rolling_circumference_m
    starts: list[float] = []
    durations: list[float] = []
    speeds: list[float] = []
    indices: list[int] = []
    time_s = 0.0
    revolution_index = 0
    duration = cycle.duration_s
    while time_s < duration:
        if max_units is not None and len(starts) >= max_units:
            break
        speed = last_kmh
        if time_s <= 0.0:
            speed = first_kmh
        else:
            remaining = time_s
            for length, start_kmh, end_kmh in phases:
                if remaining <= length:
                    if remaining <= 0.0:
                        speed = start_kmh
                    elif remaining >= length:
                        speed = end_kmh
                    else:
                        speed = start_kmh + remaining / length * (end_kmh - start_kmh)
                    break
                remaining -= length
        if speed < standstill_threshold_kmh:
            step = min(idle_step_s, duration - time_s)
            if step <= 0.0:
                break
            starts.append(time_s)
            durations.append(step)
            speeds.append(0.0)
            indices.append(-1)
            time_s += step
            continue
        period = circumference / kmh_to_ms(speed)
        if time_s + period > duration:
            # Truncate the final partial revolution into an idle-style
            # remainder so the accounted time exactly matches the cycle.
            remainder = duration - time_s
            if remainder > 1e-9:
                starts.append(time_s)
                durations.append(remainder)
                speeds.append(speed)
                indices.append(revolution_index)
            break
        starts.append(time_s)
        durations.append(period)
        speeds.append(speed)
        indices.append(revolution_index)
        revolution_index += 1
        time_s += period
    index_array = np.array(indices, dtype=np.int64)
    start_array = np.array(starts, dtype=float)
    duration_array = np.array(durations, dtype=float)
    return WheelRoundArrays(
        is_round=index_array >= 0,
        starts=start_array,
        durations=duration_array,
        speeds=np.array(speeds, dtype=float),
        ends=start_array + duration_array,
        indices=index_array,
    )


def iter_wheel_rounds(
    cycle: DriveCycle,
    wheel: Wheel,
    idle_step_s: float = 1.0,
    standstill_threshold_kmh: float = STANDSTILL_THRESHOLD_KMH,
    max_units: int | None = None,
) -> Iterator[WheelRound | IdleInterval]:
    """Walk a drive cycle revolution by revolution, as unit objects.

    Yields :class:`WheelRound` units while the vehicle moves and
    :class:`IdleInterval` units while it is stationary, in chronological
    order covering the whole cycle — the object view of
    :func:`wheel_round_arrays` (same arguments, same walk).
    """
    arrays = wheel_round_arrays(
        cycle,
        wheel,
        idle_step_s=idle_step_s,
        standstill_threshold_kmh=standstill_threshold_kmh,
        max_units=max_units,
    )
    for index, start_s, length_s, speed in zip(
        arrays.indices.tolist(),
        arrays.starts.tolist(),
        arrays.durations.tolist(),
        arrays.speeds.tolist(),
    ):
        if index >= 0:
            yield WheelRound(index=index, start_s=start_s, period_s=length_s, speed_kmh=speed)
        else:
            yield IdleInterval(start_s=start_s, duration_s=length_s)


def count_revolutions(
    cycle: DriveCycle, wheel: Wheel, idle_step_s: float = 1.0
) -> int:
    """Number of wheel revolutions over a drive cycle (a final partial one included)."""
    return int(wheel_round_arrays(cycle, wheel, idle_step_s=idle_step_s).is_round.sum())
