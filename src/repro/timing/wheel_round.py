"""The wheel round as the basic timing unit.

This module turns a drive cycle into the sequence of timing units the rest of
the analysis consumes: :class:`WheelRound` instances while the vehicle moves
and :class:`IdleInterval` instances while it is stationary — or, for array
consumers such as the emulator's cycle plan, the same walk as parallel
per-unit arrays (:func:`wheel_round_arrays`).
"""

from __future__ import annotations

import itertools
import math
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

#: Most units one constant-speed window of :func:`wheel_round_arrays` spans;
#: a longer phase takes several windows.
_MAX_WINDOW = 1 << 14
#: Units a window adds past its estimate of the units left in the phase, so
#: an estimate rounded short does not split the phase into two windows.
_WINDOW_SLACK = 2


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

    The arrays are bitwise what stepping :meth:`DriveCycle.speed_at` and
    :meth:`Wheel.revolution_period_s` one unit at a time yields, walked
    phase by phase:

    * a **constant-speed phase** (or the time past the last phase) repeats
      one step, the period or ``idle_step_s``, so its start times are one
      ``np.add.accumulate`` over ``[t, step, step, ...]`` -- bitwise
      ``t += step``.  The window is sized from the phase's remaining time,
      checked elementwise (still in the phase, no truncation, under
      ``max_units``) and only its valid prefix committed;
    * a **ramp** steps its units in a scalar loop local to the phase.

    ``DriveCycle.speed_at`` finds the phase of ``t`` with a subtraction chain
    ``t - L0 - L1 - ...`` over the phase lengths.  The chain is monotone in
    ``t``, so once a unit lies in phase ``k`` the tests of the earlier phases
    stay passed and only the chain value up to phase ``k`` is recomputed.
    When every phase length is a multiple of ``ulp(cycle.duration_s)``
    (integer and dyadic lengths, as in the registered cycles) each
    subtraction is exact, and that value is the single subtraction
    ``t - (L0 + ... + L(k-1))``.

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
    if not math.isfinite(idle_step_s):
        raise ConfigurationError("idle step must be finite")
    if standstill_threshold_kmh <= 0.0:
        raise ConfigurationError("standstill threshold must be positive")
    if not math.isfinite(standstill_threshold_kmh):
        raise ConfigurationError("standstill threshold must be finite")

    lengths = [phase.duration_s for phase in cycle.phases]
    duration = cycle.duration_s
    ulp = math.ulp(duration)
    offsets = (
        list(itertools.accumulate(lengths, initial=0.0))
        if all(math.fmod(length, ulp) == 0.0 for length in lengths)
        else None
    )
    # Past the last phase the speed stays at its end speed: a sentinel phase.
    last_kmh = cycle.phases[-1].end_kmh
    phases = [(phase.duration_s, phase.start_kmh, phase.end_kmh) for phase in cycle.phases]
    phases.append((math.inf, last_kmh, last_kmh))
    circumference = wheel.tyre.rolling_circumference_m

    def chain(time_s, k):
        """``DriveCycle.speed_at``'s remaining time in phase ``k`` (scalar or array)."""
        if offsets is not None:
            return time_s - offsets[k]
        for length in lengths[:k]:
            time_s = time_s - length
        return time_s

    cap = math.inf if max_units is None else max_units
    chunks: list[tuple] = []
    starts: list[float] = []
    durations: list[float] = []
    speeds: list[float] = []
    indices: list[int] = []
    time_s = 0.0
    revolution_index = 0
    count = 0
    k = 0
    done = False
    while time_s < duration and count < cap and not done:
        remaining = chain(time_s, k)
        while remaining > phases[k][0]:
            remaining -= phases[k][0]
            k += 1
        length, start_kmh, end_kmh = phases[k]
        if start_kmh == end_kmh:
            moving = start_kmh >= standstill_threshold_kmh
            step = circumference / kmh_to_ms(start_kmh) if moving else idle_step_s
            left = min(length - remaining, duration - time_s)
            size = int(min(left / step, _MAX_WINDOW)) + _WINDOW_SLACK
            size = max(1, min(size, _MAX_WINDOW, cap - count))
            times = np.full(size + 1, step)
            times[0] = time_s
            np.add.accumulate(times, out=times)
            window = times[:-1]
            if moving:
                ok = times[1:] <= duration
                ok &= window < duration
            else:
                ok = duration - window >= idle_step_s
            ok &= chain(window, k) <= length
            run = len(ok) if ok.all() else int(np.argmin(ok))
            if run:
                if starts:
                    chunks.append((starts, durations, speeds, indices))
                    starts, durations, speeds, indices = [], [], [], []
                chunks.append(
                    (
                        window[:run],
                        np.full(run, step),
                        np.full(run, start_kmh if moving else 0.0),
                        np.arange(revolution_index, revolution_index + run)
                        if moving
                        else np.full(run, -1),
                    )
                )
                time_s = float(times[run])
                count += run
                if moving:
                    revolution_index += run
                continue
        # A ramp, or a window that committed nothing: step the units of
        # phase k one at a time, as DriveCycle.speed_at would.
        while True:
            if remaining <= 0.0:
                speed = start_kmh
            elif remaining >= length:
                speed = end_kmh
            else:
                speed = start_kmh + remaining / length * (end_kmh - start_kmh)
            if speed < standstill_threshold_kmh:
                step = min(idle_step_s, duration - time_s)
                starts.append(time_s)
                durations.append(step)
                speeds.append(0.0)
                indices.append(-1)
                time_s += step
            else:
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
                    done = True
                    break
                starts.append(time_s)
                durations.append(period)
                speeds.append(speed)
                indices.append(revolution_index)
                revolution_index += 1
                time_s += period
            count += 1
            if time_s >= duration or count >= cap:
                break
            remaining = chain(time_s, k)
            if remaining > length:
                break
    chunks.append((starts, durations, speeds, indices))
    start_array, duration_array, speed_array, index_array = (
        np.concatenate([np.asarray(chunk[field], dtype=dtype) for chunk in chunks])
        for field, dtype in enumerate((float, float, float, np.int64))
    )
    return WheelRoundArrays(
        is_round=index_array >= 0,
        starts=start_array,
        durations=duration_array,
        speeds=speed_array,
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
