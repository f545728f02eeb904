"""Temperature conditions and a first-order in-tyre thermal model.

The paper notes that *"static power is mainly linked to the working
temperature of the circuit"*.  The actual tyre temperature during a drive is
not available (it was measured on Pirelli's prototypes), so we substitute a
simple physically motivated model: the in-tyre air heats above ambient with a
speed-dependent steady-state rise and a first-order time constant.  That is
sufficient to exercise the temperature → leakage → energy-balance code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Automotive-grade ambient operating range (AEC-Q100 grade 1) in Celsius.
MIN_AMBIENT_C = -40.0
MAX_AMBIENT_C = 125.0


class TemperatureProfile:
    """Base class for time-dependent temperature profiles.

    A profile maps an absolute simulation time (seconds) to a junction
    temperature in degrees Celsius.  Subclasses override
    :meth:`temperature_at`.
    """

    def temperature_at(self, time_s: float) -> float:
        """Return the temperature in Celsius at ``time_s`` seconds."""
        raise NotImplementedError

    def average(self, start_s: float, end_s: float, samples: int = 64) -> float:
        """Average temperature over ``[start_s, end_s]`` using uniform sampling."""
        if end_s < start_s:
            raise ConfigurationError(
                f"interval end {end_s} precedes start {start_s}"
            )
        if end_s == start_s or samples <= 1:
            return self.temperature_at(start_s)
        step = (end_s - start_s) / (samples - 1)
        total = 0.0
        for index in range(samples):
            total += self.temperature_at(start_s + index * step)
        return total / samples


@dataclass(frozen=True)
class ConstantTemperature(TemperatureProfile):
    """A constant temperature, the default working condition of the spreadsheet."""

    celsius: float = 25.0

    def __post_init__(self) -> None:
        if not (MIN_AMBIENT_C - 50.0 <= self.celsius <= MAX_AMBIENT_C + 75.0):
            raise ConfigurationError(
                f"temperature {self.celsius} degC is outside any plausible "
                f"automotive range"
            )

    def temperature_at(self, time_s: float) -> float:
        return self.celsius


@dataclass(frozen=True)
class LinearRamp(TemperatureProfile):
    """A linear temperature ramp between two points in time.

    Useful for worst-case sweeps such as a cold start that warms up to the
    full in-tyre temperature.
    """

    start_celsius: float
    end_celsius: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ConfigurationError("ramp duration must be positive")

    def temperature_at(self, time_s: float) -> float:
        if time_s <= 0.0:
            return self.start_celsius
        if time_s >= self.duration_s:
            return self.end_celsius
        fraction = time_s / self.duration_s
        return self.start_celsius + fraction * (self.end_celsius - self.start_celsius)


@dataclass
class TyreThermalModel(TemperatureProfile):
    """First-order thermal model of the in-tyre environment.

    The steady-state temperature rise above ambient is proportional to the
    square of the vehicle speed (rolling-resistance losses grow roughly with
    speed), saturating at ``max_rise_c``.  The instantaneous temperature
    relaxes towards the steady state with time constant ``time_constant_s``.

    The model is driven by calling :meth:`advance` with ``(dt, speed)``
    samples, or :meth:`advance_many` with arrays of them (bitwise the same
    steps); :meth:`temperature_at` then reports the temperature reached at
    the end of the last advanced step, which is how the emulator uses it.

    Attributes:
        ambient_celsius: ambient (outside-tyre) temperature.
        rise_coefficient: steady-state rise in Celsius per (m/s)^2.
        max_rise_c: saturation of the self-heating rise.
        time_constant_s: first-order thermal time constant of the tyre cavity.
    """

    ambient_celsius: float = 25.0
    rise_coefficient: float = 0.045
    max_rise_c: float = 55.0
    time_constant_s: float = 600.0
    _current_celsius: float = field(init=False, default=0.0)
    _current_time_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.time_constant_s <= 0.0:
            raise ConfigurationError("thermal time constant must be positive")
        if self.rise_coefficient < 0.0:
            raise ConfigurationError("rise coefficient must be non-negative")
        if self.max_rise_c < 0.0:
            raise ConfigurationError("maximum rise must be non-negative")
        self._current_celsius = self.ambient_celsius
        self._current_time_s = 0.0

    @property
    def current_celsius(self) -> float:
        """Temperature reached after the steps advanced so far."""
        return self._current_celsius

    def steady_state(self, speed_ms: float) -> float:
        """Steady-state in-tyre temperature at a constant speed (m/s)."""
        rise = min(self.rise_coefficient * speed_ms * speed_ms, self.max_rise_c)
        return self.ambient_celsius + rise

    def advance(self, dt_s: float, speed_ms: float) -> float:
        """Advance the thermal state by ``dt_s`` seconds at ``speed_ms``.

        Returns the temperature at the end of the step.  Uses the exact
        solution of the first-order relaxation over the step, so large steps
        remain stable.
        """
        if dt_s < 0.0:
            raise ConfigurationError("time step must be non-negative")
        target = self.steady_state(speed_ms)
        alpha = 1.0 - math.exp(-dt_s / self.time_constant_s)
        self._current_celsius += alpha * (target - self._current_celsius)
        self._current_time_s += dt_s
        return self._current_celsius

    def advance_many(self, dt_s: np.ndarray, speeds_ms: np.ndarray) -> np.ndarray:
        """:meth:`advance` over paired ``(dt, speed)`` steps; the temperature after each.

        Bitwise the stepping loop: the relaxation factor is computed once
        per distinct step and the steady state once per distinct speed, each
        through the same scalar expression, and only the recurrence
        ``c += alpha * (target - c)`` runs per step.  The time is summed one
        step at a time (``np.add.accumulate`` adds in sequence).  A negative
        step raises :meth:`advance`'s error before the model moves.
        """
        dt_s = np.asarray(dt_s, dtype=float)
        if np.any(dt_s < 0.0):
            raise ConfigurationError("time step must be non-negative")
        steps, step_index = np.unique(dt_s, return_inverse=True)
        speeds, speed_index = np.unique(np.asarray(speeds_ms, dtype=float), return_inverse=True)
        tau = self.time_constant_s
        alphas = np.array([1.0 - math.exp(-dt / tau) for dt in steps.tolist()], dtype=float)
        targets = np.array(list(map(self.steady_state, speeds.tolist())), dtype=float)
        celsius = self._current_celsius
        temps = []
        for alpha, target in zip(alphas[step_index].tolist(), targets[speed_index].tolist()):
            celsius += alpha * (target - celsius)
            temps.append(celsius)
        self._current_celsius = celsius
        times = np.add.accumulate(np.concatenate(([self._current_time_s], dt_s)))
        self._current_time_s = float(times[-1])
        return np.array(temps, dtype=float)

    def reset(self) -> None:
        """Return the model to the ambient temperature at time zero."""
        self._current_celsius = self.ambient_celsius
        self._current_time_s = 0.0

    def temperature_at(self, time_s: float) -> float:
        """Report the last advanced temperature (profile-protocol adapter).

        The thermal model is stateful and driven by the emulator; callers
        that only need a profile value receive the most recent state.
        """
        return self._current_celsius


def standard_corners_celsius() -> tuple[float, float, float]:
    """Return the (cold, nominal, hot) temperature corners used by the spreadsheet."""
    return (MIN_AMBIENT_C, 25.0, MAX_AMBIENT_C)
