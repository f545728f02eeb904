"""Single source of the speed/temperature quantization of revolution energies.

The emulator's round resolution, its standstill memo and the fleet runner's
cross-vehicle bin sharing all evaluate energies at *quantized* operating
conditions: speeds within :data:`SPEED_QUANTUM_KMH` and temperatures within
:data:`TEMPERATURE_QUANTUM_C` share one evaluation point, the
bin-representative (bin-center) condition.  The quanta — and the
bin/round-trip arithmetic — live here, ONCE, so a consumer that shares bins
across vehicles can never drift from the emulator that evaluates them: both
sides derive their bins from the same functions.

The resulting energy error is well below the modelling uncertainty and makes
hour-long cycles (and fleet-scale populations of them) emulate in well under
a second.
"""

from __future__ import annotations

import numpy as np

#: Speeds within half a quantum of a bin center share an evaluation point.
SPEED_QUANTUM_KMH = 0.5

#: Temperatures within half a degree of a whole-degree center share a point.
TEMPERATURE_QUANTUM_C = 1.0

#: Ambient-temperature quantum of the fleet's thermal cohorts.  Vehicles
#: whose ambient falls within half a quantum of a bin center share one
#: replayed :class:`~repro.conditions.temperature.TyreThermalModel`
#: trajectory (the fleet runner's third cohort axis, next to cycle and speed
#: scale).  Kept an integer multiple of :data:`TEMPERATURE_QUANTUM_C` so
#: every ambient bin center is itself a temperature bin center — a thermal
#: trajectory that never heats (zero rise) then lands in exactly the
#: temperature bin a constant-ambient vehicle would use.
AMBIENT_QUANTUM_C = 2.0


def speed_bin(speed_kmh: float) -> int:
    """The quantized speed bin of ``speed_kmh`` (banker's rounding)."""
    return round(speed_kmh / SPEED_QUANTUM_KMH)


def speed_bins(speeds_kmh):
    """Vectorized twin of :func:`speed_bin` for a numpy array (int64 bins).

    ``np.rint`` rounds half to even exactly like Python's :func:`round`, and
    the division is the same, so both forms always land in the same bin.
    """
    return np.rint(speeds_kmh / SPEED_QUANTUM_KMH).astype(np.int64)


def speed_bin_center_kmh(bin_index: int) -> float:
    """The representative (evaluation) speed of one quantized bin."""
    return bin_index * SPEED_QUANTUM_KMH


def speed_bin_upper_edge_kmh(bin_index: int) -> float:
    """The upper edge of one speed bin (the feasibility-classification probe)."""
    return (bin_index + 0.5) * SPEED_QUANTUM_KMH


def temperature_bin(temperature_c: float) -> int:
    """The quantized temperature bin of ``temperature_c``."""
    return round(temperature_c / TEMPERATURE_QUANTUM_C)


def temperature_bins(temperatures_c):
    """Vectorized twin of :func:`temperature_bin` for a numpy array.

    ``np.rint`` rounds half to even exactly like Python's :func:`round`, so
    both forms always land in the same bin — keep them in lockstep if the
    rounding rule ever changes.
    """
    return np.rint(temperatures_c / TEMPERATURE_QUANTUM_C)


def temperature_bin_center_c(bin_index: int) -> float:
    """The representative (evaluation) temperature of one quantized bin."""
    return bin_index * TEMPERATURE_QUANTUM_C


def ambient_bin(temperature_c: float) -> int:
    """The quantized ambient bin of ``temperature_c`` (banker's rounding).

    The fleet's thermal cohort axis: vehicle ambients are snapped to the bin
    center *at materialization* (so each vehicle's scenario carries the
    center, not the raw draw), which is what lets one per-cohort thermal
    replay be bitwise identical to every member vehicle's own
    ``emulate()`` — floating point offers no way to share a trajectory
    across distinct ambients exactly.
    """
    return round(temperature_c / AMBIENT_QUANTUM_C)


def ambient_bin_center_c(bin_index: int) -> float:
    """The representative (replay) ambient temperature of one ambient bin."""
    return bin_index * AMBIENT_QUANTUM_C
