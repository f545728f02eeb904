"""Columnar batches of working conditions for the vectorized evaluation path.

A :class:`BatchConditions` is the array counterpart of a sequence of
:class:`~repro.conditions.operating_point.OperatingPoint` rows: one float64
array per condition axis (speed, temperature, core supply voltage, process
factors).  The compiled power table and the batch evaluator APIs consume
these arrays directly, so sweep workloads never allocate per-point
``OperatingPoint`` objects on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.conditions.operating_point import TEMPERATURE_RANGE_C, OperatingPoint
from repro.errors import ConfigurationError


def _column(values, count: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-point sequence to an ``(N,)`` float64 array."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 0:
        array = np.full(count, float(array))
    if array.ndim != 1 or array.shape[0] != count:
        raise ConfigurationError(
            f"{name} must be a scalar or a 1-D array of length {count}"
        )
    return array


@dataclass(frozen=True, eq=False)
class BatchConditions:
    """N working conditions stored column-wise.

    Attributes:
        speed_kmh: cruising speed per point.
        temperature_c: junction temperature per point.
        supply_v: core supply voltage per point.
        dynamic_factor: process multiplier on dynamic power per point.
        leakage_factor: process multiplier on leakage power per point.
        activity: per-point workload activity factor.  It multiplies the
            activity factor of every block a phase overrides out of its
            resting mode (the paper's workload-intensity knob), so
            Monte-Carlo workload sweeps can vary the computational load per
            sample; 1.0 (the default) reproduces the scalar
            :class:`OperatingPoint` semantics exactly.
    """

    speed_kmh: np.ndarray
    temperature_c: np.ndarray
    supply_v: np.ndarray
    dynamic_factor: np.ndarray
    leakage_factor: np.ndarray
    activity: np.ndarray = None  # type: ignore[assignment]  # filled in __post_init__

    def __post_init__(self) -> None:
        count = len(self.speed_kmh)
        if self.activity is None:
            object.__setattr__(self, "activity", np.ones(count))
        for name in (
            "temperature_c",
            "supply_v",
            "dynamic_factor",
            "leakage_factor",
            "activity",
        ):
            if len(getattr(self, name)) != count:
                raise ConfigurationError("batch condition columns must be equal length")
        if np.any(self.speed_kmh < 0.0):
            raise ConfigurationError("speed must be non-negative")
        low, high = TEMPERATURE_RANGE_C
        # Written as not-all-inside rather than any-outside so NaN is rejected
        # too, exactly like the scalar OperatingPoint range check.
        if not np.all((self.temperature_c >= low) & (self.temperature_c <= high)):
            raise ConfigurationError(
                "a batch temperature is outside the modelled range "
                f"[{low}, {high}] degC"
            )
        if np.any(self.supply_v <= 0.0):
            raise ConfigurationError("supply voltage must be positive")
        # Mirror ProcessVariation: total process factors are always strictly
        # positive on the scalar path, so the batch path rejects the same
        # inputs instead of silently computing zero/negative power.
        if np.any(self.dynamic_factor <= 0.0) or np.any(self.leakage_factor <= 0.0):
            raise ConfigurationError("process factors must be positive")
        # Written as not-all-valid so NaN activities are rejected too.
        if not np.all(self.activity >= 0.0):
            raise ConfigurationError("activity factors must be non-negative")

    def __len__(self) -> int:
        return len(self.speed_kmh)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[OperatingPoint]) -> "BatchConditions":
        """Extract the condition columns from a sequence of operating points."""
        return cls(
            speed_kmh=np.array([p.speed_kmh for p in points], dtype=np.float64),
            temperature_c=np.array([p.temperature_c for p in points], dtype=np.float64),
            supply_v=np.array([p.supply_voltage for p in points], dtype=np.float64),
            dynamic_factor=np.array(
                [p.process.dynamic_factor for p in points], dtype=np.float64
            ),
            leakage_factor=np.array(
                [p.process.leakage_factor for p in points], dtype=np.float64
            ),
        )

    @classmethod
    def from_arrays(
        cls,
        speed_kmh,
        temperature_c,
        base_point: OperatingPoint | None = None,
        supply_v=None,
        dynamic_factor=None,
        leakage_factor=None,
        activity=None,
    ) -> "BatchConditions":
        """Build a batch from speed/temperature arrays plus shared conditions.

        ``base_point`` supplies the (scalar) core supply and process
        conditions when per-point overrides are not given; this is the grid
        evaluator's constructor, and it never allocates per-point objects.
        ``activity`` optionally gives the per-point workload activity factor
        (scalar or length-N array, default 1.0 everywhere).
        """
        base = base_point or OperatingPoint()
        speeds = np.asarray(speed_kmh, dtype=np.float64)
        if speeds.ndim == 0:
            speeds = speeds.reshape(1)
        if speeds.ndim != 1:
            raise ConfigurationError("speed must be a scalar or a 1-D array")
        count = len(speeds)
        return cls(
            speed_kmh=speeds,
            temperature_c=_column(temperature_c, count, "temperature"),
            supply_v=_column(
                base.supply_voltage if supply_v is None else supply_v,
                count,
                "supply voltage",
            ),
            dynamic_factor=_column(
                base.process.dynamic_factor if dynamic_factor is None else dynamic_factor,
                count,
                "dynamic process factor",
            ),
            leakage_factor=_column(
                base.process.leakage_factor if leakage_factor is None else leakage_factor,
                count,
                "leakage process factor",
            ),
            activity=_column(
                1.0 if activity is None else activity, count, "activity factor"
            ),
        )

    def distinct(self) -> tuple["BatchConditions", np.ndarray]:
        """The distinct power conditions of the rows, and each row's index into them.

        A power condition is (supply, temperature, process factors,
        activity); speed is not one of them.  Two rows hold the same
        condition when all five values have the same bit pattern, so
        ``-0.0`` and ``0.0``, or two NaN payloads, stay apart where float
        equality would merge them.  The conditions come out sorted by bit
        pattern, each keeping the speed of one of its rows.
        """
        columns = (self.supply_v, self.temperature_c, self.dynamic_factor, self.leakage_factor)
        keys = np.stack(columns + (self.activity,)).view(np.int64)
        order = np.lexsort(keys)
        ordered = keys[:, order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        index = np.empty(len(order), dtype=np.intp)
        index[order] = np.cumsum(starts) - 1
        rows = order[starts]
        return BatchConditions(*(getattr(self, field.name)[rows] for field in fields(self))), index

    def point_at(self, index: int) -> OperatingPoint:
        """Reconstruct row ``index`` as a scalar :class:`OperatingPoint`.

        Used by reference/fallback paths that need to hand one batch row to
        the scalar evaluator.  The process factors are re-expressed as extra
        spread around the typical corner (they must be positive).  The
        activity column has no scalar :class:`OperatingPoint` counterpart —
        scalar reference paths take it as an explicit ``activity_scale``
        argument instead (see ``EnergyEvaluator.schedule_report``) — so
        callers falling back through ``point_at`` must check it is 1.0.
        """
        from repro.conditions.process import ProcessVariation
        from repro.conditions.supply import SupplyCondition, SupplyRail

        rail = SupplyRail(
            name="vdd_core", nominal_v=float(self.supply_v[index]), tolerance=0.0
        )
        return OperatingPoint(
            temperature_c=float(self.temperature_c[index]),
            supply=SupplyCondition(rail=rail),
            process=ProcessVariation(
                extra_dynamic=float(self.dynamic_factor[index]),
                extra_leakage=float(self.leakage_factor[index]),
            ),
            speed_kmh=float(self.speed_kmh[index]),
        )

    @classmethod
    def grid(
        cls,
        speeds_kmh,
        temperatures_c,
        base_point: OperatingPoint | None = None,
    ) -> "BatchConditions":
        """Row-major speed x temperature grid (speed varies slowest)."""
        speeds = np.asarray(speeds_kmh, dtype=np.float64)
        temperatures = np.asarray(temperatures_c, dtype=np.float64)
        if speeds.ndim != 1 or temperatures.ndim != 1:
            raise ConfigurationError("grid axes must be 1-D arrays")
        speed_grid = np.repeat(speeds, len(temperatures))
        temperature_grid = np.tile(temperatures, len(speeds))
        return cls.from_arrays(speed_grid, temperature_grid, base_point=base_point)
