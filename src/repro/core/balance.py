"""Energy balance versus cruising speed and the break-even point (Fig. 2).

The central quantitative output of the paper: the energy generated by the
scavenger and the energy required by the whole system, per wheel round, at
different cruising speeds.  The break-even point is the speed at which the
two curves intersect; below it the node runs at a deficit and cannot operate
continuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.blocks.node import SensorNode
from repro.conditions.operating_point import OperatingPoint
from repro.core.evaluator import EnergyEvaluator
from repro.errors import AnalysisError
from repro.power.database import PowerDatabase
from repro.scavenger.base import EnergyScavenger


def _nominal_point_at(speed: float) -> OperatingPoint:
    """Default point factory: the nominal working condition at ``speed``."""
    return OperatingPoint(speed_kmh=speed)


@dataclass(frozen=True)
class BalancePoint:
    """Energy balance of one wheel round at one cruising speed."""

    speed_kmh: float
    required_j: float
    generated_j: float

    @property
    def margin_j(self) -> float:
        """Generated minus required energy (positive in surplus)."""
        return self.generated_j - self.required_j

    @property
    def is_surplus(self) -> bool:
        """True when the scavenger covers the node requirement."""
        return self.margin_j >= 0.0

    @property
    def coverage(self) -> float:
        """Generated over required energy (``inf`` when nothing is required)."""
        if self.required_j == 0.0:
            return float("inf")
        return self.generated_j / self.required_j


@dataclass(frozen=True)
class EnergyBalanceCurve:
    """The two curves of Fig. 2 sampled over a speed range."""

    node_name: str
    scavenger_label: str
    points: tuple[BalancePoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise AnalysisError("a balance curve needs at least two speed points")
        speeds = [p.speed_kmh for p in self.points]
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise AnalysisError("balance-curve speeds must be strictly increasing")

    @property
    def speeds_kmh(self) -> np.ndarray:
        """Sampled speeds."""
        return np.array([p.speed_kmh for p in self.points])

    @property
    def required_j(self) -> np.ndarray:
        """Required energy per wheel round at each speed."""
        return np.array([p.required_j for p in self.points])

    @property
    def generated_j(self) -> np.ndarray:
        """Generated energy per wheel round at each speed."""
        return np.array([p.generated_j for p in self.points])

    @property
    def margins_j(self) -> np.ndarray:
        """Generated minus required energy at each speed."""
        return self.generated_j - self.required_j

    def break_even_speed_kmh(self) -> float | None:
        """Speed at which generation first covers the requirement.

        Linear interpolation between the last deficit sample and the first
        surplus sample.  Returns ``None`` when the balance never becomes
        positive in the sampled range, and the lowest sampled speed when the
        balance is positive everywhere.
        """
        margins = self.margins_j
        speeds = self.speeds_kmh
        if margins[0] >= 0.0:
            return float(speeds[0])
        crossings = np.where((margins[:-1] < 0.0) & (margins[1:] >= 0.0))[0]
        if crossings.size == 0:
            return None
        index = int(crossings[0])
        x0, x1 = speeds[index], speeds[index + 1]
        y0, y1 = margins[index], margins[index + 1]
        if y1 == y0:
            return float(x1)
        return float(x0 - y0 * (x1 - x0) / (y1 - y0))

    def deficit_region_kmh(self) -> tuple[float, float] | None:
        """The (low, high) speed interval of the sampled deficit region."""
        margins = self.margins_j
        speeds = self.speeds_kmh
        deficit = speeds[margins < 0.0]
        if deficit.size == 0:
            return None
        return float(deficit.min()), float(deficit.max())

    def point_at(self, speed_kmh: float) -> BalancePoint:
        """Interpolated balance point at an arbitrary speed within the range."""
        speeds = self.speeds_kmh
        if not speeds[0] <= speed_kmh <= speeds[-1]:
            raise AnalysisError(
                f"speed {speed_kmh} km/h is outside the sampled range "
                f"[{speeds[0]}, {speeds[-1]}]"
            )
        required = float(np.interp(speed_kmh, speeds, self.required_j))
        generated = float(np.interp(speed_kmh, speeds, self.generated_j))
        return BalancePoint(speed_kmh=speed_kmh, required_j=required, generated_j=generated)

    def as_rows(self) -> list[dict[str, object]]:
        """Tabular view: one row per sampled speed (the Fig. 2 data series)."""
        return [
            {
                "speed_kmh": point.speed_kmh,
                "required_uj_per_rev": point.required_j * 1e6,
                "generated_uj_per_rev": point.generated_j * 1e6,
                "margin_uj_per_rev": point.margin_j * 1e6,
                "surplus": point.is_surplus,
            }
            for point in self.points
        ]


class EnergyBalanceAnalysis:
    """Computes Fig. 2 style energy-balance curves and derived figures.

    Args:
        node: the Sensor Node architecture.
        database: power characterization; re-targeted to the node's clocks
            internally.
        scavenger: the energy source model.
        include_conversion_losses: refer the node requirement back to the
            storage element through the PMU regulator efficiency, so both
            curves live in the same (banked-energy) domain.
    """

    def __init__(
        self,
        node: SensorNode,
        database: PowerDatabase,
        scavenger: EnergyScavenger,
        include_conversion_losses: bool = True,
        evaluator: EnergyEvaluator | None = None,
    ) -> None:
        self.node = node
        self.scavenger = scavenger
        self.include_conversion_losses = include_conversion_losses
        # An exploration sweeping only the scavenger can pass a prebuilt
        # evaluator so the database re-targeting and the compiled power table
        # are shared across candidates instead of rebuilt per candidate.
        if evaluator is not None and (
            evaluator.node is not node or evaluator.source_database is not database
        ):
            raise AnalysisError(
                "the shared evaluator was built for a different node or database"
            )
        self.evaluator = evaluator or EnergyEvaluator(node, database)

    def required_energy_j(self, point: OperatingPoint) -> float:
        """Node energy requirement per wheel round at ``point``."""
        energy = self.evaluator.energy_per_revolution_j(point)
        if self.include_conversion_losses:
            energy = self.node.pmu.referred_to_storage(energy)
        return energy

    def required_energy_sweep(self, points: Sequence[OperatingPoint]) -> np.ndarray:
        """Vectorized node energy requirement per wheel round, shape ``(N,)``.

        Batch counterpart of :meth:`required_energy_j`, evaluated through the
        compiled power table.
        """
        energies = self.evaluator.average_energy_sweep(points)
        if self.include_conversion_losses:
            energies = self.node.pmu.referred_to_storage(energies)
        return energies

    def generated_energy_j(self, speed_kmh: float) -> float:
        """Scavenger energy per wheel round at ``speed_kmh``."""
        return self.scavenger.energy_per_revolution_j(speed_kmh)

    def generated_energy_sweep(self, speeds_kmh) -> np.ndarray:
        """Vectorized scavenger energy per wheel round, shape ``(N,)``.

        Supply-side counterpart of :meth:`required_energy_sweep`: one
        ``energy_sweep_j`` call instead of N scalar model evaluations.
        """
        return self.scavenger.energy_sweep_j(speeds_kmh)

    def balance_at(self, point: OperatingPoint) -> BalancePoint:
        """Energy balance of one wheel round at ``point``."""
        return BalancePoint(
            speed_kmh=point.speed_kmh,
            required_j=self.required_energy_j(point),
            generated_j=self.generated_energy_j(point.speed_kmh),
        )

    def curve(
        self,
        speeds_kmh: Sequence[float] | np.ndarray,
        point_factory: Callable[[float], OperatingPoint] | None = None,
    ) -> EnergyBalanceCurve:
        """Sample the two Fig. 2 curves over ``speeds_kmh``.

        Args:
            speeds_kmh: strictly increasing cruising speeds to sample.
            point_factory: maps a speed to the full operating point; defaults
                to the nominal working condition at that speed.  Passing a
                factory is how the condition-sweep bench evaluates the curve
                hot, cold or at a different supply.
        """
        if point_factory is None:
            point_factory = _nominal_point_at
        # One pass over the input: validate each speed and build its
        # operating point as it streams by (the speeds used to be
        # materialized as a list once for validation and again for the
        # points).
        operating_points = []
        for speed in speeds_kmh:
            speed = float(speed)
            if speed <= 0.0:
                raise AnalysisError("balance-curve speeds must be positive")
            operating_points.append(point_factory(speed))
        # Mirror balance_at exactly: the factory's point defines the speed,
        # including factories that remap the sweep speed.  Both curves
        # evaluate as one batch each — the requirement through the compiled
        # power table, the harvest through the scavenger sweep.
        required = self.required_energy_sweep(operating_points)
        generated = self.generated_energy_sweep(
            np.array([point.speed_kmh for point in operating_points])
        )
        points = [
            BalancePoint(
                speed_kmh=point.speed_kmh,
                required_j=float(required[i]),
                generated_j=float(generated[i]),
            )
            for i, point in enumerate(operating_points)
        ]
        return EnergyBalanceCurve(
            node_name=self.node.name,
            scavenger_label=self.scavenger.describe(),
            points=tuple(points),
        )

    def margins_sweep(
        self,
        speeds_kmh: Sequence[float],
        point_factory: Callable[[float], OperatingPoint] | None = None,
    ) -> np.ndarray:
        """Generated-minus-required energy at every speed, shape ``(N,)``."""
        if point_factory is None:
            point_factory = _nominal_point_at
        points = [point_factory(float(speed)) for speed in speeds_kmh]
        required = self.required_energy_sweep(points)
        generated = self.generated_energy_sweep(
            np.array([p.speed_kmh for p in points])
        )
        return generated - required

    def break_even_speed_kmh(
        self,
        low_kmh: float = 5.0,
        high_kmh: float = 200.0,
        tolerance_kmh: float = 0.1,
        point_factory: Callable[[float], OperatingPoint] | None = None,
        use_batch: bool = True,
    ) -> float | None:
        """Break-even (minimum activation) speed.

        The default path brackets the crossing on progressively finer speed
        grids, evaluating each refinement level as one vectorized batch; the
        scalar reference path (``use_batch=False``) bisects one speed at a
        time.  Both return the midpoint of a bracketing interval no wider
        than ``tolerance_kmh``.

        Returns ``None`` when the node never reaches a positive balance below
        ``high_kmh`` and ``low_kmh`` when it is already positive there.
        """
        if point_factory is None:
            point_factory = _nominal_point_at
        if low_kmh <= 0.0 or high_kmh <= low_kmh:
            raise AnalysisError("invalid bisection bounds")

        def margin(speed: float) -> float:
            balance = self.balance_at(point_factory(speed))
            return balance.margin_j

        if not use_batch:
            if margin(low_kmh) >= 0.0:
                return low_kmh
            if margin(high_kmh) < 0.0:
                return None
            low, high = low_kmh, high_kmh
            while high - low > tolerance_kmh:
                middle = 0.5 * (low + high)
                if margin(middle) >= 0.0:
                    high = middle
                else:
                    low = middle
            return 0.5 * (low + high)

        # Evaluate the endpoints in the scalar path's order: a node already
        # in surplus at low_kmh must return before high_kmh is ever touched
        # (its schedule may be infeasible at the search ceiling).
        low_margin = float(self.margins_sweep([low_kmh], point_factory=point_factory)[0])
        if low_margin >= 0.0:
            return low_kmh
        high_margin = float(self.margins_sweep([high_kmh], point_factory=point_factory)[0])
        if high_margin < 0.0:
            return None
        low, high = low_kmh, high_kmh
        refinement = 17  # one batch per level shrinks the bracket 16x
        while high - low > tolerance_kmh:
            grid = np.linspace(low, high, refinement)
            # The bracket endpoints' margins are already known; each level
            # evaluates only the interior points as one batch.
            margins = np.empty(refinement)
            margins[0] = low_margin
            margins[-1] = high_margin
            margins[1:-1] = self.margins_sweep(grid[1:-1], point_factory=point_factory)
            crossings = np.where((margins[:-1] < 0.0) & (margins[1:] >= 0.0))[0]
            if crossings.size == 0:  # pragma: no cover - bracket invariant
                break
            index = int(crossings[0])
            low, high = float(grid[index]), float(grid[index + 1])
            low_margin, high_margin = float(margins[index]), float(margins[index + 1])
        return 0.5 * (low + high)

    def minimum_activation_speed_kmh(self, **kwargs: float) -> float | None:
        """Alias of :meth:`break_even_speed_kmh` using the paper's terminology."""
        return self.break_even_speed_kmh(**kwargs)
