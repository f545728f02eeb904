"""Fleet aggregation: streaming accumulators and the :class:`FleetResult`.

Per-vehicle emulation outcomes stream out of the chunked execution engine in
vehicle order; this module folds them into population statistics without
ever materializing the per-vehicle state logs — the figures a fleet
operator actually asks for:

* **survival fraction vs time** — the fraction of the fleet whose node is
  operational at each (normalized) point of its drive, bucketed over the
  cycle duration;
* **brown-out-rate percentiles** — the p50/p90/p99 of per-vehicle brown-out
  events per hour;
* **energy-margin distribution** — percentiles of the per-vehicle net
  (harvested minus consumed) energy.

The aggregate surfaces as ``StudyResult``-compatible rows
(:meth:`FleetResult.to_study_result`), so every existing export/report path
— CSV/JSON export, plain-text tables — works on fleet results unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.reporting.export import rows_to_csv, rows_to_json
from repro.reporting.tables import render_table

#: Default number of normalized-time buckets of the survival curve.
DEFAULT_SURVIVAL_BUCKETS = 50


class FleetAccumulator:
    """Streaming accumulator over per-vehicle outcomes (one pass, any order
    of arrival is *not* supported: the engine sink feeds it in vehicle
    order, which keeps every floating-point reduction deterministic).

    Args:
        buckets: number of normalized-time buckets of the survival curve;
            every vehicle outcome must carry a ``survival`` tuple of this
            length.
        keep_vehicle_rows: keep the per-vehicle rows for inspection/export
            (a few hundred small dicts); ``False`` drops them after
            aggregation so fleet size is bounded only by the aggregate
            arrays.
    """

    @staticmethod
    def validate_buckets(buckets: int) -> int:
        """Validate a survival-bucket count (shared with the fleet runner)."""
        if not isinstance(buckets, int) or isinstance(buckets, bool) or buckets < 1:
            raise ConfigError(f"survival buckets must be a positive integer, got {buckets!r}")
        return buckets

    def __init__(
        self,
        buckets: int = DEFAULT_SURVIVAL_BUCKETS,
        keep_vehicle_rows: bool = True,
    ) -> None:
        self.buckets = self.validate_buckets(buckets)
        self.keep_vehicle_rows = keep_vehicle_rows
        self.vehicle_rows: list[dict[str, object]] = []
        self._survival_sum = np.zeros(buckets)
        self._survival_count = np.zeros(buckets)
        self._brownout_rates: list[float] = []
        self._net_mj: list[float] = []
        self._coverage_pct: list[float] = []
        self._moving_active_pct: list[float] = []
        self._active_at_end: list[bool] = []
        self.vehicles = 0

    def add(self, outcome: dict[str, object]) -> None:
        """Fold one vehicle outcome (see the runner's kernel) into the stats.

        The outcome's survival curve is a float array or a sequence of
        floats (NaN for buckets without records); it is only read.  The
        outcome's row is kept as it is, not copied.
        """
        row = outcome["row"]
        survival = np.asarray(outcome["survival"], dtype=float)
        if survival.shape != (self.buckets,):
            raise ConfigError(
                f"vehicle outcome survival curve has {survival.shape} buckets; "
                f"expected ({self.buckets},)"
            )
        valid = np.isfinite(survival)
        np.add(self._survival_sum, survival, out=self._survival_sum, where=valid)
        self._survival_count += valid
        self._brownout_rates.append(float(row["brownout_per_hour"]))
        self._net_mj.append(float(row["net_mj"]))
        self._coverage_pct.append(float(row["revolution_coverage_pct"]))
        self._moving_active_pct.append(float(row["moving_active_fraction_pct"]))
        self._active_at_end.append(bool(row["active_at_end"]))
        if self.keep_vehicle_rows:
            self.vehicle_rows.append(row)
        self.vehicles += 1

    # -- aggregate views ----------------------------------------------------

    def survival_curve(self) -> np.ndarray:
        """Mean fleet-active fraction per normalized-time bucket (NaN = no data)."""
        with np.errstate(invalid="ignore"):
            return np.where(
                self._survival_count > 0.0,
                self._survival_sum / np.maximum(self._survival_count, 1.0),
                np.nan,
            )

    def survival_rows(self, fleet_name: str) -> list[dict[str, object]]:
        """The survival curve as uniform rows (one per time bucket)."""
        curve = self.survival_curve()
        rows = []
        for bucket, fraction in enumerate(curve):
            rows.append(
                {
                    "fleet": fleet_name,
                    "time_pct": 100.0 * (bucket + 0.5) / self.buckets,
                    "surviving_pct": 100.0 * float(fraction),
                    "vehicles": int(self._survival_count[bucket]),
                }
            )
        return rows

    def summary_row(self, fleet_name: str, seed: int) -> dict[str, object]:
        """The one-row fleet aggregate (StudyResult-compatible columns)."""
        if self.vehicles == 0:
            raise ConfigError("cannot summarize an empty fleet")
        brownouts = np.asarray(self._brownout_rates)
        margins = np.asarray(self._net_mj)
        curve = self.survival_curve()
        finite = curve[np.isfinite(curve)]
        return {
            "fleet": fleet_name,
            "vehicles": self.vehicles,
            "seed": seed,
            "surviving_at_end_pct": 100.0 * float(np.mean(self._active_at_end)),
            "min_surviving_pct": 100.0 * float(np.min(finite)) if finite.size else float("nan"),
            "mean_coverage_pct": float(np.mean(self._coverage_pct)),
            "mean_moving_active_pct": float(np.mean(self._moving_active_pct)),
            "brownout_per_hour_p50": float(np.percentile(brownouts, 50.0)),
            "brownout_per_hour_p90": float(np.percentile(brownouts, 90.0)),
            "brownout_per_hour_p99": float(np.percentile(brownouts, 99.0)),
            "net_mj_p05": float(np.percentile(margins, 5.0)),
            "net_mj_p50": float(np.percentile(margins, 50.0)),
            "net_mj_p95": float(np.percentile(margins, 95.0)),
        }


class FleetResult:
    """Outcome of one fleet run: aggregates, curves and (optional) per-vehicle rows.

    Attributes:
        name: the fleet label.
        summary: the one-row aggregate (see
            :meth:`FleetAccumulator.summary_row`).
        survival: survival-curve rows (one per normalized-time bucket).
        vehicle_rows: per-vehicle rows, or ``None`` when the runner was
            asked not to keep them.
        metadata: run bookkeeping — population/seed, evaluator builds,
            cohort/bin-sharing counters, engine timing, resume and retry
            counters.
    """

    def __init__(
        self,
        name: str,
        summary: dict[str, object],
        survival: list[dict[str, object]],
        vehicle_rows: list[dict[str, object]] | None,
        metadata: dict[str, object],
    ) -> None:
        self.name = name
        self.summary = summary
        self.survival = survival
        self.vehicle_rows = vehicle_rows
        self.metadata = metadata

    def __len__(self) -> int:
        return int(self.summary["vehicles"])

    def to_study_result(self):
        """The aggregate as a ``StudyResult`` (kind ``"fleet"``), so every
        existing table/export consumer works on fleet aggregates unchanged."""
        # Imported lazily: repro.scenario.study sits above this module in the
        # import graph (montecarlo -> fleet.distributions pulls this package
        # in while the scenario package is still initializing).
        from repro.scenario.study import StudyResult

        return StudyResult(
            kind="fleet",
            axes=(),
            rows=(self.summary,),
            metadata=dict(self.metadata),
        )

    def as_table(self, float_digits: int = 2) -> str:
        """Plain-text table of the aggregate row."""
        return render_table(
            [dict(self.summary)],
            title=f"Fleet — {self.name}",
            float_digits=float_digits,
        )

    def survival_table(self, float_digits: int = 1) -> str:
        """Plain-text table of the survival curve."""
        return render_table(
            [dict(row) for row in self.survival],
            title=f"Fleet survival vs time — {self.name}",
            float_digits=float_digits,
        )

    def to_csv(self, path) -> object:
        """Export the aggregate row as CSV (see :mod:`repro.reporting.export`)."""
        return rows_to_csv([dict(self.summary)], path)

    def to_json(self, path) -> object:
        """Export the aggregate row as JSON."""
        return rows_to_json([dict(self.summary)], path)

    def survival_to_csv(self, path) -> object:
        """Export the survival curve as CSV."""
        return rows_to_csv([dict(row) for row in self.survival], path)

    def vehicles_to_csv(self, path) -> object:
        """Export the per-vehicle rows as CSV (requires them to be kept)."""
        if self.vehicle_rows is None:
            raise ConfigError(
                "per-vehicle rows were not kept; run the fleet with "
                "keep_vehicle_rows=True"
            )
        return rows_to_csv([dict(row) for row in self.vehicle_rows], path)
