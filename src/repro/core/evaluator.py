"""Per-block, per-wheel-round energy evaluation.

This is the evaluation tool at the centre of the paper's flow: it takes the
per-block power figures from the database and the temporal information from
the node's intra-revolution schedule, and produces the energy contribution of
every block over the basic timing unit (the wheel round).

Two evaluation paths are provided and cross-checked by the tests:

* :meth:`EnergyEvaluator.revolution_report` integrates an *explicit* schedule
  for one specific revolution index — exact, used by the emulator;
* :meth:`EnergyEvaluator.average_report` exploits the linearity of energy in
  the phase durations to average over the conditional phases (transmission
  every N rounds, slow-sensor refreshes, NVM writes) analytically — fast,
  used by the speed sweeps of the balance analysis.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.blocks.node import SensorNode
from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import OperatingPoint
from repro.errors import AnalysisError
from repro.power.compiled import CompiledPowerTable
from repro.power.database import PowerDatabase
from repro.timing.duty_cycle import DutyCycleReport, duty_cycle_report
from repro.timing.schedule import RevolutionSchedule, ScheduleTable


@dataclass(frozen=True)
class BlockEnergy:
    """Energy contribution of one block over one wheel round."""

    block: str
    dynamic_j: float
    static_j: float

    @property
    def total_j(self) -> float:
        """Total energy of the block over the round."""
        return self.dynamic_j + self.static_j

    @property
    def static_fraction(self) -> float:
        """Leakage share of the block energy."""
        total = self.total_j
        if total == 0.0:
            return 0.0
        return self.static_j / total


@dataclass(frozen=True)
class PhaseEnergy:
    """Energy spent in one phase of the wheel round (all blocks together)."""

    phase: str
    duration_s: float
    energy_j: float
    average_power_w: float


@dataclass(frozen=True)
class RevolutionEnergyReport:
    """Complete energy picture of one (or one average) wheel round.

    Attributes:
        node_name: architecture the report refers to.
        speed_kmh: cruising speed.
        period_s: wheel-round period.
        blocks: per-block energy contributions.
        phases: per-phase energy contributions (empty for averaged reports,
            where conditional phases make a single per-phase number
            ill-defined).
        point: working conditions of the evaluation.
    """

    node_name: str
    speed_kmh: float
    period_s: float
    blocks: tuple[BlockEnergy, ...]
    phases: tuple[PhaseEnergy, ...]
    point: OperatingPoint

    @property
    def total_energy_j(self) -> float:
        """Total node energy over the wheel round."""
        return sum(block.total_j for block in self.blocks)

    @property
    def dynamic_energy_j(self) -> float:
        """Dynamic part of the node energy."""
        return sum(block.dynamic_j for block in self.blocks)

    @property
    def static_energy_j(self) -> float:
        """Static (leakage) part of the node energy."""
        return sum(block.static_j for block in self.blocks)

    @property
    def average_power_w(self) -> float:
        """Average node power over the wheel round."""
        return self.total_energy_j / self.period_s

    def energy_of(self, block: str) -> BlockEnergy:
        """Energy entry of one block."""
        for entry in self.blocks:
            if entry.block == block:
                return entry
        raise AnalysisError(f"no energy entry for block {block!r}")

    def dominant_blocks(self, count: int = 3) -> list[BlockEnergy]:
        """The ``count`` blocks with the largest total energy."""
        return sorted(self.blocks, key=lambda b: b.total_j, reverse=True)[:count]

    def as_rows(self) -> list[dict[str, object]]:
        """Tabular view (one row per block) for reports and exports."""
        rows = []
        for block in sorted(self.blocks, key=lambda b: b.total_j, reverse=True):
            rows.append(
                {
                    "block": block.block,
                    "dynamic_uj": block.dynamic_j * 1e6,
                    "static_uj": block.static_j * 1e6,
                    "total_uj": block.total_j * 1e6,
                    "share_pct": 100.0 * block.total_j / self.total_energy_j
                    if self.total_energy_j > 0.0
                    else 0.0,
                }
            )
        return rows


@dataclass(frozen=True, eq=False)
class EnergyGrid:
    """Vectorized energy evaluation over a speed x temperature grid.

    Attributes:
        node_name: architecture the grid refers to.
        speeds_kmh: the ``(S,)`` speed axis.
        temperatures_c: the ``(T,)`` temperature axis.
        dynamic_j: dynamic energy per wheel round, shape ``(S, T)``.
        static_j: static energy per wheel round, shape ``(S, T)``.
        period_s: wheel-round period per speed, shape ``(S,)``.
    """

    node_name: str
    speeds_kmh: np.ndarray
    temperatures_c: np.ndarray
    dynamic_j: np.ndarray
    static_j: np.ndarray
    period_s: np.ndarray

    @property
    def energy_j(self) -> np.ndarray:
        """Total energy per wheel round, shape ``(S, T)``."""
        return self.dynamic_j + self.static_j

    @property
    def average_power_w(self) -> np.ndarray:
        """Average node power at each grid point, shape ``(S, T)``."""
        return self.energy_j / self.period_s[:, None]

    @property
    def static_fraction(self) -> np.ndarray:
        """Leakage share of the energy at each grid point (0 where total is 0)."""
        total = self.energy_j
        return np.divide(
            self.static_j, total, out=np.zeros_like(total), where=total > 0.0
        )


class EnergyEvaluator:
    """Evaluates node energy per wheel round from a power database.

    The evaluator re-targets the database to the node's clock choices once at
    construction (see :meth:`SensorNode.adapt_database`), so the same
    instance can be reused across speeds and conditions cheaply.

    Two families of APIs are exposed:

    * the scalar path (:meth:`average_report`, :meth:`schedule_report`,
      :meth:`standstill_power_w`) evaluates one :class:`OperatingPoint` at a
      time through ``PowerEntry.breakdown`` — this is the reference
      implementation;
    * the batch path (:meth:`average_energy_sweep`,
      :meth:`standstill_power_sweep`, :meth:`energy_grid`) evaluates arrays
      of conditions through the lazily-built :class:`CompiledPowerTable` in a
      handful of vectorized expressions, and takes every point's timing
      from one :meth:`SensorNode.schedule_table` call per sweep.  Sweep
      consumers (balance curves, spreadsheet sweeps, design-space
      exploration) use this path; its results match the scalar path to
      floating-point round-off.
    """

    def __init__(self, node: SensorNode, database: PowerDatabase) -> None:
        self.node = node
        #: The database as handed in, before re-targeting; lets callers that
        #: share evaluators check they were built from the same source.
        self.source_database = database
        self.database = node.adapt_database(database)
        self._compiled: CompiledPowerTable | None = None
        self._compiled_from: PowerDatabase | None = None
        self._compiled_version = -1
        # Parallel studies share one evaluator across worker threads; the
        # lock keeps the lazy table compilation single-flight (the compiled
        # table itself is immutable and safe to read concurrently).
        self._compile_lock = threading.Lock()

    @property
    def compiled(self) -> CompiledPowerTable:
        """Compiled (flattened, vectorizable) view of the adapted database.

        Rebuilt automatically when the adapted database is mutated in place
        (``add``/``remove`` bump its version counter) or when ``database`` is
        rebound to a different object, so the batch APIs can never silently
        diverge from the scalar path on the same evaluator.  Thread-safe:
        concurrent study workers compile the table at most once.
        """
        version = self.database._version
        if (
            self._compiled is None
            or self._compiled_from is not self.database
            or self._compiled_version != version
        ):
            with self._compile_lock:
                version = self.database._version
                if (
                    self._compiled is None
                    or self._compiled_from is not self.database
                    or self._compiled_version != version
                ):
                    self._compiled = CompiledPowerTable.from_database(self.database)
                    self._compiled_from = self.database
                    self._compiled_version = version
        return self._compiled

    # -- exact evaluation of one specific revolution ---------------------------

    def schedule_report(
        self,
        schedule: RevolutionSchedule,
        point: OperatingPoint,
        activity_scale: float = 1.0,
    ) -> RevolutionEnergyReport:
        """Energy report of one explicit schedule.

        ``activity_scale`` is the per-evaluation workload-intensity knob: it
        multiplies the activity factor of every block a phase overrides out
        of its resting mode (blocks left resting, and the implicit sleep
        remainder, are unaffected).  The default of 1.0 reproduces the plain
        schedule energy; the batch sweep APIs treat this method as their
        scalar reference for per-point activity.
        """
        if not activity_scale >= 0.0:
            raise AnalysisError("activity scale must be non-negative")
        resting = self.node.resting_modes()
        block_dynamic = {block: 0.0 for block in resting}
        block_static = {block: 0.0 for block in resting}
        phase_energies: list[PhaseEnergy] = []

        for phase in schedule.iter_phases():
            phase_total = 0.0
            for block, resting_mode in resting.items():
                mode = phase.mode_of(block, resting_mode)
                activity = phase.activity_of(block)
                if block in phase.block_modes:
                    activity *= activity_scale
                breakdown = self.database.power(
                    block, mode, point, activity=activity
                )
                block_dynamic[block] += breakdown.dynamic_w * phase.duration_s
                block_static[block] += breakdown.static_w * phase.duration_s
                phase_total += breakdown.total_w * phase.duration_s
            average = phase_total / phase.duration_s if phase.duration_s > 0.0 else 0.0
            phase_energies.append(
                PhaseEnergy(
                    phase=phase.name,
                    duration_s=phase.duration_s,
                    energy_j=phase_total,
                    average_power_w=average,
                )
            )

        blocks = tuple(
            BlockEnergy(block=name, dynamic_j=block_dynamic[name], static_j=block_static[name])
            for name in sorted(resting)
        )
        return RevolutionEnergyReport(
            node_name=self.node.name,
            speed_kmh=point.speed_kmh,
            period_s=schedule.period_s,
            blocks=blocks,
            phases=tuple(phase_energies),
            point=point,
        )

    def revolution_report(
        self, point: OperatingPoint, revolution_index: int = 0
    ) -> RevolutionEnergyReport:
        """Exact energy report of the wheel round ``revolution_index`` at ``point``."""
        schedule = self.node.schedule_for(point.speed_kmh, revolution_index)
        return self.schedule_report(schedule, point)

    # -- analytic average over the conditional phases ---------------------------

    def average_report(self, point: OperatingPoint) -> RevolutionEnergyReport:
        """Average energy report per wheel round at ``point``.

        Energy is linear in the phase durations, so the average over many
        revolutions equals the resting-mode energy over the full period plus
        the occurrence-weighted incremental energy of every possible phase.
        """
        if not point.is_moving:
            raise AnalysisError("the average report requires a moving vehicle")
        # Building the worst-case revolution (index 0: transmission, slow
        # sensor refresh) validates that the busy phases actually fit inside
        # the wheel round at this speed; an infeasible architecture must fail
        # here rather than produce a silently wrong average.
        self.node.schedule_for(point.speed_kmh, revolution_index=0)
        period = self.node.wheel.revolution_period_s(point.speed_kmh)
        resting = self.node.resting_modes()

        block_dynamic: dict[str, float] = {}
        block_static: dict[str, float] = {}
        resting_power = {}
        for block, resting_mode in resting.items():
            breakdown = self.database.power(block, resting_mode, point)
            resting_power[block] = breakdown
            block_dynamic[block] = breakdown.dynamic_w * period
            block_static[block] = breakdown.static_w * period

        for phase, weight in self.node.phase_census(point.speed_kmh):
            for block, mode in phase.block_modes.items():
                active = self.database.power(
                    block, mode, point, activity=phase.activity_of(block)
                )
                rest = resting_power[block]
                block_dynamic[block] += (
                    weight * (active.dynamic_w - rest.dynamic_w) * phase.duration_s
                )
                block_static[block] += (
                    weight * (active.static_w - rest.static_w) * phase.duration_s
                )

        blocks = tuple(
            BlockEnergy(
                block=name,
                dynamic_j=max(0.0, block_dynamic[name]),
                static_j=max(0.0, block_static[name]),
            )
            for name in sorted(resting)
        )
        return RevolutionEnergyReport(
            node_name=self.node.name,
            speed_kmh=point.speed_kmh,
            period_s=period,
            blocks=blocks,
            phases=(),
            point=point,
        )

    # -- convenience figures -----------------------------------------------------

    def energy_per_revolution_j(self, point: OperatingPoint) -> float:
        """Average node energy per wheel round at ``point``."""
        return self.average_report(point).total_energy_j

    def average_power_w(self, point: OperatingPoint) -> float:
        """Average node power at ``point`` while the vehicle is moving."""
        return self.average_report(point).average_power_w

    def standstill_power_w(self, point: OperatingPoint) -> float:
        """Node power with the vehicle stationary (every block resting)."""
        return self.database.total_power(self.node.resting_modes(), point).total_w

    def load_current_a(self, point: OperatingPoint, rail_voltage_v: float | None = None) -> float:
        """Average load current the node draws from its storage element.

        The paper's flow integrates the source model with *"the estimation of
        total load current"*; this is that figure, referred through the PMU
        regulator efficiency to the storage voltage (the core rail voltage by
        default).
        """
        voltage = rail_voltage_v if rail_voltage_v is not None else point.supply_voltage
        if voltage <= 0.0:
            raise AnalysisError("rail voltage must be positive")
        power = self.average_power_w(point)
        return self.node.pmu.referred_to_storage(power) / voltage

    def duty_cycles(
        self, point: OperatingPoint, revolution_index: int = 0
    ) -> DutyCycleReport:
        """Per-block duty-cycle report for one wheel round at ``point``."""
        schedule = self.node.schedule_for(point.speed_kmh, revolution_index)
        return duty_cycle_report(schedule, self.database, point)

    # -- vectorized batch evaluation ----------------------------------------------

    def _as_batch(self, points) -> BatchConditions:
        if isinstance(points, BatchConditions):
            return points
        return BatchConditions.from_points(points)

    def _batch_average_components(
        self, batch: BatchConditions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-point (dynamic_j, static_j, period_s) of the average wheel round.

        The computation mirrors :meth:`average_report` exactly — resting
        energy over the full period plus the occurrence-weighted incremental
        energy of every conditional phase, clamped at zero per block — but
        evaluates every operating point in the batch simultaneously.  The
        timing comes from one schedule table of the worst-case revolution
        over the unique speeds: it checks feasibility, gives the wheel
        period, and :meth:`SensorNode.census_durations` reads the census
        durations off it.  Power quantities are evaluated in single
        vectorized expressions over all points.  A per-point
        ``batch.activity`` factor scales the activity of every block a phase
        overrides out of its resting mode, mirroring
        :meth:`schedule_report`'s ``activity_scale``.
        """
        if len(batch) == 0:
            empty = np.empty(0)
            return empty, empty.copy(), empty.copy()
        # Written as not-all-positive so NaN raises like ``is_moving``.
        if not np.all(batch.speed_kmh > 0.0):
            raise AnalysisError("the average report requires a moving vehicle")

        unique_speeds, inverse = np.unique(batch.speed_kmh, return_inverse=True)
        # Like the scalar path, the worst-case revolution (index 0) must fit
        # in the wheel round at every speed; one table checks them all.
        worst = np.tile(self.node.phase_pattern(0), (len(unique_speeds), 1))
        schedules = self.node.schedule_table(unique_speeds, worst)
        schedules.require_feasible()
        census, durations_u = self.node.census_durations(schedules)

        table = self.compiled
        resting = self.node.resting_modes()
        block_names = sorted(resting)
        block_pos = {name: i for i, name in enumerate(block_names)}
        rest_rows = table.rows([(name, resting[name]) for name in block_names])

        override_keys: list[tuple[str, str]] = []
        override_pos: dict[tuple[str, str], int] = {}
        for phase, _weight in census:
            for block, mode in phase.block_modes.items():
                key = (block, mode)
                if key not in override_pos:
                    override_pos[key] = len(override_keys)
                    override_keys.append(key)

        dyn_rest, stat_rest = table.breakdown_components(
            rest_rows,
            batch.supply_v,
            batch.temperature_c,
            process_dynamic=batch.dynamic_factor,
            process_leakage=batch.leakage_factor,
        )
        if override_keys:
            override_rows = table.rows(override_keys)
            dyn_over, stat_over = table.breakdown_components(
                override_rows,
                batch.supply_v,
                batch.temperature_c,
                process_dynamic=batch.dynamic_factor,
                process_leakage=batch.leakage_factor,
            )
        else:  # every phase runs in resting modes; keep the arrays bound
            override_rows = np.empty(0, dtype=np.intp)
            dyn_over = np.empty((0, len(batch)))
            stat_over = np.empty((0, len(batch)))

        period = schedules.period_s[inverse]
        block_dynamic = dyn_rest * period[None, :]
        block_static = stat_rest * period[None, :]
        has_activity = bool(np.any(batch.activity != 1.0))
        for k, (phase, weight) in enumerate(census):
            duration = durations_u[k][inverse]
            for block, mode in phase.block_modes.items():
                b = block_pos[block]
                i = override_pos[(block, mode)]
                active_dynamic = dyn_over[i]
                activity = phase.activity_of(block)
                if has_activity or activity != 1.0:
                    row = override_rows[i]
                    active_dynamic = active_dynamic * (
                        (activity * batch.activity) ** table.activity_exponent[row]
                    )
                block_dynamic[b] += weight * (active_dynamic - dyn_rest[b]) * duration
                block_static[b] += weight * (stat_over[i] - stat_rest[b]) * duration

        np.maximum(block_dynamic, 0.0, out=block_dynamic)
        np.maximum(block_static, 0.0, out=block_static)
        return block_dynamic.sum(axis=0), block_static.sum(axis=0), period

    def average_components_sweep(
        self, points: Sequence[OperatingPoint] | BatchConditions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch (dynamic_j, static_j, period_s) arrays of the average round."""
        return self._batch_average_components(self._as_batch(points))

    def average_energy_sweep(
        self, points: Sequence[OperatingPoint] | BatchConditions
    ) -> np.ndarray:
        """Average energy per wheel round at every point, shape ``(N,)``.

        Vectorized equivalent of calling :meth:`energy_per_revolution_j` per
        point; results agree with the scalar path to round-off.
        """
        dynamic, static, _period = self._batch_average_components(self._as_batch(points))
        return dynamic + static

    def average_power_sweep(
        self, points: Sequence[OperatingPoint] | BatchConditions
    ) -> np.ndarray:
        """Average node power at every (moving) point, shape ``(N,)``."""
        dynamic, static, period = self._batch_average_components(self._as_batch(points))
        return (dynamic + static) / period

    def standstill_power_sweep(
        self, points: Sequence[OperatingPoint] | BatchConditions
    ) -> np.ndarray:
        """Resting-mode node power at every point, shape ``(N,)``.

        Vectorized equivalent of :meth:`standstill_power_w`; speed is
        irrelevant (every block rests), so points may be stationary.
        """
        batch = self._as_batch(points)
        if len(batch) == 0:
            return np.empty(0)
        resting = self.node.resting_modes()
        rows = self.compiled.rows(list(resting.items()))
        return self.compiled.total_power_w(
            rows,
            batch.supply_v,
            batch.temperature_c,
            process_dynamic=batch.dynamic_factor,
            process_leakage=batch.leakage_factor,
        )

    def energy_grid(
        self,
        speeds_kmh,
        temperatures_c,
        base_point: OperatingPoint | None = None,
    ) -> EnergyGrid:
        """Vectorized energy evaluation over a speed x temperature grid.

        Supply and process conditions come from ``base_point``; the grid is
        evaluated without allocating a single per-point object, which makes
        condition-sweep workloads O(array ops) instead of
        O(points x blocks x modes) Python dispatch.
        """
        speeds = np.asarray(speeds_kmh, dtype=np.float64)
        temperatures = np.asarray(temperatures_c, dtype=np.float64)
        if speeds.size == 0 or temperatures.size == 0:
            raise AnalysisError("the energy grid needs at least one speed and one temperature")
        batch = BatchConditions.grid(speeds, temperatures, base_point=base_point)
        dynamic, static, period = self._batch_average_components(batch)
        shape = (len(speeds), len(temperatures))
        return EnergyGrid(
            node_name=self.node.name,
            speeds_kmh=speeds,
            temperatures_c=temperatures,
            dynamic_j=dynamic.reshape(shape),
            static_j=static.reshape(shape),
            period_s=period.reshape(shape)[:, 0],
        )

    def _schedule_energy_batch(
        self,
        batch: BatchConditions,
        table: ScheduleTable,
        include_phases: bool = False,
    ) -> tuple[np.ndarray, list[tuple[tuple[str, float, float], ...]] | None]:
        """Shared kernel: energies of N (condition, schedule-table point) pairs.

        Every (block, mode) row of the compiled table is evaluated against
        all N condition points in ONE vectorized ``breakdown_components``
        call; the per-phase accumulation then runs once per
        :class:`~repro.timing.schedule.PhaseStructure` group of ``table``
        (durations differ per point, the structure does not) with
        elementwise array arithmetic in exactly the operation order of the
        scalar loop.  A batch of one point is therefore bit-identical to the
        scalar path; the only structural difference — points whose implicit
        resting remainder is empty still accumulate ``power * 0.0`` — adds
        an exact IEEE ``+0.0`` and cannot change any bit either.
        ``batch.activity`` scales the activity factor of every block a phase
        overrides out of its resting mode (see :meth:`schedule_report`).
        Raises the first infeasible point's schedule error.
        """
        count = len(batch)
        if len(table) != count:
            raise AnalysisError("one schedule-table point per batch point is required")
        table.require_feasible()
        energies = np.zeros(count)
        phase_lists: list[tuple[tuple[str, float, float], ...]] | None = (
            [()] * count if include_phases else None
        )
        if count == 0:
            return energies, phase_lists
        compiled = self.compiled
        dyn_all, stat_all = compiled.breakdown_components(
            np.arange(len(compiled)),
            batch.supply_v,
            batch.temperature_c,
            process_dynamic=batch.dynamic_factor,
            process_leakage=batch.leakage_factor,
        )
        exponents = compiled.activity_exponent
        resting = self.node.resting_modes()

        for structure, idx, durations in table.groups:
            width = len(idx)
            rest = table.rest_s[idx]
            scale = batch.activity[idx]
            # One gather per group; the per-(phase, block) rows are views.
            dyn_group = dyn_all[:, idx] if width < count else dyn_all
            stat_group = stat_all[:, idx] if width < count else stat_all
            plain = bool(np.all(scale == 1.0))
            total = np.zeros(width)
            accumulated: list[tuple[str, np.ndarray, np.ndarray]] = []
            for k, (name, modes, activities) in enumerate(
                zip(structure.names, structure.block_modes, structure.activities)
            ):
                power = np.zeros(width)
                for block, resting_mode in resting.items():
                    row = compiled.row(block, modes.get(block, resting_mode))
                    dynamic_w = dyn_group[row]
                    activity = activities.get(block, 1.0)
                    if block in modes:
                        if not plain or activity != 1.0:
                            dynamic_w = dynamic_w * (
                                (activity * scale) ** exponents[row]
                            )
                    elif activity != 1.0:
                        dynamic_w = dynamic_w * (activity ** exponents[row])
                    power += dynamic_w + stat_group[row]
                total += power * durations[k]
                if include_phases:
                    accumulated.append((name, durations[k], power))
            if np.any(rest > 0.0) or include_phases:
                power = np.zeros(width)
                for block, resting_mode in resting.items():
                    row = compiled.row(block, resting_mode)
                    power += dyn_group[row] + stat_group[row]
                total += power * rest
                if include_phases:
                    accumulated.append((structure.resting_phase_name, rest, power))
            energies[idx] = total
            if phase_lists is not None:
                # Per point, (name, duration, power) in phase order, with the
                # power zeroed where the duration is not positive; the last
                # column is the resting remainder, which the scalar path
                # only yields when it is non-empty (``zip`` stops before it).
                names = [name for name, _duration, _power in accumulated]
                durations_all = np.array([duration for _n, duration, _p in accumulated])
                powers_all = np.where(
                    durations_all > 0.0,
                    np.array([power for _n, _d, power in accumulated]),
                    0.0,
                )
                busy_names = names[:-1]
                for index, duration_row, power_row, keep in zip(
                    idx.tolist(),
                    durations_all.T.tolist(),
                    powers_all.T.tolist(),
                    (rest > 0.0).tolist(),
                ):
                    phase_lists[index] = tuple(
                        zip(names if keep else busy_names, duration_row, power_row)
                    )
        return energies, phase_lists

    def schedule_energy_compiled(
        self,
        schedule: RevolutionSchedule,
        point: OperatingPoint,
        activity_scale: float = 1.0,
    ) -> tuple[float, tuple[tuple[str, float, float], ...]]:
        """Total energy and per-phase (name, duration, power) of one schedule.

        Compiled-table equivalent of :meth:`schedule_report` reduced to the
        revolution energy plus the phase list used to reconstruct the
        instant-power trace.  This is the width-1 case of
        :meth:`_schedule_energy_batch` (through
        ``ScheduleTable.from_schedule``), so it shares the kernel with the
        emulator's bin sweep and the Monte-Carlo sweeps bit for bit.
        """
        batch = BatchConditions.from_arrays(
            [point.speed_kmh],
            [point.temperature_c],
            base_point=point,
            activity=[activity_scale],
        )
        energies, phases = self._schedule_energy_batch(
            batch, ScheduleTable.from_schedule(schedule), include_phases=True
        )
        assert phases is not None
        return float(energies[0]), phases[0]

    def schedule_energy_sweep(
        self,
        points: Sequence[OperatingPoint] | BatchConditions,
        patterns,
        include_phases: bool = False,
    ):
        """Revolution energies of N (speed, temperature, activity, pattern) points.

        The workload-vectorized entry of the batch engine: ``points`` carries
        the per-point operating conditions (including the
        ``BatchConditions.activity`` workload factor) and ``patterns`` is an
        ``(N, 3)`` boolean array of per-point conditional-phase flags
        ``(transmits, refreshes_slow, writes_nvm)``.  The timing of every
        point comes from ONE :meth:`SensorNode.schedule_table` call — the
        first point whose schedule cannot be built raises exactly the scalar
        path's error — and every power figure is evaluated in a single
        vectorized pass over the compiled table, which is what makes
        Monte-Carlo workload sweeps O(array ops) instead of O(points x
        blocks x phases) Python dispatch.

        Returns the ``(N,)`` energy array, or ``(energies, phase_lists)``
        when ``include_phases`` is true (one per-phase
        ``(name, duration_s, power_w)`` tuple list per point).  Results match
        :meth:`schedule_report` (same pattern, ``activity_scale`` = the
        point's activity) within 1e-9 relative tolerance.
        """
        batch = self._as_batch(points)
        pattern_arr = np.asarray(patterns)
        if pattern_arr.dtype != np.bool_:
            raise AnalysisError(
                "patterns must be boolean (transmits, refreshes_slow, writes_nvm) flags"
            )
        if pattern_arr.ndim != 2 or pattern_arr.shape[1] != 3:
            raise AnalysisError("patterns must be an (N, 3) boolean array")
        if pattern_arr.shape[0] != len(batch):
            raise AnalysisError("one phase pattern per batch point is required")
        table = self.node.schedule_table(batch.speed_kmh, pattern_arr)
        energies, phase_lists = self._schedule_energy_batch(
            batch, table, include_phases=include_phases
        )
        if include_phases:
            return energies, phase_lists
        return energies
