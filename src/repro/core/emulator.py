"""Long-window emulation of the Sensor Node against a drive cycle.

The paper's final flow step: *"integrate the model of the energy source with
the estimation of total load current and emulate the energy balance for a
long timing window"*.  The emulator plays a cruising-speed profile revolution
by revolution, charges the storage element with the scavenger output,
discharges it with the node load, tracks the in-tyre temperature, and records
whether the monitoring system could stay active — which is exactly the
information needed to identify the operating windows and to plot the instant
power of Fig. 3.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.blocks.node import PATTERN_WEIGHTS, SensorNode
from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import TEMPERATURE_RANGE_C, OperatingPoint
from repro.conditions.temperature import TyreThermalModel
from repro.core.cycle_plan import (
    CyclePlan,
    build_cycle_plan,
    round_harvest,
    unit_loads,
)
from repro.core.evaluator import EnergyEvaluator
from repro.core.quantize import (
    speed_bin,
    speed_bin_center_kmh,
    speed_bin_upper_edge_kmh,
    temperature_bin,
    temperature_bin_center_c,
    temperature_bins,
)
from repro.core.trace import PowerTrace
from repro.errors import ConfigurationError, EmulationError
from repro.power.database import PowerDatabase
from repro.scavenger.base import EnergyScavenger
from repro.scavenger.storage import (
    LedgerDemand,
    StorageElement,
    StorageTrajectory,
    ledger_demand,
    trajectory,
)
from repro.timing.schedule import ScheduleTable
from repro.timing.wheel_round import WheelRound
from repro.vehicle.drive_cycle import DriveCycle

#: Upper bound on the cycle plans one emulator memoizes (least recently
#: used first out), each with its isothermal round resolutions.  A design
#: loop re-emulates a handful of cycles; the bound keeps a long-lived
#: emulator fed ever-new cycles from holding every walk it ever made.
_MAX_PLANS = 4

#: Row ``c``: the ``(transmits, refreshes_slow, writes_nvm)`` flags of phase
#: pattern code ``c`` (a pattern's code is its flags times ``PATTERN_WEIGHTS``).
_PATTERN_FLAGS = (np.arange(8)[:, None] & PATTERN_WEIGHTS) != 0


class SampleLog:
    """Columnar record of the emulation state log.

    Hour-long emulations record tens of thousands of samples, so the log
    holds one numpy column per field, built once from the run's arrays
    (:meth:`from_columns`), and :meth:`arrays` returns views, not copies.
    """

    __slots__ = ("_time", "_speed", "_temperature", "_soc", "_active")

    def __len__(self) -> int:
        return len(self._time)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded columns as parallel array *views* (no copies).

        The views are marked read-only so a consumer mutating them in place
        (safe under the old copy semantics) fails loudly instead of silently
        corrupting the log; copy before transforming.
        """
        columns = {
            "time_s": self._time[:],
            "speed_kmh": self._speed[:],
            "temperature_c": self._temperature[:],
            "state_of_charge": self._soc[:],
            "node_active": self._active[:],
        }
        for view in columns.values():
            view.setflags(write=False)
        return columns

    @classmethod
    def from_columns(cls, time_s, speed_kmh, temperature_c, state_of_charge, node_active):
        """Build a log owning copies of five equal-length columns."""
        log = cls()
        log._time = np.array(time_s, dtype=float)
        log._speed = np.array(speed_kmh, dtype=float)
        log._temperature = np.array(temperature_c, dtype=float)
        log._soc = np.array(state_of_charge, dtype=float)
        log._active = np.array(node_active, dtype=bool)
        return log


class EmulationResult:
    """Outcome of one long-window emulation.

    Samples are stored column-wise in :attr:`log` (a :class:`SampleLog`);
    :meth:`sample_arrays` returns views into it.
    """

    def __init__(
        self,
        node_name: str,
        cycle_name: str,
        duration_s: float,
        harvested_j: float = 0.0,
        consumed_j: float = 0.0,
        discarded_j: float = 0.0,
        revolutions: int = 0,
        active_revolutions: int = 0,
        brownout_events: int = 0,
        moving_time_s: float = 0.0,
        active_time_s: float = 0.0,
        trace: PowerTrace | None = None,
    ) -> None:
        self.node_name = node_name
        self.cycle_name = cycle_name
        self.duration_s = duration_s
        self._log: SampleLog | None = None
        self.harvested_j = harvested_j
        self.consumed_j = consumed_j
        self.discarded_j = discarded_j
        self.revolutions = revolutions
        self.active_revolutions = active_revolutions
        self.brownout_events = brownout_events
        self.moving_time_s = moving_time_s
        self.active_time_s = active_time_s
        self.trace = trace

    @property
    def log(self) -> SampleLog:
        """The recorded state log; an empty one is built on first use."""
        if self._log is None:
            self._log = SampleLog.from_columns([], [], [], [], [])
        return self._log

    @log.setter
    def log(self, value: SampleLog) -> None:
        self._log = value

    @property
    def sample_count(self) -> int:
        """Number of recorded samples."""
        return len(self._log) if self._log is not None else 0

    _SCALAR_FIELDS = (
        "node_name",
        "cycle_name",
        "duration_s",
        "harvested_j",
        "consumed_j",
        "discarded_j",
        "revolutions",
        "active_revolutions",
        "brownout_events",
        "moving_time_s",
        "active_time_s",
    )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._SCALAR_FIELDS)
        return f"EmulationResult({fields}, samples={self.sample_count}, trace={self.trace!r})"

    def __eq__(self, other: object) -> bool:
        # Field-based equality, preserved from the former dataclass: scalar
        # totals, the recorded sample columns, and the trace must all match.
        if not isinstance(other, EmulationResult):
            return NotImplemented
        if any(
            getattr(self, name) != getattr(other, name) for name in self._SCALAR_FIELDS
        ):
            return False
        ours, theirs = self.log.arrays(), other.log.arrays()
        if any(not np.array_equal(ours[key], theirs[key]) for key in ours):
            return False
        return self.trace == other.trace

    def record_totals(
        self, plan: CyclePlan, harvest, banked, drawn, withdrew, brownouts: int
    ) -> None:
        """Set the energy/time totals from one integrated ledger over ``plan``.

        Per-unit arrays; ``banked`` and ``drawn`` must be contiguous: numpy's
        pairwise summation order — hence the last bit — follows the layout.
        """
        is_round, durations = plan.is_round, plan.durations
        self.revolutions = plan.revolutions
        self.moving_time_s = plan.moving_time_s
        self.harvested_j = float(banked.sum())
        self.discarded_j = float(np.maximum(0.0, harvest - banked).sum())
        self.consumed_j = float(drawn.sum())
        self.active_revolutions = int((is_round & withdrew).sum())
        self.active_time_s = float(durations[withdrew].sum())
        self.brownout_events = int(brownouts)

    # -- derived figures -----------------------------------------------------------

    @property
    def net_energy_j(self) -> float:
        """Harvested minus consumed energy over the window."""
        return self.harvested_j - self.consumed_j

    @property
    def active_fraction(self) -> float:
        """Fraction of the whole window with the node operational."""
        if self.duration_s == 0.0:
            return 0.0
        return self.active_time_s / self.duration_s

    @property
    def moving_active_fraction(self) -> float:
        """Fraction of the *moving* time with the node operational.

        This is the figure of merit the paper cares about: stationary time is
        lost by construction (nothing to harvest, nothing to sense), so the
        quality of an architecture/scavenger pairing shows in how much of the
        rolling time the monitoring system covers.
        """
        if self.moving_time_s == 0.0:
            return 0.0
        return min(1.0, self.active_time_s / self.moving_time_s)

    @property
    def revolution_coverage(self) -> float:
        """Fraction of wheel revolutions that were actually monitored."""
        if self.revolutions == 0:
            return 0.0
        return self.active_revolutions / self.revolutions

    def sample_arrays(self) -> dict[str, np.ndarray]:
        """Recorded samples as parallel numpy array views (zero-copy)."""
        return self.log.arrays()

    def summary(self) -> dict[str, float]:
        """Scalar summary used by reports and benches."""
        return {
            "duration_s": self.duration_s,
            "harvested_mj": self.harvested_j * 1e3,
            "consumed_mj": self.consumed_j * 1e3,
            "net_mj": self.net_energy_j * 1e3,
            "discarded_mj": self.discarded_j * 1e3,
            "revolutions": float(self.revolutions),
            "revolution_coverage_pct": 100.0 * self.revolution_coverage,
            "active_fraction_pct": 100.0 * self.active_fraction,
            "moving_active_fraction_pct": 100.0 * self.moving_active_fraction,
            "brownout_events": float(self.brownout_events),
        }


@dataclass(frozen=True, eq=False)
class RoundResolution:
    """One run's demand side over a cycle plan (read-only arrays).

    What :meth:`NodeEmulator._resolve_rounds` returns per request and
    :meth:`NodeEmulator._scan_ledger` scans: the run's ``plan``, per-unit
    ``temps``, ``end`` (the first unit outside the modelled temperature
    range, or ``len(plan)``), the resolving call's evaluation points as
    columns (``speeds``: bin center or exact speed, ``temperatures``: bin
    center, ``patterns``: pattern code) with their ``energies`` (NaN where
    the schedule cannot be built), each unit's ``value_index`` into them
    (``-1`` on idle units, unresolved rounds and from ``end`` on), the
    per-unit ``sleep_power`` and ``load`` at the storage element, and
    whether the scan can raise (``checked``).  An isothermal run's ``temps``
    and ``sleep_power`` are one float each, standing for every unit.
    """

    plan: CyclePlan
    temps: np.ndarray | float
    end: int
    speeds: np.ndarray
    temperatures: np.ndarray
    patterns: np.ndarray
    energies: np.ndarray
    value_index: np.ndarray
    sleep_power: np.ndarray | float
    load: np.ndarray
    checked: bool


class NodeEmulator:
    """Plays a drive cycle against a node, a scavenger and a storage element.

    Args:
        node: the Sensor Node architecture.
        database: power characterization (re-targeted to the node's clocks).
        scavenger: energy source model.
        storage: storage element buffering harvest and load; the emulator
            resets it at the start of every run.
        base_point: template operating point providing the supply and process
            conditions; speed and temperature are overridden while emulating.
        thermal_model: optional in-tyre thermal model driven by the emulated
            speed; when omitted, the base point's temperature is used
            throughout.
        evaluator: optional prebuilt evaluator for ``node``/``database``;
            lets scenario studies share one compiled power table across
            emulation runs.
    """

    def __init__(
        self,
        node: SensorNode,
        database: PowerDatabase,
        scavenger: EnergyScavenger,
        storage: StorageElement,
        base_point: OperatingPoint | None = None,
        thermal_model: TyreThermalModel | None = None,
        evaluator: EnergyEvaluator | None = None,
    ) -> None:
        self.node = node
        # A study sweeping only the environment can pass a prebuilt evaluator
        # so the re-targeted database and the compiled power table are shared
        # across emulation runs instead of rebuilt per run.
        if evaluator is not None and (
            evaluator.node is not node or evaluator.source_database is not database
        ):
            raise EmulationError(
                "the shared evaluator was built for a different node or database"
            )
        self.evaluator = evaluator or EnergyEvaluator(node, database)
        self.scavenger = scavenger
        self.storage = storage
        self.base_point = base_point or OperatingPoint()
        self.thermal_model = thermal_model
        #: Resting power per temperature bin, evaluated at the bin center.
        self._standstill_cache: dict[int, float] = {}
        #: (speed bin, phase pattern) keys whose schedule was validated at
        #: the bin's *upper edge* and center: every speed that rounds into
        #: the bin is then covered by one schedule build (up to sub-quantum
        #: feasibility pockets, the same approximation class as the energy
        #: quantization itself — and a deterministic one, so warm and fresh
        #: emulators always agree).
        self._trusted_speed_keys: set[tuple] = set()
        #: (speed bin, phase pattern) keys whose upper edge is infeasible —
        #: these straddle the node's feasibility limit — or whose center is
        #: (feasibility is a step function of speed, so the center can fail
        #: while the upper edge passes): their rounds are evaluated and keyed
        #: on the exact speed, and an unsustainable actual speed then raises
        #: naturally on its own schedule build.  Keyed per pattern so one
        #: pattern's infeasible center never forces other patterns in the
        #: same bin off their valid bin entries.
        self._exact_speed_keys: set[tuple] = set()
        #: Memoized cycle plans, keyed on the cycle's *content* (its phase
        #: tuple — ``DriveCycle`` is mutable, so never its identity) plus
        #: the idle step and record interval, each with its isothermal
        #: resolutions by temperature bit pattern (see :meth:`_plan_for`).
        self._plans: dict[tuple, tuple[CyclePlan, dict[bytes, RoundResolution]]] = {}
        self._cache_node = self.node
        self._cache_evaluator = self.evaluator
        self._cache_database = self.evaluator.database
        self._cache_database_version = self.evaluator.database._version
        self._cache_conditions = (self.base_point.supply, self.base_point.process)

    def _ensure_caches_fresh(self) -> None:
        """Drop the memos if an input they bake in has changed.

        The standstill powers, the speed-key classes, the plans and their
        isothermal round resolutions depend on the node, the evaluator and
        its database coefficients, and the supply/process conditions of
        ``base_point`` — all publicly reachable between runs, so all are
        checked here.  The base point's speed and temperature are not: every
        evaluation overrides both, the standstill memo is keyed on the
        temperature bin and the resolutions on the run temperature.
        """
        version = self.evaluator.database._version
        conditions = (self.base_point.supply, self.base_point.process)
        if (
            self.node is not self._cache_node
            or self.evaluator is not self._cache_evaluator
            or self.evaluator.database is not self._cache_database
            or version != self._cache_database_version
            or conditions != self._cache_conditions
        ):
            self._standstill_cache.clear()
            self._trusted_speed_keys.clear()
            self._exact_speed_keys.clear()
            self._plans.clear()
            self._cache_node = self.node
            self._cache_evaluator = self.evaluator
            self._cache_database = self.evaluator.database
            self._cache_database_version = version
            self._cache_conditions = conditions

    # -- internal helpers -------------------------------------------------------------

    def _operating_point(self, speed_kmh: float, temperature_c: float) -> OperatingPoint:
        return self.base_point.at_speed(speed_kmh).at_temperature(temperature_c)

    def _temperature_bin(self, temperature_c: float) -> int:
        """Quantized temperature bin, validating the *actual* temperature.

        The range check happens before binning so an out-of-range temperature
        fails on the value the thermal model actually produced (the old
        per-round OperatingPoint construction gave the same guarantee);
        in-range temperatures always map to in-range bin centers because the
        range bounds are whole multiples of the quantum.
        """
        low, high = TEMPERATURE_RANGE_C
        if not low <= temperature_c <= high:
            raise ConfigurationError(
                f"temperature {temperature_c} degC is outside the modelled range"
            )
        return temperature_bin(temperature_c)

    def _standstill_power(self, temperature_c: float) -> float:
        """Resting-mode node power, memoized on the quantized temperature.

        The resting power depends only on the (fixed) supply/process
        conditions and the temperature, so recomputing it every wheel round
        is pure overhead.  Each 1 degC bin is evaluated at its representative
        (bin-center) temperature, which keeps the cached value a pure
        function of the bin — results cannot depend on which temperature
        inside the bin an earlier run happened to see first.
        """
        key = self._temperature_bin(temperature_c)
        cached = self._standstill_cache.get(key)
        if cached is None:
            point = self._operating_point(0.0, temperature_bin_center_c(key))
            cached = self.evaluator.standstill_power_w(point)
            self._standstill_cache[key] = cached
        return cached

    def _classify_speed_keys(self, keys: list[tuple]) -> None:
        """Classify the (speed bin, pattern) keys new to this emulator, in ONE call.

        One schedule-table call builds every new key's schedule at its
        bin's upper edge and at its center.  A key feasible at both is
        trusted: every speed that rounds into the bin may share the bin
        entry, evaluated at the center.  Any other key is keyed on its
        rounds' exact speeds (``_exact_speed_keys``): this is the one place
        a bin center that cannot be built is re-keyed.  The classification
        depends only on the key, so warm and fresh emulators always agree;
        a warm run makes no table call.
        """
        trusted, exact = self._trusted_speed_keys, self._exact_speed_keys
        new = (key for key in dict.fromkeys(keys) if key not in trusted and key not in exact)
        keys = [key for key in new if key[0] > 0]
        if not keys:
            return
        patterns = [key[1:] for key in keys]
        table = self.node.schedule_table(
            [speed_bin_upper_edge_kmh(key[0]) for key in keys]
            + [speed_bin_center_kmh(key[0]) for key in keys],
            patterns + patterns,
        )
        builds = table.feasible[: len(keys)] & table.feasible[len(keys) :]
        for key, ok in zip(keys, builds.tolist()):
            (trusted if ok else exact).add(key)

    def _revolution_energy(self, unit: WheelRound, temperature_c: float) -> float:
        """Energy of one revolution, evaluated at its round's evaluation point.

        The point :meth:`_resolve_rounds` sweeps the round at: the bin
        center of a trusted (speed bin, phase pattern) key, otherwise the
        exact speed (bin 0, which has no positive representative speed, and
        the keys whose bin edge or center cannot be built); the temperature
        bin's center; the round's phase pattern.  A speed whose schedule
        cannot be built raises here, as does a temperature outside the
        modelled range.
        """
        pattern = self.node.phase_pattern(unit.index)
        temp_bin = self._temperature_bin(temperature_c)
        pattern_key = (speed_bin(unit.speed_kmh), *pattern)
        self._classify_speed_keys([pattern_key])
        if pattern_key in self._trusted_speed_keys:
            speed = speed_bin_center_kmh(pattern_key[0])
        else:
            speed = unit.speed_kmh
        table = self.node.schedule_table([speed], [pattern])
        centre = [temperature_bin_center_c(temp_bin)]
        return float(self._evaluate_table(table, centre, np.zeros(1, dtype=np.intp))[0][0])

    def _evaluate_table(
        self, table: ScheduleTable, temperatures, condition_of, include_phases=False
    ):
        """The kernel's ``(energies, phase lists)`` at ``table``'s points.

        One :meth:`EnergyEvaluator._schedule_energy_batch` call over
        ``table`` (the points' speeds and patterns).  Point ``i`` runs at
        ``temperatures[condition_of[i]]`` under the base point's supply and
        process conditions (``None``: one temperature per point, numbered
        by bit pattern); each temperature's power is evaluated once.
        Raises the first infeasible point's error.  The kernel is
        elementwise, so a point's values do not depend on the other points
        of the call.
        """
        temperatures = np.asarray(temperatures, dtype=float)
        conditions = BatchConditions.from_arrays(
            np.zeros(len(temperatures)), temperatures, base_point=self.base_point
        )
        return self.evaluator._schedule_energy_batch(
            conditions, table, condition_of, include_phases
        )

    def evaluate_energy_bins(
        self, table: ScheduleTable, temperatures: np.ndarray, condition_of: np.ndarray
    ) -> np.ndarray:
        """Evaluate quantized bins in ONE vectorized batch call: one energy per point.

        ``table`` is the schedule table of the bins' evaluation speeds and
        patterns, every point buildable; ``temperatures`` are the
        evaluation temperatures (the temperature-bin centres) and
        ``condition_of`` each point's index into them.  Block power is
        evaluated once per temperature, durations per point.  The sweep is energy-only: no
        phase list is built (a trace builds its own).  The batch kernel
        accumulates in the scalar operation order, so the values are bitwise
        identical to per-round scalar evaluations — which is what lets
        :meth:`_resolve_rounds` evaluate the *union* of bins over every run
        it resolves, one emulation or a whole fleet population, in one call.
        """
        return self._evaluate_table(table, temperatures, condition_of)[0]

    def _record_trace_revolution(
        self,
        trace: PowerTrace,
        start_s: float,
        period_s: float,
        phases: tuple[tuple[str, float, float], ...],
        active: bool,
        sleep_power_w: float,
    ) -> None:
        """Trace one revolution: its phases then sleep, or one "inactive" entry."""
        if not active:
            trace.append(start_s, period_s, 0.0, "inactive")
            return
        end_s = start_s + period_s
        cursor = start_s
        for label, duration, power in phases:
            duration = min(duration, end_s - cursor)
            if duration <= 0.0:
                break
            trace.append(cursor, duration, power, label)
            cursor += duration
        if cursor < end_s - 1e-12:
            trace.append(cursor, end_s - cursor, sleep_power_w, "sleep")

    # -- the cycle plan ----------------------------------------------------------------

    def materialize_cycle(
        self,
        cycle: DriveCycle,
        idle_step_s: float = 1.0,
        record_interval_s: float = 1.0,
    ) -> CyclePlan:
        """Walk ``cycle`` once into a :class:`~repro.core.cycle_plan.CyclePlan`.

        The plan is everything :meth:`emulate` needs from the walk that does
        not depend on the emulator's state: the per-unit arrays, each
        round's (speed bin, phase pattern) group and the state-log sampling
        walk.  ``emulate()`` memoizes plans (:meth:`_plan_for`); the fleet
        runner walks each distinct (cycle, speed scale) of a run once here
        and resolves every run on it through :meth:`_resolve_rounds`.
        """
        return build_cycle_plan(cycle, self.node, idle_step_s, record_interval_s)

    def _plan_for(
        self, cycle: DriveCycle, idle_step_s: float, record_interval_s: float
    ) -> tuple[CyclePlan, dict[bytes, RoundResolution]]:
        """The memoized plan of ``cycle`` and its isothermal resolutions.

        A warm re-``emulate()`` walks nothing, and an isothermal one
        resolves nothing either: :meth:`emulate` keeps each isothermal
        :class:`RoundResolution` in the returned dict, keyed on the bit
        pattern of the run temperature.  Keyed on the cycle's content, so an
        in-place edit of ``cycle.phases`` misses; the node the walk depends
        on is covered by :meth:`_ensure_caches_fresh`, which clears the memo
        and the resolutions with it.  The least recently used plan is
        evicted first, and its resolutions go with it.
        """
        key = (tuple(cycle.phases), idle_step_s, record_interval_s)
        entry = self._plans.pop(key, None)
        if entry is None:
            entry = (self.materialize_cycle(cycle, idle_step_s, record_interval_s), {})
            if len(self._plans) >= _MAX_PLANS:
                del self._plans[next(iter(self._plans))]
        self._plans[key] = entry
        return entry

    def speed_slots(self, plan: CyclePlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The speed slots of ``plan``'s wheel rounds, as columns.

        The plan's groups must be classified (:meth:`_classify_speed_keys`).
        A trusted group is one slot at its bin center; every round of any
        other group is a slot of its own at its exact speed, and
        :meth:`_resolve_rounds` numbers equal slots as one.  Returns each
        slot's evaluation speed and key code (its group's ``bin * 8 +
        pattern`` when trusted, ``-1 - pattern`` when exact), and each
        round's index into them.
        """
        trusted = self._trusted_speed_keys
        groups = np.flatnonzero([key in trusted for key in plan.groups])
        group_slot = np.full(len(plan.groups), -1, dtype=np.intp)
        group_slot[groups] = np.arange(len(groups))
        round_slot = group_slot[plan.round_groups]
        exact = np.flatnonzero(round_slot < 0)
        round_slot[exact] = len(groups) + np.arange(len(exact))
        codes = plan.group_codes
        speeds = (speed_bin_center_kmh(codes[groups] >> 3), plan.speeds[plan.round_indices[exact]])
        exact_codes = -1 - (codes[plan.round_groups[exact]] & 7)
        return np.concatenate(speeds), np.concatenate((codes[groups], exact_codes)), round_slot

    def _resolve_rounds(self, requests: list) -> list[RoundResolution]:
        """Resolve the demand side of ``(plan, temperature, thermal model)`` runs.

        One :class:`RoundResolution` per request; without a thermal model
        the run is isothermal at ``temperature``.  The groups of all plans
        are classified in one call and slots equal across plans are one
        slot.  Each (slot, temperature bin) entry (an isothermal run's slots
        at its bin, a thermal run's rounds up to ``end``) is numbered as an
        int64 code in one ``np.unique``; the codes index the slot columns,
        so the distinct evaluation points are built as arrays and swept by
        ONE schedule table and ONE :meth:`evaluate_energy_bins` call, which
        takes each code's temperature bin as its condition's number, so
        block power is evaluated once per bin, not per point.  A
        point whose schedule cannot be built (an exact speed; bin centers
        that cannot were re-keyed when classified) is dropped by mask: its
        rounds draw 0 and :meth:`_scan_ledger` raises if the node reaches
        one while active.  Energies are referred through the PMU once per
        code; each plan's loads are one gather
        (:func:`~repro.core.cycle_plan.unit_loads`).
        """
        if not requests:
            return []
        low, high = TEMPERATURE_RANGE_C
        members: dict[int, list[int]] = {}
        for row, (plan, _temperature, _model) in enumerate(requests):
            members.setdefault(id(plan), []).append(row)
        plans = [requests[rows[0]][0] for rows in members.values()]
        self._classify_speed_keys([key for plan in plans for key in plan.groups])
        columns = [self.speed_slots(plan) for plan in plans]
        # Number slots across plans: a trusted slot is its key code, an
        # exact one its (speed, pattern) pair.
        speeds = np.concatenate([column[0] for column in columns])
        codes = np.concatenate([column[1] for column in columns])
        identity, exact = codes.copy(), codes < 0
        identity[exact] -= 8 * np.unique(speeds[exact], return_inverse=True)[1]
        _unique, first, numbers = np.unique(identity, return_index=True, return_inverse=True)
        slot_speeds, slot_codes = speeds[first], codes[first]

        # The entries: an in-range isothermal run has one per slot of its
        # plan, which its rounds index by slot (one block per plan); a
        # thermal run, one per round up to ``end``.
        runs: list = [None] * len(requests)  # (temps, end, sleep[, first entry, entries])
        slot_parts, bin_parts, blocks, count = [], [], [], 0
        for plan, rows, (plan_speeds, _codes, round_slot) in zip(plans, members.values(), columns):
            plan_numbers, numbers = numbers[: len(plan_speeds)], numbers[len(plan_speeds) :]
            isothermal, others = [], []
            for row in rows:
                _plan, temperature, thermal_model = requests[row]
                if thermal_model is None:
                    temps = float(temperature)
                    if low <= temps <= high:
                        isothermal.append(row)
                        runs[row] = (temps, len(plan), self._standstill_power(temps))
                    else:
                        others.append(row)
                        runs[row] = (temps, 0, 0.0, count, 0)
                    continue
                # Bitwise a per-revolution ``advance`` loop (speeds in m/s,
                # as ``speed / 3.6``), leaving the model at the cycle's end.
                temps = thermal_model.advance_many(plan.durations, plan.speeds / 3.6)
                in_range = (temps >= low) & (temps <= high)
                end = len(plan) if in_range.all() else int(np.argmin(in_range))
                # Resting power through the standstill memo, per temperature bin.
                temp_bins, unit_bin = np.unique(temperature_bins(temps[:end]), return_inverse=True)
                sleep = np.zeros(len(plan))
                sleep[:end] = np.array(
                    [self._standstill_power(temperature_bin_center_c(int(b))) for b in temp_bins]
                )[unit_bin]
                rounds = plan.round_indices[: np.searchsorted(plan.round_indices, end)]
                slot_parts.append(plan_numbers[round_slot[: len(rounds)]])
                bin_parts.append(temperature_bins(temps[rounds]).astype(np.int64))
                others.append(row)
                runs[row] = (temps, end, sleep, count, len(rounds))
                count += len(rounds)
            slot_parts.append(np.tile(plan_numbers, len(isothermal)))
            temp_bins = [temperature_bin(runs[row][0]) for row in isothermal]
            bin_parts.append(np.repeat(np.array(temp_bins, dtype=np.int64), len(plan_numbers)))
            blocks.append((plan, round_slot, len(plan_numbers), isothermal, count, others))
            count += len(isothermal) * len(plan_numbers)

        # Number every entry's (slot, temperature bin) pair; the codes index
        # the slot columns, so the evaluation points are built as arrays.
        entry_slot, entry_bin = np.concatenate(slot_parts), np.concatenate(bin_parts)
        first_bin = int(entry_bin.min()) if entry_bin.size else 0
        width = int(entry_bin.max()) - first_bin + 1 if entry_bin.size else 1
        codes, inverse = np.unique(entry_slot * width + entry_bin - first_bin, return_inverse=True)
        code_slot, code_bin = np.divmod(codes, width)
        key_codes, speeds = slot_codes[code_slot], slot_speeds[code_slot]
        # Each code's temperature bin numbers its condition among the centres.
        centres = temperature_bin_center_c(first_bin + np.arange(width))
        temperatures = centres[code_bin]
        patterns = np.where(key_codes < 0, -1 - key_codes, key_codes & 7)
        energies = np.full(len(codes), np.nan)
        if len(codes):
            swept = np.arange(len(codes))
            table = self.node.schedule_table(speeds, _PATTERN_FLAGS[patterns])
            if not table.feasible.all():
                # Rare (an exact speed past the node's feasibility limit):
                # drop the points whose schedule cannot be built.
                swept = swept[table.feasible]
                table = self.node.schedule_table(speeds[swept], _PATTERN_FLAGS[patterns[swept]])
            energies[swept] = self.evaluate_energy_bins(table, centres, code_bin[swept])
        points = (speeds, temperatures, patterns, energies)
        for column in points:
            column.setflags(write=False)

        # Each entry's value index (-1 where unresolved), each code's load
        # referred through the PMU once (a trailing 0.0 that -1 reads), then
        # per plan one gather over its isothermal runs and one over the rest.
        entry_value = np.where(np.isnan(energies), -1, np.arange(len(codes)))[inverse]
        round_loads = np.append(self.node.pmu.referred_to_storage(energies), 0.0)
        resolutions: list = [None] * len(requests)
        for plan, round_slot, slots, isothermal, base, others in blocks:
            groups = []
            if isothermal:
                # Each run's value per slot, and -1 in a last column that
                # idle units read: one gather gives every unit's value.
                slot_values = np.full((len(isothermal), slots + 1), -1, dtype=np.intp)
                values = entry_value[base : base + len(isothermal) * slots]
                slot_values[:, :slots] = values.reshape(len(isothermal), slots)
                unit_slot = np.full(len(plan), slots)
                unit_slot[plan.round_indices] = round_slot
                unresolved = (slot_values[:, :slots] < 0).any(axis=1)
                sleep = np.array([runs[row][2] for row in isothermal])[:, None]
                groups.append((isothermal, slot_values[:, unit_slot], sleep, unresolved))
            if others:
                value_index = np.full((len(others), len(plan)), -1, dtype=np.intp)
                for k, row in enumerate(others):
                    _temps, _end, _sleep, first, count = runs[row]
                    value_index[k, plan.round_indices[:count]] = entry_value[first : first + count]
                unresolved = (value_index[:, plan.round_indices] < 0).any(axis=1)
                sleep = np.stack([np.broadcast_to(runs[row][2], len(plan)) for row in others])
                groups.append((others, value_index, sleep, unresolved))
            for rows, value_index, sleep, unresolved in groups:
                load = unit_loads(self.node.pmu, plan, round_loads, value_index, sleep)
                value_index.setflags(write=False)
                for k, row in enumerate(rows):
                    temps, end, power = runs[row][:3]
                    checked = end < len(plan) or bool(unresolved[k])
                    # An owned load: a matrix row (8-byte aligned) scans ~5% slower.
                    own = load[k].copy()
                    own.setflags(write=False)
                    resolutions[row] = RoundResolution(
                        plan, temps, end, *points, value_index[k], power, own, checked
                    )
        return resolutions

    @staticmethod
    def _ledger_demand(
        resolution: RoundResolution, storage: StorageElement, leak=None
    ) -> LedgerDemand:
        """The demand :meth:`_scan_ledger` scans: the load and leak over ``[0, end)``.

        ``leak`` is a :func:`~repro.scavenger.storage.ledger_leak` of the
        plan's durations that the caller shares, or ``None``.  The demand
        holds for any element with ``storage``'s efficiencies and
        self-discharge, such as its
        :func:`~repro.scavenger.storage.scaled_storage` copies.
        """
        end = resolution.end
        leak_s = resolution.plan.durations[:end] if leak is None else leak
        return ledger_demand(storage, resolution.load[:end], leak_s)

    def _scan_ledger(
        self,
        resolution: RoundResolution,
        storage: StorageElement,
        harvest: np.ndarray,
        demand: LedgerDemand,
    ) -> StorageTrajectory:
        """Integrate the ledger over units ``[0, end)``; raise the scalar path's error.

        ONE :func:`repro.scavenger.storage.trajectory` call over the
        per-unit ``harvest`` and the resolution's ``demand``
        (:meth:`_ledger_demand`), from ``storage``'s own
        (construction-validated) initial charge; ``storage`` is not
        mutated.  When the scan can raise (``resolution.checked``), the
        first unresolved round the node reaches while active raises through
        :meth:`_revolution_energy`: every earlier one was passed browned
        out, so the ledger up to it is exact.  Otherwise a scan cut short
        raises through :meth:`_standstill_power` on unit ``end``.
        :meth:`emulate` and the fleet runner both scan here, so the two raise
        the same errors at the same units.
        """
        plan, end = resolution.plan, resolution.end
        traj = trajectory(storage, harvest[:end], demand)
        if not resolution.checked:
            return traj
        temps = np.broadcast_to(resolution.temps, plan.durations.shape)
        reached = traj.attempted & plan.is_round[:end] & (resolution.value_index[:end] < 0)
        if reached.any():
            i = int(np.argmax(reached))
            unit = WheelRound(
                index=int(plan.indices[i]),
                start_s=float(plan.starts[i]),
                period_s=float(plan.durations[i]),
                speed_kmh=float(plan.speeds[i]),
            )
            self._revolution_energy(unit, float(temps[i]))
            raise EmulationError(f"round {unit.index} builds but was left out of the sweep")
        if end < len(plan):
            self._standstill_power(float(temps[end]))  # raises: out of range
        return traj

    # -- main entry point ----------------------------------------------------------------

    def emulate(
        self,
        cycle: DriveCycle,
        record_interval_s: float = 1.0,
        trace_window: tuple[float, float] | None = None,
        idle_step_s: float = 1.0,
    ) -> EmulationResult:
        """Run the emulation over ``cycle``.

        One cycle plan drives the whole run: the walk comes from the plan
        memo (:meth:`_plan_for`; a cold run builds it once through
        :meth:`materialize_cycle`, a warm one walks nothing), the thermal
        trajectory is replayed over the plan's arrays and the revolution
        energies of the run's quantized bins come from ONE
        :meth:`evaluate_energy_bins` sweep (:meth:`_resolve_rounds`, the
        resolution the fleet runner uses too), the harvest of every wheel
        round from one ``energy_sweep_j`` call, and the state of charge is
        integrated by ONE call of the pure
        :func:`repro.scavenger.storage.trajectory` kernel.  An isothermal
        resolution is memoized with its plan, so a warm isothermal run
        resolves nothing: it is the harvest sweep, the scan and the totals.
        A thermal run resolves on every run, because it advances the public
        thermal model in place.  Errors keep the scalar path's timing: the
        kernel runs up to the first unit outside the modelled temperature
        range, and a round whose schedule cannot be built raises only if
        the node reaches it while active; the first such event raises
        (:meth:`_scan_ledger`).

        Args:
            cycle: the cruising-speed profile.
            record_interval_s: sampling interval of the state-of-charge /
                activity log.
            trace_window: optional ``(start_s, end_s)`` window over which the
                instant-power trace (Fig. 3) is recorded.
            idle_step_s: time step used while the vehicle is stationary.

        Returns:
            An :class:`EmulationResult` with totals, the sampled state log and
            (when requested) the instant-power trace.
        """
        if record_interval_s <= 0.0:
            raise EmulationError("record interval must be positive")
        if trace_window is not None:
            trace_start, trace_end = trace_window
            if trace_end <= trace_start:
                raise EmulationError("trace window end must be after its start")

        self.storage.reset()
        if self.thermal_model is not None:
            self.thermal_model.reset()
        # The memos are intentionally NOT cleared on every run: their values
        # are pure functions of their keys, so they stay valid across runs.
        # The invalidating events (a new node, evaluator or supply/process
        # condition, or an in-place mutation of the database, seen through
        # its version counter) are detected here.
        self._ensure_caches_fresh()
        plan, resolutions = self._plan_for(cycle, idle_step_s, record_interval_s)
        temperature = self.base_point.temperature_c
        # An isothermal resolution is a pure function of the plan, the run
        # temperature and the inputs _ensure_caches_fresh guards (a key's
        # class depends only on the key), so a warm run reuses the cold
        # run's.  It is keyed on the temperature's bits: 0.0 == -0.0, but
        # the log's temperature column keeps the sign.  A thermal run (no
        # key) resolves every time.
        memo_key = struct.pack("<d", temperature) if self.thermal_model is None else None
        resolution = resolutions.get(memo_key)
        if resolution is None:
            (resolution,) = self._resolve_rounds([(plan, temperature, self.thermal_model)])
            if memo_key is not None:
                resolutions[memo_key] = resolution
        harvest = round_harvest(self.scavenger, plan)
        traj = self._scan_ledger(
            resolution, self.storage, harvest, self._ledger_demand(resolution, self.storage)
        )
        # The mutating element is the scalar reference, not the integrator:
        # leave it holding the trajectory's final charge, exactly as the old
        # per-revolution deposit/withdraw/leak calls did.
        self.storage._charge_j = traj.final_charge_j

        result = EmulationResult(
            node_name=self.node.name,
            cycle_name=cycle.name,
            duration_s=cycle.duration_s,
            trace=PowerTrace() if trace_window is not None else None,
        )
        result.record_totals(
            plan, harvest, traj.banked_j, traj.drawn_j, traj.withdrew, traj.brownout_events
        )

        # State log: the plan's sampling walk, reading the trajectory.
        units = plan.sample_units
        result.log = SampleLog.from_columns(
            plan.sample_times,
            plan.speeds[units],
            np.broadcast_to(resolution.temps, plan.durations.shape)[units],
            traj.charge_j[units] / self.storage.capacity_j,
            traj.active[units],
        )

        if result.trace is not None and trace_window is not None:
            self._record_trace(result.trace, trace_window, resolution, traj)
            if not result.trace.is_empty:
                result.trace = result.trace.windowed(*trace_window)
        return result

    def _record_trace(
        self,
        trace: PowerTrace,
        trace_window: tuple[float, float],
        resolution: RoundResolution,
        traj: StorageTrajectory,
    ) -> None:
        """Reconstruct the instant-power trace from the integration arrays.

        Entry for entry what the per-revolution loop recorded: successful
        rounds play their key's phase list, rounds the node slept through
        are "inactive", brown-out rounds record nothing, and idle units
        record the standstill floor (or "inactive" once the node is down).
        Sweeps keep energies only, so the phase lists of the distinct keys
        the window's successful rounds play are built here, in ONE
        ``_schedule_energy_batch(include_phases=True)`` call at the keys'
        evaluation points (the resolution's columns): the kernel is
        elementwise, so they are bitwise the lists the sweep would have made.
        """
        window_start, window_end = trace_window
        plan, value_index = resolution.plan, resolution.value_index
        sleep_power = np.broadcast_to(resolution.sleep_power, plan.durations.shape)
        in_window = np.flatnonzero((plan.starts < window_end) & (plan.ends > window_start))
        played = np.unique(value_index[in_window][traj.withdrew[in_window]])
        played = played[played >= 0]  # idle units withdraw too
        table = self.node.schedule_table(
            resolution.speeds[played], _PATTERN_FLAGS[resolution.patterns[played]]
        )
        phases = self._evaluate_table(table, resolution.temperatures[played], None, True)[1]
        phases_of = dict(zip(played.tolist(), phases))
        for i in in_window.tolist():
            start_s = float(plan.starts[i])
            duration = float(plan.durations[i])
            if plan.is_round[i]:
                withdrew = bool(traj.withdrew[i])
                if withdrew or not traj.attempted[i]:
                    phases = phases_of[value_index[i]] if withdrew else ()
                    self._record_trace_revolution(
                        trace, start_s, duration, phases, withdrew, float(sleep_power[i])
                    )
            else:
                active = bool(traj.active[i])
                trace.append(
                    start_s,
                    duration,
                    float(sleep_power[i]) if active else 0.0,
                    "standstill" if active else "inactive",
                )

    def steady_state_trace(
        self,
        speed_kmh: float,
        window_s: float,
        temperature_c: float | None = None,
        start_revolution: int = 0,
    ) -> PowerTrace:
        """Instant-power trace of a constant-speed cruise (the Fig. 3 view).

        Unlike :meth:`emulate`, the storage element is ignored: the node is
        assumed powered throughout, which matches the paper's "limited timing
        window" snapshot of the consumption profile.
        """
        if speed_kmh <= 0.0:
            raise EmulationError("a steady-state trace requires a positive speed")
        if window_s <= 0.0:
            raise EmulationError("window must be positive")
        temperature = (
            temperature_c if temperature_c is not None else self.base_point.temperature_c
        )
        point = self._operating_point(speed_kmh, temperature)
        sleep_power = self.evaluator.standstill_power_w(point)
        period = self.node.wheel.revolution_period_s(speed_kmh)

        # Unlike emulate(), a steady-state trace has a single exact working
        # condition, so revolutions are evaluated at the *requested* speed and
        # temperature (the Fig. 3 phases then sum exactly to the revolution
        # period) and memoized per conditional-phase pattern for this call
        # only — no quantized bin sharing.
        pattern_cache: dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]] = {}
        trace = PowerTrace()
        time_s = 0.0
        revolution = start_revolution
        while time_s < window_s:
            pattern = self.node.phase_pattern(revolution)
            cached = pattern_cache.get(pattern)
            if cached is None:
                cached = self.evaluator.schedule_energy_compiled(
                    self.node.schedule_for(speed_kmh, revolution), point
                )
                pattern_cache[pattern] = cached
            _, phases = cached
            self._record_trace_revolution(trace, time_s, period, phases, True, sleep_power)
            time_s += period
            revolution += 1
        return trace.windowed(0.0, window_s)
