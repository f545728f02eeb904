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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.blocks.node import SensorNode
from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import TEMPERATURE_RANGE_C, OperatingPoint
from repro.conditions.temperature import TyreThermalModel
from repro.core.cycle_plan import CyclePlan, build_cycle_plan, energy_keys, round_harvest, unit_load
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
from repro.scavenger.storage import StorageElement, StorageTrajectory, trajectory
from repro.timing.schedule import ScheduleTable
from repro.timing.wheel_round import WheelRound
from repro.vehicle.drive_cycle import DriveCycle

#: Upper bound on revolution-energy cache entries.  Ordinary cycles produce a
#: few dozen (binned) entries; only exact-keyed boundary/sub-quantum rounds
#: with continuously varying speeds can accumulate, and the cap keeps the
#: run-persistent cache from growing without bound over an emulator's life.
_MAX_ENERGY_CACHE_ENTRIES = 65536

#: Upper bound on the cycle plans one emulator memoizes.  A design loop
#: re-emulates a handful of cycles; the bound keeps a long-lived emulator fed
#: ever-new cycles from holding every walk it ever made.
_MAX_PLANS = 4


@dataclass(frozen=True)
class EmulationSample:
    """One recorded sample of the emulation state."""

    time_s: float
    speed_kmh: float
    temperature_c: float
    state_of_charge: float
    node_active: bool


class SampleLog:
    """Columnar, preallocated record buffer for the emulation state log.

    Hour-long emulations record tens of thousands of samples; appending one
    frozen dataclass per sample and re-listing all of them for every
    ``sample_arrays()`` call dominated the logging cost.  The log keeps one
    preallocated numpy column per field (grown by doubling) so appends are
    amortized O(1) scalar stores and :meth:`arrays` returns views, not
    copies.
    """

    __slots__ = ("_time", "_speed", "_temperature", "_soc", "_active", "_size")

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(1, int(capacity))
        self._time = np.empty(capacity)
        self._speed = np.empty(capacity)
        self._temperature = np.empty(capacity)
        self._soc = np.empty(capacity)
        self._active = np.zeros(capacity, dtype=bool)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        capacity = 2 * len(self._time)
        for name in ("_time", "_speed", "_temperature", "_soc", "_active"):
            column = getattr(self, name)
            grown = np.empty(capacity, dtype=column.dtype)
            grown[: self._size] = column[: self._size]
            setattr(self, name, grown)

    def append(
        self,
        time_s: float,
        speed_kmh: float,
        temperature_c: float,
        state_of_charge: float,
        node_active: bool,
    ) -> None:
        """Record one sample."""
        if self._size == len(self._time):
            self._grow()
        index = self._size
        self._time[index] = time_s
        self._speed[index] = speed_kmh
        self._temperature[index] = temperature_c
        self._soc[index] = state_of_charge
        self._active[index] = node_active
        self._size = index + 1

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded columns as parallel array *views* (no copies).

        The views are marked read-only so a consumer mutating them in place
        (safe under the old copy semantics) fails loudly instead of silently
        corrupting the log; copy before transforming.
        """
        size = self._size
        columns = {
            "time_s": self._time[:size],
            "speed_kmh": self._speed[:size],
            "temperature_c": self._temperature[:size],
            "state_of_charge": self._soc[:size],
            "node_active": self._active[:size],
        }
        for view in columns.values():
            view.setflags(write=False)
        return columns

    def to_samples(self) -> list[EmulationSample]:
        """Materialize the log as row objects (compatibility view)."""
        return [
            EmulationSample(
                time_s=float(self._time[i]),
                speed_kmh=float(self._speed[i]),
                temperature_c=float(self._temperature[i]),
                state_of_charge=float(self._soc[i]),
                node_active=bool(self._active[i]),
            )
            for i in range(self._size)
        ]

    @classmethod
    def from_columns(cls, time_s, speed_kmh, temperature_c, state_of_charge, node_active):
        """Build a log owning copies of five equal-length columns."""
        log = cls(capacity=len(time_s))
        if len(time_s):
            log._time = np.array(time_s, dtype=float)
            log._speed = np.array(speed_kmh, dtype=float)
            log._temperature = np.array(temperature_c, dtype=float)
            log._soc = np.array(state_of_charge, dtype=float)
            log._active = np.array(node_active, dtype=bool)
            log._size = len(time_s)
        return log

    @classmethod
    def from_samples(cls, samples) -> "SampleLog":
        """Build a log from an iterable of :class:`EmulationSample` rows."""
        samples = list(samples)
        log = cls(capacity=max(1, len(samples)))
        for sample in samples:
            log.append(
                sample.time_s,
                sample.speed_kmh,
                sample.temperature_c,
                sample.state_of_charge,
                sample.node_active,
            )
        return log


class EmulationResult:
    """Outcome of one long-window emulation.

    Samples are stored column-wise in :attr:`log` (a :class:`SampleLog`);
    :meth:`sample_arrays` returns views into it.  The ``samples`` property
    materializes row objects for compatibility and should stay off hot
    paths.
    """

    def __init__(
        self,
        node_name: str,
        cycle_name: str,
        duration_s: float,
        samples: list[EmulationSample] | None = None,
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
        self.log = SampleLog.from_samples(samples) if samples else SampleLog()
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
    def samples(self) -> tuple[EmulationSample, ...]:
        """Row-object view of the recorded samples (materialized on access).

        Returned as a tuple so that accidental in-place mutation (the old
        list attribute allowed ``result.samples.append(...)``) fails loudly
        instead of silently editing a throwaway copy; record through
        ``result.log.append`` or assign a full list to ``result.samples``.
        """
        return tuple(self.log.to_samples())

    @samples.setter
    def samples(self, values) -> None:
        self.log = SampleLog.from_samples(values)

    @property
    def sample_count(self) -> int:
        """Number of recorded samples (cheap, unlike ``len(self.samples)``)."""
        return len(self.log)

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
        return f"EmulationResult({fields}, samples={len(self.log)}, trace={self.trace!r})"

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
        self.revolutions = int(is_round.sum())
        self.moving_time_s = float(durations[is_round].sum())
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
    :meth:`NodeEmulator._scan_ledger` scans: the run's ``plan``, its
    per-unit ``temps``, ``end`` (the first unit outside the modelled
    temperature range, where the scalar path raises, or ``len(plan)``), the
    distinct ``(energy, per-phase list)`` ``values`` of its rounds (``None``
    where the schedule cannot be built) with each unit's
    ``value_index`` into them (``-1`` on idle units, unresolved rounds and
    every unit from ``end`` on), the per-unit ``sleep_power`` and ``load``
    at the storage element, and whether the scan over it can raise
    (``checked``: ``end < len(plan)`` or any unresolved round).  An
    isothermal run's ``temps`` and ``sleep_power`` are one float each,
    which stands for every unit.
    """

    plan: CyclePlan
    temps: np.ndarray | float
    end: int
    values: list
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
        # Both caches are keyed on quantized conditions and stay valid for the
        # lifetime of the emulator: the evaluator and the database are fixed
        # per instance, so the caches persist across emulate() runs.
        self._energy_cache: dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]] = {}
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
        #: the idle step and record interval (see :meth:`_plan_for`).
        self._plans: dict[tuple, CyclePlan] = {}
        self._cache_node = self.node
        self._cache_evaluator = self.evaluator
        self._cache_database = self.evaluator.database
        self._cache_database_version = self.evaluator.database._version
        self._cache_base_point = self.base_point

    def _ensure_caches_fresh(self) -> None:
        """Drop cached energies if an input they bake in has changed.

        Cache keys quantize speed/temperature/phase pattern, but the cached
        values also depend on the node, the evaluator and its database
        coefficients, and the supply/process conditions of ``base_point`` —
        all publicly reachable between runs, so all are checked here.
        """
        version = self.evaluator.database._version
        if (
            self.node is not self._cache_node
            or self.evaluator is not self._cache_evaluator
            or self.evaluator.database is not self._cache_database
            or version != self._cache_database_version
            or self.base_point != self._cache_base_point
        ):
            self._energy_cache.clear()
            self._standstill_cache.clear()
            self._trusted_speed_keys.clear()
            self._exact_speed_keys.clear()
            self._plans.clear()
            self._cache_node = self.node
            self._cache_evaluator = self.evaluator
            self._cache_database = self.evaluator.database
            self._cache_database_version = version
            self._cache_base_point = self.base_point

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
        keys = [key for key in keys if key[0] > 0 and key not in trusted and key not in exact]
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

    def _speed_key_for(self, pattern_key: tuple, speed_kmh: float) -> tuple[object, float, bool]:
        """The cache speed key of a round in classified (bin, *pattern) group ``pattern_key``.

        Returns ``(speed_key, evaluation_speed, use_bin)``.  A trusted key
        shares its bin entry, evaluated at the bin center.  Every other
        round — bin 0, which has no positive representative speed, and the
        keys whose bin edge or center cannot be built — is keyed on its
        exact speed, so the cached value stays a pure function of the key
        either way.  Exact keys are tagged so they can never collide with an
        int bin key (Python dicts treat 999 and 999.0 as the same key).
        """
        bin_index = pattern_key[0]
        if pattern_key in self._trusted_speed_keys:
            return bin_index, speed_bin_center_kmh(bin_index), True
        return ("exact", speed_kmh), speed_kmh, False

    def _store_energy(
        self, key: tuple, value: tuple[float, tuple[tuple[str, float, float], ...]]
    ) -> None:
        """Insert one revolution-energy cache entry, honouring the size cap."""
        if len(self._energy_cache) >= _MAX_ENERGY_CACHE_ENTRIES:
            # Exact-keyed entries from continuously varying boundary speeds
            # are the only unbounded population; dropping the whole cache is
            # cheap to rebuild and keeps memory flat over the emulator's life.
            self._energy_cache.clear()
        self._energy_cache[key] = value

    def _revolution_energy(
        self, unit: WheelRound, temperature_c: float
    ) -> tuple[float, tuple[tuple[str, float, float], ...]]:
        """Energy of one revolution plus its per-phase (label, duration, power) list.

        Cached on quantized speed/temperature and on the conditional-phase
        pattern of the revolution index, because those five values fully
        determine the schedule energy.
        """
        pattern = self.node.phase_pattern(unit.index)
        temp_bin = self._temperature_bin(temperature_c)
        pattern_key = (speed_bin(unit.speed_kmh), *pattern)
        self._classify_speed_keys([pattern_key])
        speed_key, speed, _use_bin = self._speed_key_for(pattern_key, unit.speed_kmh)
        key = (speed_key, temp_bin, *pattern)
        cached = self._energy_cache.get(key)
        if cached is not None:
            return cached

        # Cache miss: evaluate at the bin-representative speed/temperature so
        # the cached value is a pure function of the key — results cannot
        # depend on which conditions inside the bin an earlier run saw first,
        # even though the cache persists across emulate() runs.  A speed
        # whose schedule cannot be built raises here.
        table = self.node.schedule_table([speed], [pattern])
        value = self._evaluate_table(
            table, np.array([temperature_bin_center_c(temp_bin)]), [key]
        )[key]
        self._store_energy(key, value)
        return value

    def _evaluate_table(
        self, table: ScheduleTable, temperatures_c: np.ndarray, keys: list
    ) -> dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]]:
        """``key -> (energy, per-phase list)`` of the points of ``table``.

        One :meth:`EnergyEvaluator._schedule_energy_batch` call at the
        table's speeds and ``temperatures_c`` under the base point's supply
        and process conditions; raises the first infeasible point's error.
        """
        batch = BatchConditions.from_arrays(
            table.speeds_kmh, temperatures_c, base_point=self.base_point
        )
        energies, phase_lists = self.evaluator._schedule_energy_batch(
            batch, table, include_phases=True
        )
        return {
            key: (energy, phase_lists[position])
            for position, (key, energy) in enumerate(zip(keys, energies.tolist()))
        }

    def evaluate_energy_bins(
        self, pending: Mapping[tuple, tuple[float, float, tuple[bool, bool, bool]]]
    ) -> dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]]:
        """Evaluate quantized bins in ONE vectorized batch call.

        ``pending`` maps cache keys to ``(evaluation speed, evaluation
        temperature degC, phase pattern)``; the return value maps each key
        to the ``(energy, per-phase list)`` entry the per-miss path would
        have cached.  The timing of every bin comes from one
        :meth:`SensorNode.schedule_table` call, which also decides
        feasibility: keys whose schedule cannot be built (an unsustainable
        exact speed) are left out of the result, and :meth:`_scan_ledger`
        raises such a round's error when the node reaches it while active.
        The batch kernel accumulates in the scalar operation order, so the
        values are bitwise identical to per-miss evaluations — which is what
        lets :meth:`_resolve_rounds` evaluate the *union* of bins over every
        run it resolves, one emulation or a whole fleet population, in one
        call.
        """
        if not pending:
            return {}
        keys = list(pending)
        values = list(pending.values())
        table = self._table_of(values)
        if not table.feasible.all():
            # Rare (a key at the node's feasibility limit): leave out the
            # keys whose schedule cannot be built and sweep the others.
            keep = table.feasible.tolist()
            keys = [key for key, ok in zip(keys, keep) if ok]
            values = [value for value, ok in zip(values, keep) if ok]
            table = self._table_of(values)
        return self._evaluate_table(table, np.array([value[1] for value in values]), keys)

    def _table_of(self, values: list) -> ScheduleTable:
        """The schedule table of ``(speed, temperature, pattern)`` pending values."""
        return self.node.schedule_table(
            [value[0] for value in values], [value[2] for value in values]
        )

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
    ) -> CyclePlan:
        """The memoized plan of ``cycle`` — a warm re-``emulate()`` walks nothing.

        Keyed on the cycle's content, so an in-place edit of
        ``cycle.phases`` misses; the node the walk depends on is covered by
        :meth:`_ensure_caches_fresh`, which clears the memo.
        """
        key = (tuple(cycle.phases), idle_step_s, record_interval_s)
        plan = self._plans.get(key)
        if plan is None:
            plan = self.materialize_cycle(cycle, idle_step_s, record_interval_s)
            if len(self._plans) >= _MAX_PLANS:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = plan
        return plan

    def plan_temperatures(self, plan: CyclePlan, thermal_model: TyreThermalModel) -> np.ndarray:
        """Per-unit temperatures of one thermal run over ``plan``.

        The model is advanced unit by unit from its current state — the
        trajectory a per-revolution loop produces — and left at its
        end-of-cycle state.
        """
        temps = np.empty(len(plan))
        advance = thermal_model.advance
        for i, (duration, speed) in enumerate(zip(plan.durations.tolist(), plan.speeds)):
            temps[i] = advance(duration, speed / 3.6)
        return temps

    def speed_slots(self, plan: CyclePlan) -> tuple[list, np.ndarray]:
        """Resolve the cache speed key of every wheel round of ``plan``.

        The (speed bin, pattern) groups the plan precomputed are classified
        by one :meth:`_classify_speed_keys` call (none on a warm run), then
        :meth:`_speed_key_for` runs once per group.  Groups sharing their
        bin entry become one slot; groups keyed on the exact speed
        (straddling bins, infeasible centers) get one slot per distinct
        exact speed.  Returns ``(slots, round_slot)``: the ``(speed key,
        pattern, evaluation speed, unit)`` entries and each round's index
        into them.  The classification sets change between runs, so this is
        resolved per run, never memoized with the plan.
        """
        groups = plan.groups
        self._classify_speed_keys([key for key, _speed, _unit in groups])
        slots: list[tuple] = []
        group_slot = np.empty(len(groups), dtype=np.intp)
        for group, (key, speed, unit) in enumerate(groups):
            speed_key, eval_speed, use_bin = self._speed_key_for(key, speed)
            group_slot[group] = len(slots) if use_bin else -1
            if use_bin:
                slots.append((speed_key, key[1:], eval_speed, unit))
        round_slot = group_slot[plan.round_groups]
        exact_slots: dict[tuple, int] = {}
        for position in np.flatnonzero(round_slot < 0).tolist():
            unit = int(plan.round_indices[position])
            speed = float(plan.speeds[unit])
            pattern = groups[plan.round_groups[position]][0][1:]
            slot = exact_slots.setdefault((speed, pattern), len(slots))
            if slot == len(slots):
                slots.append((("exact", speed), pattern, speed, unit))
            round_slot[position] = slot
        return slots, round_slot

    def _resolve_rounds(self, requests: list[tuple], bins: dict, store) -> list[RoundResolution]:
        """Resolve the demand side of ``(plan, temperature, thermal model)`` runs.

        One :class:`RoundResolution` per request: a thermal model is advanced
        from its current state over the plan, and without one the run is
        isothermal at ``temperature``.  :meth:`speed_slots` runs once per
        distinct plan; an isothermal request keys every slot on its one
        temperature bin, a thermal one keys its rounds through
        :func:`~repro.core.cycle_plan.energy_keys`.  The distinct keys of all
        requests missing from ``bins`` are evaluated by ONE
        :meth:`evaluate_energy_bins` call, and each swept entry is handed to
        ``store``.  Bin keys always build (bin centers that cannot were
        re-keyed when classified), so a key left out of the sweep is an
        exact speed whose schedule cannot be built: its rounds stay
        unresolved and draw 0, and :meth:`_scan_ledger` raises if the node
        reaches one while active.
        """
        low, high = TEMPERATURE_RANGE_C
        slots_of: dict[int, tuple] = {}
        numbers: dict = {}  # every distinct key of the requests -> its position
        values: list = []  # per position: the cached entry, or None
        pending: dict = {}  # the keys to sweep -> their evaluation points
        staged = []
        for plan, temperature, thermal_model in requests:
            if id(plan) not in slots_of:
                slots_of[id(plan)] = self.speed_slots(plan)
            slots, round_slot = slots_of[id(plan)]
            if thermal_model is None:
                temps = float(temperature)
                end = len(plan) if low <= temps <= high else 0
                sleep = self._standstill_power(temps) if end else 0.0
                # Every round keys on the one temperature bin (none does when
                # ``end`` is 0), so the keys are the slots'.
                temp_bin = temperature_bin(temps) if end else 0
                keys = [(slot[0], temp_bin, *slot[1]) for slot in slots] if end else []
                key_slots = range(len(keys))
                inverse = round_slot if end else round_slot[:0]
            else:
                temps = self.plan_temperatures(plan, thermal_model)
                in_range = (temps >= low) & (temps <= high)
                end = len(plan) if in_range.all() else int(np.argmin(in_range))
                # Resting power through the standstill memo, per temperature bin.
                temp_bins, unit_bin = np.unique(temperature_bins(temps[:end]), return_inverse=True)
                sleep = np.zeros(len(plan))
                sleep[:end] = np.array(
                    [self._standstill_power(temperature_bin_center_c(int(b))) for b in temp_bins]
                )[unit_bin]
                rounds = plan.round_indices[: np.searchsorted(plan.round_indices, end)]
                keys, key_slots, inverse = energy_keys(
                    slots, round_slot[: len(rounds)], temperature_bins(temps[rounds])
                )
            # Number the keys in first-appearance order; each round indexes
            # its key's number through ``inverse``.
            first = len(numbers)
            key_numbers = np.array([numbers.setdefault(k, len(numbers)) for k in keys], np.intp)
            # A key new to this call is looked up now, before ``store`` can
            # clear a capped cache; a miss is swept at its slot's evaluation
            # speed and pattern and its temperature bin's center.
            for position in np.flatnonzero(key_numbers >= first).tolist():
                key = keys[position]
                values.append(bins.get(key))
                if values[-1] is None:
                    _speed_key, pattern, speed = slots[key_slots[position]][:3]
                    pending[key] = (speed, temperature_bin_center_c(key[1]), pattern)
            staged.append((plan, temps, end, sleep, key_numbers, inverse))

        if pending:  # a warm run sweeps nothing
            for key, value in self.evaluate_energy_bins(pending).items():
                values[numbers[key]] = value
                store(key, value)
        energies = np.array([value[0] if value else 0.0 for value in values])
        resolved = np.array([value is not None for value in values], dtype=bool)
        resolutions = []
        # A value index counts in its request's own keys, so the isothermal
        # requests of one plan (sharing ``inverse``, the plan's round slots)
        # share one value index when every key resolved.
        shared: dict[int, np.ndarray] = {}
        for plan, temps, end, sleep, key_numbers, inverse in staged:
            rounds = plan.round_indices
            key_resolved = resolved[key_numbers]
            checked = end < len(plan) or not key_resolved.all()
            value_index = None if checked else shared.get(id(inverse))
            if value_index is None:
                value_index = np.full(len(plan), -1, dtype=np.intp)
                value_index[rounds[: len(inverse)]] = np.where(key_resolved[inverse], inverse, -1)
                value_index.setflags(write=False)
                if not checked:
                    shared[id(inverse)] = value_index
            # Unresolved rounds (index -1) read the trailing 0.0: the first
            # one the node reaches while active raises in the scan, so that
            # load is never drawn.
            round_energies = np.append(energies[key_numbers], 0.0)[value_index[rounds]]
            load = unit_load(self.node.pmu, plan, round_energies, sleep)
            load.setflags(write=False)
            request_values = list(map(values.__getitem__, key_numbers.tolist()))
            resolutions.append(
                RoundResolution(plan, temps, end, request_values, value_index, sleep, load, checked)
            )
        return resolutions

    def _scan_ledger(
        self, resolution: RoundResolution, storage: StorageElement, harvest: np.ndarray
    ) -> StorageTrajectory:
        """Integrate the ledger over units ``[0, end)``; raise the scalar path's error.

        ONE :func:`repro.scavenger.storage.trajectory` call over the
        per-unit ``harvest`` and the resolution's load, from ``storage``'s
        own (construction-validated) initial charge; ``storage`` is not
        mutated.  When the scan can raise (``resolution.checked``), the
        first unresolved round the node reaches while active raises through
        :meth:`_revolution_energy`: every earlier one was passed browned
        out, so the ledger up to it is exact.  Otherwise a scan cut short
        raises through :meth:`_standstill_power` on unit ``end``.
        :meth:`emulate` and the fleet runner both scan here, so the two raise
        the same errors at the same units.
        """
        plan, end = resolution.plan, resolution.end
        # initial_charge_j=None replays the element's own (already
        # validated) initial charge without the per-call range check.
        traj = trajectory(
            storage,
            harvest[:end],
            resolution.load[:end],
            plan.durations[:end],
            initially_active=not storage.is_depleted,
        )
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
        energies of the missing quantized bins come from ONE
        :meth:`evaluate_energy_bins` sweep (:meth:`_resolve_rounds`, the
        resolution the fleet runner uses too), the harvest of every wheel
        round from one ``energy_sweep_j`` call, and the state of charge is
        integrated by ONE call of the pure
        :func:`repro.scavenger.storage.trajectory` kernel.  Errors keep the
        scalar path's timing: the kernel runs up to the first unit outside
        the modelled temperature range, and a round whose schedule cannot
        be built raises only if the node reaches it while active; the first
        such event raises (:meth:`_scan_ledger`).

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
        # The energy and standstill caches are intentionally NOT cleared on
        # every run: cached values are pure functions of their quantized keys
        # (both caches evaluate at bin-representative conditions), so entries
        # stay valid across runs and repeated emulations start warm.  The one
        # invalidating event — an in-place mutation of the database — is
        # detected via its version counter.
        self._ensure_caches_fresh()
        plan = self._plan_for(cycle, idle_step_s, record_interval_s)
        (resolution,) = self._resolve_rounds(
            [(plan, self.base_point.temperature_c, self.thermal_model)],
            self._energy_cache,
            self._store_energy,
        )
        harvest = round_harvest(self.scavenger, plan)
        traj = self._scan_ledger(resolution, self.storage, harvest)
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
        rounds play their cached phase list, rounds the node slept through
        are "inactive", brown-out rounds record nothing, and idle units
        record the standstill floor (or "inactive" once the node is down).
        """
        window_start, window_end = trace_window
        plan, values, value_index = resolution.plan, resolution.values, resolution.value_index
        sleep_power = np.broadcast_to(resolution.sleep_power, plan.durations.shape)
        in_window = (plan.starts < window_end) & (plan.ends > window_start)
        for i in np.flatnonzero(in_window).tolist():
            start_s = float(plan.starts[i])
            duration = float(plan.durations[i])
            if plan.is_round[i]:
                withdrew = bool(traj.withdrew[i])
                if withdrew or not traj.attempted[i]:
                    phases = values[value_index[i]][1] if withdrew else ()
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
