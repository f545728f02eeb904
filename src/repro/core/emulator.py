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
from repro.errors import ConfigurationError, EmulationError, ScheduleError
from repro.power.database import PowerDatabase
from repro.scavenger.base import EnergyScavenger
from repro.scavenger.storage import (
    StorageElement,
    StorageTrajectory,
    deposit_step,
    leak_step,
    trajectory,
    withdraw_step,
)
from repro.timing.schedule import RevolutionSchedule
from repro.timing.wheel_round import WheelRound, iter_wheel_rounds
from repro.vehicle.drive_cycle import DriveCycle

#: Quantization used by the revolution-energy cache: speeds within
#: ``SPEED_QUANTUM_KMH`` and temperatures within ``TEMPERATURE_QUANTUM_C``
#: share a cache entry.  The quanta (and the bin arithmetic) are
#: single-sourced in :mod:`repro.core.quantize` so consumers that share bins
#: across emulators — the fleet runner's cross-vehicle sweep — can never
#: drift from the cache keys used here.
from repro.core.quantize import (
    SPEED_QUANTUM_KMH as _SPEED_QUANTUM_KMH,  # noqa: F401  (compatibility re-export)
    TEMPERATURE_QUANTUM_C as _TEMPERATURE_QUANTUM_C,
)

#: Upper bound on revolution-energy cache entries.  Ordinary cycles produce a
#: few dozen (binned) entries; only exact-keyed boundary/sub-quantum rounds
#: with continuously varying speeds can accumulate, and the cap keeps the
#: run-persistent cache from growing without bound over an emulator's life.
_MAX_ENERGY_CACHE_ENTRIES = 65536

#: Upper bound on the number of bins the pre-integration batch prefill
#: collects from one drive cycle.  Cycles with more unique quantized bins
#: (pathological continuously-varying boundary speeds) fill the remainder
#: through the ordinary per-miss path inside the integration loop.
_MAX_PREFILL_KEYS = 8192


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
        #: (speed bin, phase pattern) keys whose bin-*center* schedule proved
        #: infeasible (feasibility is a step function of speed, so the center
        #: can fail while the upper edge passes); keyed per pattern so one
        #: pattern's infeasible center never forces other patterns in the
        #: same bin off their valid bin entries.
        self._infeasible_center_keys: set[tuple] = set()
        #: (speed bin, phase pattern) keys whose schedule was validated at
        #: the bin's *upper edge*: every speed that rounds into the bin is
        #: then covered by one schedule build (up to sub-quantum feasibility
        #: pockets, the same approximation class as the energy quantization
        #: itself — and a deterministic one, so warm and fresh emulators
        #: always agree).
        self._trusted_speed_keys: set[tuple] = set()
        #: (speed bin, phase pattern) keys whose upper edge is infeasible:
        #: these straddle the node's feasibility limit, so their rounds are
        #: evaluated and keyed on the exact speed — an unsustainable actual
        #: speed then raises naturally on its own schedule build.
        self._exact_speed_keys: set[tuple] = set()
        #: (id(cycle), idle step) pairs whose prefill pre-scan completed
        #: against the current caches; re-scanning them would walk the whole
        #: cycle to find nothing pending (see ``_prefill_energy_cache``).
        self._prefilled_cycles: set[tuple] = set()
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
            self._infeasible_center_keys.clear()
            self._trusted_speed_keys.clear()
            self._exact_speed_keys.clear()
            self._prefilled_cycles.clear()
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

    def _speed_key_for(
        self, speed_kmh: float, revolution_index: int, pattern: tuple[bool, bool, bool]
    ) -> tuple[object, float, bool]:
        """Resolve the cache speed key of one revolution.

        Returns ``(speed_key, evaluation_speed, use_bin)``.  Bin 0 has no
        positive representative speed, and bins whose center proved
        infeasible are memoized; both are keyed on the exact speed instead —
        the cached value stays a pure function of the key either way.  Exact
        keys are tagged so they can never collide with an int bin key
        (Python dicts treat 999 and 999.0 as the same key).
        """
        bin_index = speed_bin(speed_kmh)
        pattern_key = (bin_index, *pattern)
        use_bin = bin_index > 0 and pattern_key not in self._infeasible_center_keys
        if use_bin and pattern_key not in self._trusted_speed_keys:
            if pattern_key in self._exact_speed_keys:
                use_bin = False
            else:
                # Classify the (bin, pattern) once, with one schedule build
                # at the bin's upper edge: feasible there means every speed
                # that rounds into the bin is safe to share the bin entry;
                # infeasible means the bin straddles the node's feasibility
                # limit and its rounds must be handled exactly.  The
                # classification depends only on the key, so warm and fresh
                # emulators always agree.
                upper_edge = speed_bin_upper_edge_kmh(bin_index)
                try:
                    self.node.schedule_for(upper_edge, revolution_index)
                    self._trusted_speed_keys.add(pattern_key)
                except ScheduleError:
                    self._exact_speed_keys.add(pattern_key)
                    use_bin = False
        if use_bin:
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
            self._prefilled_cycles.clear()
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
        speed_key, speed, use_bin = self._speed_key_for(
            unit.speed_kmh, unit.index, pattern
        )
        key = (speed_key, temp_bin, *pattern)
        cached = self._energy_cache.get(key)
        if cached is not None:
            return cached

        # Cache miss: evaluate at the bin-representative speed/temperature so
        # the cached value is a pure function of the key — results cannot
        # depend on which conditions inside the bin an earlier run saw first,
        # even though the cache persists across emulate() runs.
        if use_bin:
            try:
                schedule = self.node.schedule_for(speed, unit.index)
            except ScheduleError:
                # The bin center rounded just past the node's feasibility
                # limit for this phase pattern (the upper edge was validated
                # above): memoize the (bin, pattern) so later rounds skip
                # the doomed attempt, and key this round on its exact speed.
                schedule = self.node.schedule_for(unit.speed_kmh, unit.index)
                self._infeasible_center_keys.add((speed_key, *pattern))
                speed = unit.speed_kmh
                key = (("exact", speed), temp_bin, *pattern)
                cached = self._energy_cache.get(key)
                if cached is not None:
                    return cached
        else:
            schedule = self.node.schedule_for(speed, unit.index)
        point = self._operating_point(speed, temperature_bin_center_c(temp_bin))
        # The evaluation runs through the compiled power table (one vectorized
        # pass over all (block, mode) rows) instead of the scalar
        # per-phase-per-block dataclass path.
        value = self.evaluator.schedule_energy_compiled(schedule, point)
        self._store_energy(key, value)
        return value

    def _pending_energy_bins(
        self, cycle: DriveCycle, idle_step_s: float
    ) -> dict[tuple, tuple[float, float, RevolutionSchedule]]:
        """Pre-scan the cycle for uncached quantized bins and their schedules.

        Walks the drive cycle once (advancing — and afterwards resetting —
        the thermal model exactly like the integration loop will) and
        collects the unique quantized (speed, temperature, phase-pattern)
        bins that are not cached yet, as ``key -> (evaluation speed,
        evaluation temperature degC, schedule)``.  One schedule object is
        shared per unique (speed, pattern): keys differing only in
        temperature bin then group into one vectorized accumulation in the
        batch kernel instead of N width-1 ones.

        Bins whose schedule cannot be built (an unsustainable speed, an
        out-of-range temperature) are deliberately skipped so the
        integration loop raises at exactly the same simulated instant it
        always did.
        """
        pending: dict[tuple, tuple[float, float, RevolutionSchedule]] = {}
        built: dict[tuple, RevolutionSchedule] = {}
        temperature_c = (
            self.thermal_model.current_celsius
            if self.thermal_model is not None
            else self.base_point.temperature_c
        )
        for unit in iter_wheel_rounds(cycle, self.node.wheel, idle_step_s=idle_step_s):
            duration = (
                unit.period_s if isinstance(unit, WheelRound) else unit.duration_s
            )
            speed = unit.speed_kmh if isinstance(unit, WheelRound) else 0.0
            if self.thermal_model is not None:
                temperature_c = self.thermal_model.advance(duration, speed / 3.6)
            if not isinstance(unit, WheelRound):
                continue
            if len(pending) >= _MAX_PREFILL_KEYS:
                break
            pattern = self.node.phase_pattern(unit.index)
            try:
                temp_bin = self._temperature_bin(temperature_c)
            except ConfigurationError:
                # Out-of-range temperature: the integration loop must raise
                # on this round itself, not the prefill.
                break
            speed_key, eval_speed, _use_bin = self._speed_key_for(
                unit.speed_kmh, unit.index, pattern
            )
            key = (speed_key, temp_bin, *pattern)
            if key in self._energy_cache or key in pending:
                continue
            schedule_key = (eval_speed, *pattern)
            schedule = built.get(schedule_key)
            if schedule is None:
                try:
                    schedule = self.node.schedule_for(eval_speed, unit.index)
                except ScheduleError:
                    # Bin-center infeasibility (or an unsustainable exact
                    # speed): leave the round to the integration loop, which
                    # handles the fallback — and the error timing — exactly
                    # as before.
                    continue
                built[schedule_key] = schedule
            pending[key] = (
                eval_speed,
                temperature_bin_center_c(temp_bin),
                schedule,
            )
        if self.thermal_model is not None:
            self.thermal_model.reset()
        return pending

    def _prefill_energy_cache(self, cycle: DriveCycle, idle_step_s: float) -> int:
        """Fill the revolution-energy cache with ONE batch call before the loop.

        The bins come from :meth:`_pending_energy_bins`; all of them are
        evaluated through ``EnergyEvaluator._schedule_energy_batch`` in a
        single vectorized pass.  Cached values are pure functions of their
        keys, so prefilled entries are indistinguishable from per-miss
        entries: the integration loop produces byte-identical results either
        way, just without thousands of scalar cache-miss evaluations.

        A cycle object whose scan already completed against the current
        caches is remembered and not re-scanned: on a warm emulator the
        pre-scan would walk every wheel round only to find nothing pending.
        (Skipping a prefill can never change results — it is purely an
        optimization — so the identity-keyed memo is safe even if a caller
        mutates the cycle in place.)

        Returns the number of prefilled cache entries.
        """
        memo_key = (id(cycle), idle_step_s)
        if memo_key in self._prefilled_cycles:
            return 0
        pending = self._pending_energy_bins(cycle, idle_step_s)
        if len(pending) < _MAX_PREFILL_KEYS:
            # The scan covered the whole cycle: a later run with the same
            # (unchanged) caches has nothing left to discover.
            self._prefilled_cycles.add(memo_key)
        if not pending:
            return 0

        for key, value in self.evaluate_energy_bins(pending).items():
            self._store_energy(key, value)
        return len(pending)

    def evaluate_energy_bins(
        self, pending: Mapping[tuple, tuple[float, float, RevolutionSchedule]]
    ) -> dict[tuple, tuple[float, tuple[tuple[str, float, float], ...]]]:
        """Evaluate quantized bins in ONE vectorized batch call.

        ``pending`` maps cache keys to ``(evaluation speed, evaluation
        temperature degC, schedule)`` exactly as produced by
        :meth:`_pending_energy_bins`; the return value maps each key to the
        ``(energy, per-phase list)`` entry the per-miss path would have
        cached.  The batch kernel accumulates in the scalar operation order,
        so the values are bitwise identical to per-miss evaluations — which
        is what lets the fleet runner evaluate the *union* of bins across a
        whole vehicle population once and hand the entries to every
        vehicle's emulator (:meth:`seed_energy_cache`).
        """
        if not pending:
            return {}
        keys = list(pending)
        speeds = np.array([pending[key][0] for key in keys])
        temperatures = np.array([pending[key][1] for key in keys])
        schedules = [pending[key][2] for key in keys]
        batch = BatchConditions.from_arrays(
            speeds, temperatures, base_point=self.base_point
        )
        energies, phase_lists = self.evaluator._schedule_energy_batch(
            batch, schedules, include_phases=True
        )
        return {
            key: (float(energies[position]), phase_lists[position])
            for position, key in enumerate(keys)
        }

    def seed_energy_cache(
        self,
        entries: Mapping[tuple, tuple[float, tuple[tuple[str, float, float], ...]]],
    ) -> int:
        """Pre-load revolution-energy cache entries computed elsewhere.

        Entries must come from an emulator with the same node, database
        coefficients and supply/process conditions (cached values are pure
        functions of their quantized keys under those inputs); the fleet
        runner uses this to share one cross-vehicle bin sweep between all
        vehicles of a group.  Returns the number of entries accepted.  The
        cache-size cap is honoured entry by entry, exactly like per-miss
        inserts.
        """
        self._ensure_caches_fresh()
        for key, value in entries.items():
            self._store_energy(key, value)
        return len(entries)

    def _record_trace_revolution(
        self,
        trace: PowerTrace,
        unit: WheelRound,
        phases: tuple[tuple[str, float, float], ...],
        active: bool,
        sleep_power_w: float,
    ) -> None:
        if not active:
            trace.append(unit.start_s, unit.period_s, 0.0, "inactive")
            return
        cursor = unit.start_s
        for label, duration, power in phases:
            duration = min(duration, unit.end_s - cursor)
            if duration <= 0.0:
                break
            trace.append(cursor, duration, power, label)
            cursor += duration
        if cursor < unit.end_s - 1e-12:
            trace.append(cursor, unit.end_s - cursor, sleep_power_w, "sleep")

    # -- array-based integration core ------------------------------------------------

    #: Sentinel for :meth:`_collect_cycle`: "walk with the emulator's own
    #: thermal model" (``None`` must stay expressible — it means constant
    #: temperature regardless of ``self.thermal_model``).
    _OWN_THERMAL = object()

    def _collect_cycle(
        self, cycle: DriveCycle, idle_step_s: float, thermal_model=_OWN_THERMAL
    ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Materialize the cycle as per-unit arrays (one walk, thermal replay).

        Returns ``(units, is_round, durations, speeds, ends, temps)``.  The
        thermal model is advanced through the whole cycle here — exactly the
        trajectory the old per-revolution loop produced — and left at its
        end-of-cycle state.  ``thermal_model`` overrides the emulator's own
        model for this walk (the fleet runner replays one freshly-built model
        per thermal cohort through a shared probe emulator); the default
        keeps ``self.thermal_model``.
        """
        units = list(iter_wheel_rounds(cycle, self.node.wheel, idle_step_s=idle_step_s))
        count = len(units)
        is_round = np.empty(count, dtype=bool)
        durations = np.empty(count)
        speeds = np.zeros(count)
        ends = np.empty(count)
        temps = np.empty(count)
        thermal = (
            self.thermal_model if thermal_model is self._OWN_THERMAL else thermal_model
        )
        temperature_c = (
            thermal.current_celsius if thermal is not None else self.base_point.temperature_c
        )
        for i, unit in enumerate(units):
            if isinstance(unit, WheelRound):
                is_round[i] = True
                durations[i] = unit.period_s
                speeds[i] = unit.speed_kmh
            else:
                is_round[i] = False
                durations[i] = unit.duration_s
            ends[i] = unit.end_s
            if thermal is not None:
                temperature_c = thermal.advance(float(durations[i]), speeds[i] / 3.6)
            temps[i] = temperature_c
        return units, is_round, durations, speeds, ends, temps

    def materialize_cycle(
        self,
        cycle: DriveCycle,
        idle_step_s: float = 1.0,
        thermal_model: TyreThermalModel | None = None,
    ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One cycle walk as per-unit arrays — the reusable cohort pass.

        Returns ``(units, is_round, durations, speeds, ends, temps)``,
        exactly the arrays :meth:`emulate` integrates: the same wheel-round
        walk, and — when ``thermal_model`` is given — the same thermal
        trajectory a per-vehicle ``emulate()`` with that model would
        produce, advance call for advance call.  The fleet runner replays
        this once per (cycle, speed-scale, ambient-bin) cohort through a
        shared probe emulator instead of once per vehicle; ``thermal_model``
        should be freshly built (or reset) — the walk starts from its
        current state and leaves it at the end-of-cycle state.

        With ``thermal_model=None`` the walk is isothermal at the base
        point's temperature even if the emulator owns a thermal model (an
        explicit request for the constant-temperature arrays).
        """
        return self._collect_cycle(cycle, idle_step_s, thermal_model=thermal_model)

    def _resolve_round_energies(
        self,
        units: list,
        is_round: np.ndarray,
        temps: np.ndarray,
    ) -> tuple[np.ndarray, list, np.ndarray]:
        """Gather each wheel round's cached revolution energy, where available.

        Returns ``(energies, phase_lists, resolved)``: per-unit energy (NaN
        where unknown), the per-phase tuples of resolved rounds, and the
        resolution mask.  After a prefill every feasible bin is already
        cached, so this is normally a pure dict-gather; rounds whose bin is
        uncached (boundary speeds past the prefill cap, infeasible centers)
        stay unresolved and are evaluated inside the integration loop only
        when the node is actually active — preserving the scalar path's
        error timing exactly.
        """
        count = len(units)
        energies = np.full(count, np.nan)
        phase_lists: list = [None] * count
        resolved = np.zeros(count, dtype=bool)
        low, high = TEMPERATURE_RANGE_C
        cache = self._energy_cache
        for i in np.flatnonzero(is_round):
            temperature_c = float(temps[i])
            if not low <= temperature_c <= high:
                # The loop must raise on this round itself (via the
                # standstill evaluation), not the pre-pass.
                continue
            unit = units[i]
            pattern = self.node.phase_pattern(unit.index)
            speed_key, _speed, _use_bin = self._speed_key_for(
                unit.speed_kmh, unit.index, pattern
            )
            key = (speed_key, temperature_bin(temperature_c), *pattern)
            cached = cache.get(key)
            if cached is not None:
                energies[i] = cached[0]
                phase_lists[i] = cached[1]
                resolved[i] = True
        return energies, phase_lists, resolved

    def _standstill_power_sweep(self, temps: np.ndarray) -> np.ndarray:
        """Per-unit resting-mode power via the quantized standstill memo."""
        bins, inverse = np.unique(temperature_bins(temps), return_inverse=True)
        per_bin = np.array(
            [self._standstill_power(temperature_bin_center_c(int(b))) for b in bins]
        )
        return per_bin[inverse]

    def _integrate_stepwise(
        self,
        units: list,
        is_round: np.ndarray,
        durations: np.ndarray,
        temps: np.ndarray,
        harvest: np.ndarray,
        energies: np.ndarray,
        phase_lists: list,
        resolved: np.ndarray,
    ) -> tuple[StorageTrajectory, np.ndarray]:
        """Reference integration loop for cycles the pure kernel cannot cover.

        Used when some rounds have unresolved revolution energies (evaluated
        here only while the node is active, so infeasible speeds keep raising
        at exactly the simulated instant the scalar path raised) or when a
        temperature leaves the modelled range (the standstill evaluation
        raises on the offending unit).  The ledger arithmetic goes through
        the same storage step primitives as :func:`repro.scavenger.storage.trajectory`,
        so both integration paths produce byte-identical trajectories.

        Returns the trajectory plus the (possibly lazily filled) per-unit
        sleep-power array.
        """
        storage = self.storage
        count = len(units)
        charge = storage.initial_charge_j
        active = not storage.is_depleted
        capacity = storage.capacity_j
        restart = storage.restart_level_j
        charge_eff = storage.charge_efficiency
        discharge_eff = storage.discharge_efficiency
        self_discharge_w = storage.self_discharge_w
        pmu = self.node.pmu

        sleep_power = np.empty(count)
        charge_out = np.empty(count)
        active_out = np.empty(count, dtype=bool)
        banked_out = np.empty(count)
        drawn_out = np.zeros(count)
        attempted = np.zeros(count, dtype=bool)
        withdrew = np.zeros(count, dtype=bool)
        brownouts = 0
        for i in range(count):
            temperature_c = float(temps[i])
            # May raise for an out-of-range temperature — on the same unit,
            # in the same loop position, as the scalar path did.
            sleep_power[i] = self._standstill_power(temperature_c)
            duration = float(durations[i])
            if not active and charge >= restart:
                active = True
            if is_round[i]:
                charge, banked_out[i] = deposit_step(
                    charge, harvest[i] * charge_eff, capacity
                )
                if active:
                    attempted[i] = True
                    if resolved[i]:
                        energy = float(energies[i])
                    else:
                        energy, phases = self._revolution_energy(
                            units[i], temperature_c
                        )
                        energies[i] = energy
                        phase_lists[i] = phases
                        resolved[i] = True
                    load = pmu.referred_to_storage(energy)
                    charge, success = withdraw_step(charge, load / discharge_eff)
                    if success:
                        withdrew[i] = True
                        drawn_out[i] = load
                    else:
                        active = False
                        brownouts += 1
            else:
                banked_out[i] = 0.0
                if active:
                    attempted[i] = True
                    load = pmu.referred_to_storage(float(sleep_power[i]) * duration)
                    charge, success = withdraw_step(charge, load / discharge_eff)
                    if success:
                        withdrew[i] = True
                        drawn_out[i] = load
                    else:
                        active = False
                        brownouts += 1
            charge, _loss = leak_step(charge, self_discharge_w * duration)
            charge_out[i] = charge
            active_out[i] = active
        traj = StorageTrajectory(
            charge_j=charge_out,
            active=active_out,
            banked_j=banked_out,
            drawn_j=drawn_out,
            attempted=attempted,
            withdrew=withdrew,
            brownout_events=brownouts,
            final_charge_j=float(charge),
        )
        return traj, sleep_power

    # -- main entry point ----------------------------------------------------------------

    def emulate(
        self,
        cycle: DriveCycle,
        record_interval_s: float = 1.0,
        trace_window: tuple[float, float] | None = None,
        idle_step_s: float = 1.0,
        prefill: bool = True,
    ) -> EmulationResult:
        """Run the emulation over ``cycle``.

        The integration consumes precomputed per-round arrays end to end: the
        cycle is materialized once (:meth:`_collect_cycle`), the scavenger
        output of every wheel round comes from ONE vectorized
        ``energy_sweep_j`` call, the revolution energies are gathered from
        the (batch-prefilled) cache, and the state of charge is integrated by
        the pure :func:`repro.scavenger.storage.trajectory` kernel.  Cycles
        the kernel cannot cover — uncached bins whose evaluation must stay
        lazy, out-of-range temperatures — fall back to a stepwise loop built
        on the same storage step primitives; both paths are byte-identical
        (asserted by the prefill/cache-cap regression tests, since
        ``prefill=False`` on a cold emulator exercises the stepwise path).

        Args:
            cycle: the cruising-speed profile.
            record_interval_s: sampling interval of the state-of-charge /
                activity log.
            trace_window: optional ``(start_s, end_s)`` window over which the
                instant-power trace (Fig. 3) is recorded.
            idle_step_s: time step used while the vehicle is stationary.
            prefill: pre-scan the cycle and fill the revolution-energy cache
                with one vectorized batch call before the state-of-charge
                integration (see :meth:`_prefill_energy_cache`).  The result
                is byte-identical with or without prefill — the flag exists
                for benchmarking and regression tests.

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
        if prefill:
            self._prefill_energy_cache(cycle, idle_step_s)

        units, is_round, durations, speeds, ends, temps = self._collect_cycle(
            cycle, idle_step_s
        )
        round_indices = np.flatnonzero(is_round)

        # Supply side: every wheel round's harvest in one vectorized sweep.
        harvest = np.zeros(len(units))
        harvest[round_indices] = self.scavenger.energy_sweep_j(speeds[round_indices])
        if np.any(harvest < 0.0):
            raise EmulationError("cannot deposit negative energy")

        energies, phase_lists, resolved = self._resolve_round_energies(
            units, is_round, temps
        )

        low_t, high_t = TEMPERATURE_RANGE_C
        temps_in_range = bool(np.all((temps >= low_t) & (temps <= high_t)))
        all_resolved = bool(np.all(resolved[round_indices]))
        if temps_in_range and all_resolved:
            # Pure-kernel path: every per-unit quantity is known up front.
            sleep_power = self._standstill_power_sweep(temps)
            load = np.zeros(len(units))
            load[round_indices] = self.node.pmu.referred_to_storage(
                energies[round_indices]
            )
            idle = ~is_round
            load[idle] = self.node.pmu.referred_to_storage(
                sleep_power[idle] * durations[idle]
            )
            # initial_charge_j=None replays the element's own (already
            # validated) initial charge without the per-call range check.
            traj = trajectory(
                self.storage,
                harvest,
                load,
                durations,
                initially_active=not self.storage.is_depleted,
            )
        else:
            traj, sleep_power = self._integrate_stepwise(
                units,
                is_round,
                durations,
                temps,
                harvest,
                energies,
                phase_lists,
                resolved,
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
        result.revolutions = int(is_round.sum())
        result.moving_time_s = float(durations[is_round].sum())
        result.harvested_j = float(traj.banked_j.sum())
        result.discarded_j = float(np.maximum(0.0, harvest - traj.banked_j).sum())
        result.consumed_j = float(traj.drawn_j.sum())
        result.active_revolutions = int((is_round & traj.withdrew).sum())
        result.active_time_s = float(durations[traj.withdrew].sum())
        result.brownout_events = traj.brownout_events

        # State log: same per-unit sampling walk, reading the trajectory.
        capacity = self.storage.capacity_j
        next_record_s = 0.0
        log = result.log
        charge_out = traj.charge_j
        active_out = traj.active
        for i in range(len(units)):
            end_time = ends[i]
            while next_record_s <= end_time:
                log.append(
                    next_record_s,
                    speeds[i],
                    temps[i],
                    charge_out[i] / capacity,
                    bool(active_out[i]),
                )
                next_record_s += record_interval_s

        if result.trace is not None and trace_window is not None:
            self._record_trace(
                result.trace,
                trace_window,
                units,
                is_round,
                durations,
                traj,
                phase_lists,
                sleep_power,
            )
            if not result.trace.is_empty:
                result.trace = result.trace.windowed(*trace_window)
        return result

    def _record_trace(
        self,
        trace: PowerTrace,
        trace_window: tuple[float, float],
        units: list,
        is_round: np.ndarray,
        durations: np.ndarray,
        traj: StorageTrajectory,
        phase_lists: list,
        sleep_power: np.ndarray,
    ) -> None:
        """Reconstruct the instant-power trace from the integration arrays.

        Entry for entry what the per-revolution loop recorded: successful
        rounds play their cached phase list, rounds the node slept through
        are "inactive", brown-out rounds record nothing, and idle units
        record the standstill floor (or "inactive" once the node is down).
        """
        window_start, window_end = trace_window
        for i, unit in enumerate(units):
            if not (unit.start_s < window_end and unit.end_s > window_start):
                continue
            if is_round[i]:
                if traj.withdrew[i]:
                    self._record_trace_revolution(
                        trace, unit, phase_lists[i], True, float(sleep_power[i])
                    )
                elif not traj.attempted[i]:
                    self._record_trace_revolution(
                        trace, unit, (), False, float(sleep_power[i])
                    )
            else:
                active = bool(traj.active[i])
                trace.append(
                    unit.start_s,
                    float(durations[i]),
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
            unit = WheelRound(
                index=revolution, start_s=time_s, period_s=period, speed_kmh=speed_kmh
            )
            pattern = (
                self.node.radio.transmits(revolution),
                self.node.sensors.refreshes_slow_sensors(revolution),
                self.node.memory.writes_nvm(revolution),
            )
            cached = pattern_cache.get(pattern)
            if cached is None:
                cached = self.evaluator.schedule_energy_compiled(
                    self.node.schedule_for(speed_kmh, revolution), point
                )
                pattern_cache[pattern] = cached
            _, phases = cached
            self._record_trace_revolution(trace, unit, phases, True, sleep_power)
            time_s += period
            revolution += 1
        return trace.windowed(0.0, window_s)
