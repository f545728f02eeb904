"""The fleet runner: cohort-shared emulation of a whole vehicle population.

Running ``NodeEmulator.emulate()`` once per vehicle is correct but wasteful
at fleet scale: every vehicle would rebuild the evaluator, re-walk its drive
cycle and re-evaluate the same revolution energies.  The runner shares all
of that across the population:

* **Groups** — vehicles with the same (architecture, workload, power
  database) share one :class:`~repro.core.evaluator.EnergyEvaluator` and
  therefore one compiled power table, exactly like study grid points.
* **Cohorts** — vehicles with the same (group, drive cycle, quantized speed
  scale) share one cycle plan: the emulator's own
  :class:`~repro.core.cycle_plan.CyclePlan` (per-unit arrays, per-round
  speed-bin groups, state-log sampling walk), built and resolved through a
  probe emulator exactly as ``emulate()`` resolves it.  Thermal fleets
  (``FleetSpec.thermal``) add the quantized ambient as a third cohort axis:
  the in-tyre :class:`~repro.conditions.temperature.TyreThermalModel` is
  replayed once per (cycle, speed-scale, ambient-bin) cohort — ambients are
  snapped to the shared :func:`~repro.core.quantize.ambient_bin` centers at
  materialization — so the fast path survives thermally realistic
  populations.
* **One cross-vehicle sweep** — the union of quantized (speed, temperature,
  phase-pattern) energy bins over all vehicles of a group is evaluated in
  ONE :meth:`~repro.core.emulator.NodeEmulator.evaluate_energy_bins` call
  before any emulation starts; the batch kernel is bitwise-identical to the
  per-miss path, so shared bins cannot change results.  The per-cohort
  demand side is then gathered once: a full per-unit load vector for
  thermal cohorts, a per-(cohort, temperature-bin) energy array for
  constant ones.

Each vehicle then reduces to its harvest sweep and load gather inside the
engine's retried kernel (:func:`_cohort_vehicle_outcome`: everything that
can fail).  Once a chunk has settled, each of its vehicles' ledgers is
replayed by :func:`~repro.scavenger.storage.trajectory` — the run-length
scan ``emulate()`` uses, which advances event-free stretches with one numpy
accumulate — before the chunk is journaled or streamed; process-backend
workers scan in the worker and return finished outcomes.  Per-vehicle
figures are bit-identical to a naive ``emulate()`` of the same vehicle
scenario (the throughput benchmark asserts it), so the aggregates are
independent of chunking, worker counts and backends.

Cohorts the shared path cannot cover — a speed bin whose schedule cannot be
built, or a thermal trajectory that leaves the modelled temperature range —
fall back to the per-vehicle ``emulate()`` with the shared bins seeded into
its cache, so error timing and results stay exactly the scalar path's.  The
path every vehicle took is counted on the result metadata
(``fast_path_vehicles`` / ``fallback_vehicles`` / ``fallback_reasons``), so
a fast-path regression shows up as a counter, not as a silent slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.core.cycle_plan import energy_keys, round_harvest, unit_load
from repro.core.emulator import EmulationResult, NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.core.quantize import (
    AMBIENT_QUANTUM_C,
    SPEED_QUANTUM_KMH,
    TEMPERATURE_QUANTUM_C,
    ambient_bin,
    temperature_bin,
    temperature_bin_center_c,
    temperature_bins,
)
from repro.errors import ConfigError, EmulationError, ScheduleError
from repro.fleet.aggregate import (
    DEFAULT_SURVIVAL_BUCKETS,
    FleetAccumulator,
    FleetResult,
)
from repro.fleet.spec import FleetSpec, FleetVehicle, ThermalSpec
from repro.scavenger.storage import (
    StorageElement,
    scaled_storage,
    trajectory,
)
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine
from repro.scenario.spec import ScenarioSpec

__all__ = ["FleetRunner", "run_fleet"]


def _group_key(spec: ScenarioSpec) -> str:
    """The evaluator-sharing key of one vehicle scenario.

    Single-sourced on the spec (``ScenarioSpec.evaluator_group_key``) so
    fleet groups can never drift from the study evaluator cache keyed the
    same way.
    """
    return spec.evaluator_group_key()


def _cohort_key(vehicle: FleetVehicle, thermal: ThermalSpec | None = None) -> str:
    """The cycle-materialization key: (group, cycle reference, speed scale).

    Thermal fleets add the quantized ambient bin: the replayed temperature
    trajectory is a function of the ambient, so only vehicles in one
    ambient bin (whose ambients were snapped to the *same* bin-center float
    at materialization) can share one trajectory bitwise.
    """
    key = (_group_key(vehicle.scenario), vehicle.scenario.drive_cycle, vehicle.speed_scale)
    if thermal is not None:
        key += (ambient_bin(vehicle.scenario.temperature_c),)
    return repr(key)


class _CohortTable:
    """Shared per-cohort cycle materialization (read-only after build).

    Holds everything about one (cycle, speed scale[, ambient bin]) pairing
    that does not depend on the individual vehicle: the cycle ``plan`` (the
    per-unit arrays and the state-log sampling walk), the resolved speed
    ``slots`` with each round's index into them, and — for thermal cohorts —
    the rounds' (speed, temperature, pattern) ``triples`` and the per-unit
    sleep power along the replayed temperature trajectory.  ``fallback``
    marks cohorts the fast path cannot cover — ``fallback_reason`` says why
    (``"schedule"``: a bin straddles the node's feasibility limit;
    ``"temperature-range"``: the thermal trajectory leaves the modelled
    range) — their vehicles run the ordinary per-vehicle ``emulate()`` so
    errors surface at exactly the simulated instant the scalar path raises
    them.

    After the cross-vehicle sweep the runner attaches the precomputed
    demand side: ``unit_load`` (thermal cohorts — the full per-unit load
    vector, identical for every member vehicle) or ``energies_by_temp_bin``
    (constant cohorts — one per-slot energy array per temperature bin seen
    in the population).
    """

    __slots__ = (
        "group_key",
        "cycle_name",
        "duration_s",
        "plan",
        "fallback",
        "fallback_reason",
        "thermal",
        "slots",
        "round_slot",
        "sleep_power",
        "triples",
        "round_triple",
        "unit_load",
        "energies_by_temp_bin",
    )

    def __init__(self) -> None:
        self.fallback = False
        self.fallback_reason = None
        self.triples = []
        self.unit_load = None
        self.energies_by_temp_bin = {}


def _build_cohort_table(
    probe: NodeEmulator,
    cycle,
    record_interval_s: float,
    idle_step_s: float,
    schedules: dict,
    thermal_model=None,
) -> _CohortTable:
    """Plan one cohort's cycle through the probe emulator.

    The probe supplies the exact walk (``materialize_cycle``), thermal
    replay (``plan_temperatures``) and speed-key classification
    (``speed_slots``) the per-vehicle ``emulate()`` runs, so the table can
    never drift from it.  ``thermal_model`` — a freshly built model at the
    cohort's bin-center ambient — keeps the per-unit temperature trajectory
    and keys the rounds on full (speed, temperature, phase-pattern) triples
    instead of pinning one temperature bin per vehicle.  ``schedules``
    memoizes the group's slot schedules across its cohorts (a schedule is a
    pure function of the speed key and pattern under one node).
    """
    table = _CohortTable()
    table.cycle_name = cycle.name
    table.duration_s = cycle.duration_s
    table.plan = plan = probe.materialize_cycle(cycle, idle_step_s, record_interval_s)
    table.thermal = thermal_model is not None
    if table.thermal:
        temps = probe.plan_temperatures(plan, thermal_model)
        low_t, high_t = TEMPERATURE_RANGE_C
        if not bool(np.all((temps >= low_t) & (temps <= high_t))):
            # Self-heating pushed the trajectory out of the modelled range:
            # the per-vehicle emulate() path raises on the exact offending
            # unit (stepwise-loop timing), which the fast path cannot
            # reproduce — every member vehicle falls back.
            table.fallback = True
            table.fallback_reason = "temperature-range"
            return table
        table.sleep_power = probe._standstill_power_sweep(temps)
    slots, table.round_slot = probe.speed_slots(plan)
    table.slots = []
    for speed_key, pattern, eval_speed, _unit in slots:
        schedule = schedules.get((speed_key, pattern))
        if schedule is None:
            try:
                schedule = probe.node.schedule_for_pattern(eval_speed, *pattern)
            except ScheduleError:
                # The bin straddles the node's feasibility limit (or the
                # speed is unsustainable): this cohort's vehicles take the
                # per-vehicle emulate() path, which raises — or recovers —
                # with the scalar path's exact timing.
                table.fallback = True
                table.fallback_reason = "schedule"
                return table
            schedules[(speed_key, pattern)] = schedule
        table.slots.append((speed_key, pattern, eval_speed, schedule))
    if table.thermal:
        # One entry per distinct (speed, temperature, pattern) triple plus
        # each round's index into them; triples differing only in
        # temperature share their slot's schedule object, which groups them
        # into one vectorized accumulation in the sweep.
        keys, table.round_triple = energy_keys(
            slots, table.round_slot, temperature_bins(temps[plan.round_indices])
        )
        table.triples = [
            (key, table.slots[slot][2], temperature_bin_center_c(temp_bin), table.slots[slot][3])
            for key, slot, temp_bin in keys
        ]
    return table


def _survival_from_samples(
    times: np.ndarray, active: np.ndarray, duration_s: float, buckets: int
) -> tuple:
    """Per-bucket active fraction of one vehicle's sampled state log.

    Used identically by the cohort fast path (samples reconstructed from the
    trajectory) and the per-vehicle fallback (samples from the recorded
    log), so both paths bucket the same values the same way.
    """
    if times.size == 0 or duration_s <= 0.0:
        return tuple([float("nan")] * buckets)
    index = np.minimum((times / duration_s * buckets).astype(np.intp), buckets - 1)
    counts = np.bincount(index, minlength=buckets)
    active_counts = np.bincount(index, weights=active.astype(float), minlength=buckets)
    with np.errstate(invalid="ignore"):
        fractions = np.where(counts > 0, active_counts / np.maximum(counts, 1), np.nan)
    return tuple(float(value) for value in fractions)


def _vehicle_row(
    vehicle_index: int,
    spec: ScenarioSpec,
    speed_scale: float,
    storage_scale: float,
    result: EmulationResult,
    active_at_end: bool,
) -> dict[str, object]:
    """The per-vehicle result row (identical key order on every path)."""
    summary = result.summary()
    hours = result.duration_s / 3600.0
    row: dict[str, object] = {
        "vehicle": vehicle_index,
        "scenario": spec.name,
        "cycle": result.cycle_name,
        "speed_scale": speed_scale,
        "temperature_c": spec.temperature_c,
        "scavenger_size": spec.scavenger_size,
        "storage_scale": storage_scale,
    }
    row.update(summary)
    row["brownout_per_hour"] = summary["brownout_events"] / hours if hours > 0.0 else float("nan")
    row["active_at_end"] = bool(active_at_end)
    return row


@dataclass(slots=True)
class _PendingScan:
    """One fast-path vehicle between its inputs phase and its ledger scan.

    Holds what :func:`_cohort_vehicle_outcome` built for the vehicle — its
    storage element (parameters only), harvest and load vectors — plus what
    its row needs once :func:`_finish_vehicle` has scanned the ledger.
    """

    vehicle_index: int
    spec: ScenarioSpec
    speed_scale: float
    storage_scale: float
    node_name: str
    table: _CohortTable
    storage: StorageElement
    harvest: np.ndarray
    load: np.ndarray
    buckets: int


def _cohort_vehicle_outcome(
    vehicle_index: int,
    spec: ScenarioSpec,
    speed_scale: float,
    storage_scale: float,
    node,
    table: _CohortTable,
    bins: dict,
    standstill: dict,
    buckets: int,
) -> _PendingScan:
    """One vehicle's ledger inputs through the shared-cohort fast path.

    Mirrors the pure-kernel branch of ``NodeEmulator.emulate()`` operation
    for operation — harvest sweep, bin gather, load referral, the
    negative-energy checks — against the cohort's shared cycle table and the
    group's shared bin store.  The ledger scan and summary follow in
    :func:`_finish_vehicle`, so the figures are bit-identical to a naive
    per-vehicle ``emulate()`` (with the fleet's thermal model, for thermal
    cohorts).  Everything that can fail runs here, inside the engine's
    per-vehicle retry.
    """
    scavenger = spec.build_scavenger()
    storage = scaled_storage(spec.build_storage(), storage_scale)

    plan = table.plan
    harvest = round_harvest(scavenger, plan)

    # Demand side.  Thermal cohorts: the whole load vector is a function of
    # the cohort (trajectory temperatures, shared bins, group node), not of
    # the vehicle — precomputed once after the sweep and reused read-only.
    # Constant-temperature cohorts gather the per-slot energies swept for
    # this vehicle's temperature bin.
    if table.thermal:
        load = table.unit_load
    else:
        temp_bin = temperature_bin(spec.temperature_c)
        load = unit_load(
            node.pmu,
            plan,
            table.energies_by_temp_bin[temp_bin][table.round_slot],
            standstill[temp_bin],
        )
    if np.any(load < 0.0):
        raise EmulationError("cannot withdraw negative energy")
    return _PendingScan(
        vehicle_index,
        spec,
        speed_scale,
        storage_scale,
        node.name,
        table,
        storage,
        harvest,
        load,
        buckets,
    )


def _finish_vehicle(pending: _PendingScan) -> dict[str, object]:
    """Scan a pending vehicle's ledger; its summary, survival and row."""
    table = pending.table
    plan = table.plan
    storage = pending.storage
    # initial_charge_j=None replays the element's own (construction-time
    # validated) initial charge — the per-call range check is skipped.
    traj = trajectory(
        storage,
        pending.harvest,
        pending.load,
        plan.durations,
        initially_active=not storage.is_depleted,
    )
    result = EmulationResult(
        node_name=pending.node_name,
        cycle_name=table.cycle_name,
        duration_s=table.duration_s,
    )
    result.record_totals(
        plan, pending.harvest, traj.banked_j, traj.drawn_j, traj.withdrew, traj.brownout_events
    )
    sample_active = traj.active[plan.sample_units]
    active_at_end = bool(sample_active[-1]) if sample_active.size else False
    return {
        "row": _vehicle_row(
            pending.vehicle_index,
            pending.spec,
            pending.speed_scale,
            pending.storage_scale,
            result,
            active_at_end,
        ),
        "survival": _survival_from_samples(
            plan.sample_times, sample_active, table.duration_s, pending.buckets
        ),
        "path": "cohort",
    }


def _finish_chunk(results: list) -> list:
    """Scan a settled chunk's pending vehicles, in place and in order.

    Failed items (``None``) and finished outcomes (fallback vehicles,
    process workers) pass through untouched.
    """
    for slot, value in enumerate(results):
        if isinstance(value, _PendingScan):
            results[slot] = _finish_vehicle(value)
    return results


def _emulate_vehicle_outcome(
    vehicle_index: int,
    spec: ScenarioSpec,
    speed_scale: float,
    storage_scale: float,
    node,
    database,
    evaluator: EnergyEvaluator,
    bins: dict,
    buckets: int,
    record_interval_s: float,
    idle_step_s: float,
    thermal: ThermalSpec | None = None,
) -> dict[str, object]:
    """One vehicle through the ordinary per-vehicle ``emulate()`` path.

    The fallback for cohorts the fast path cannot cover (and for worker
    processes without the fork-inherited shared tables); shared bins — when
    available — still seed the emulator's cache, and the outcome is
    bit-identical to the fast path by the emulator's byte-identity contract.
    Thermal fleets hand their :class:`~repro.fleet.spec.ThermalSpec` down so
    the fallback drives the same in-tyre model — built at the vehicle's
    (bin-centered) ambient — that the cohort replay used.
    """
    cycle = spec.build_drive_cycle()
    if cycle is None:  # pragma: no cover - FleetSpec validation prevents it
        raise ConfigError("fleet vehicles need a drive cycle")
    cycle = cycle.scaled(speed_scale)
    storage = scaled_storage(spec.build_storage(), storage_scale)
    emulator = NodeEmulator(
        node,
        database,
        spec.build_scavenger(),
        storage,
        base_point=spec.operating_point(),
        thermal_model=thermal.build(spec.temperature_c) if thermal is not None else None,
        evaluator=evaluator,
    )
    if bins:
        emulator.seed_energy_cache(bins)
    result = emulator.emulate(cycle, record_interval_s=record_interval_s, idle_step_s=idle_step_s)
    arrays = result.sample_arrays()
    survival = _survival_from_samples(
        arrays["time_s"], arrays["node_active"], result.duration_s, buckets
    )
    active = arrays["node_active"]
    active_at_end = bool(active[-1]) if active.size else False
    return {
        "row": _vehicle_row(
            vehicle_index, spec, speed_scale, storage_scale, result, active_at_end
        ),
        "survival": survival,
    }


# ---------------------------------------------------------------------------
# Process-backend sharing
#
# The shared cohort tables, bin stores and standstill memos are stashed in
# module globals *before* the engine creates its process pool: the fork
# context snapshots them into every worker for free (the same mechanism that
# carries user registry registrations).  On platforms without fork the
# workers simply find the globals empty and take the per-vehicle emulate()
# path — slower, bit-identical.
# ---------------------------------------------------------------------------

_SHARED_TABLES: dict[str, _CohortTable] = {}
_SHARED_BINS: dict[str, dict] = {}
_SHARED_STANDSTILL: dict[str, dict[int, float]] = {}

#: Per-worker-process component memo, keyed like ``_group_key``.
_WORKER_COMPONENTS: dict[str, tuple] = {}


def _worker_components(spec: ScenarioSpec):
    """The (node, database, evaluator) triple of one worker-side vehicle."""
    key = _group_key(spec)
    cached = _WORKER_COMPONENTS.get(key)
    if cached is None:
        cached = spec.build_components()
        _WORKER_COMPONENTS[key] = cached
    return cached


def _process_vehicle(payload) -> dict[str, object]:
    """Worker entry of the process backend: one vehicle, self-contained."""
    (
        document,
        vehicle_index,
        speed_scale,
        storage_scale,
        cohort_key,
        group_key,
        buckets,
        record_interval_s,
        idle_step_s,
        thermal_document,
        force_fallback,
    ) = payload
    spec = ScenarioSpec.from_dict(document)
    thermal = (
        ThermalSpec.coerce(thermal_document) if thermal_document is not None else None
    )
    node, database, evaluator = _worker_components(spec)
    table = _SHARED_TABLES.get(cohort_key)
    bins = _SHARED_BINS.get(group_key, {})
    if table is not None and not table.fallback and not force_fallback:
        # Workers return finished outcomes: the ledger is scanned here rather
        # than shipped back to the parent with the vehicle's inputs.
        return _finish_vehicle(
            _cohort_vehicle_outcome(
                vehicle_index,
                spec,
                speed_scale,
                storage_scale,
                node,
                table,
                bins,
                _SHARED_STANDSTILL.get(group_key, {}),
                buckets,
            )
        )
    if force_fallback:
        reason = "forced"
    elif table is None:
        reason = "no-shared-table"
    else:
        reason = table.fallback_reason or "schedule"
    outcome = _emulate_vehicle_outcome(
        vehicle_index,
        spec,
        speed_scale,
        storage_scale,
        node,
        database,
        evaluator,
        bins,
        buckets,
        record_interval_s,
        idle_step_s,
        thermal=thermal,
    )
    outcome["path"] = "fallback"
    outcome["fallback_reason"] = reason
    return outcome


class FleetRunner:
    """Materializes a fleet and runs it on the shared execution engine.

    Args:
        fleet: the population description.
        workers: engine pool width (``None``/1 = sequential).
        backend: ``"thread"`` (default) or ``"process"`` — the same
            semantics as ``Study.run``; aggregate rows are identical across
            all settings.
        survival_buckets: normalized-time resolution of the survival curve.
        keep_vehicle_rows: keep per-vehicle rows on the result (``False``
            aggregates streaming-only).
        record_interval_s: state-log sampling interval of each vehicle.
        idle_step_s: stationary-time step of each vehicle.
        checkpoint: optional checkpoint directory.  Completed vehicle chunks
            are journaled there (crash-safe, see
            :class:`~repro.scenario.checkpoint.CheckpointStore`); rerunning
            with the same fleet/seed/parameters replays journaled chunks and
            computes only the rest — byte-identical to an uninterrupted run.
        max_chunks: stop after computing this many NEW chunks this run
            (replayed chunks are free); the result is marked partial.
        retries: per-vehicle retry budget for transient worker failures
            (exceptions and process-worker death).  With ``retries > 0`` the
            run degrades gracefully — failed vehicles are reported on the
            result metadata instead of aborting the whole fleet.
        retry_backoff_s: pause before each retry.
        progress: optional engine observer (per-vehicle and per-chunk
            events, see :meth:`~repro.scenario.engine.ChunkedEngine.run_chunks`);
            the serving layer uses it for live job progress.
        should_stop: optional cancellation hook polled before each new
            chunk; with a checkpoint, stopping this way is equivalent to a
            resumable interruption (the result is marked partial).
        evaluator_cache: optional shared evaluator cache exposing
            ``get(key, builder)`` (the serving layer's bounded LRU); groups
            then reuse evaluators/compiled tables across runs, observable
            through ``evaluator_builds``/``evaluator_cache_hits``.
        force_fallback: route EVERY vehicle through the per-vehicle
            ``emulate()`` fallback (reason ``"forced"``) even where the
            cohort fast path applies.  A benchmarking/debug knob — the
            results are bit-identical either way (that is the fast path's
            contract), only slower; it is an execution policy and never enters
            :meth:`checkpoint_key`.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        workers: int | None = None,
        backend: str = "thread",
        survival_buckets: int = DEFAULT_SURVIVAL_BUCKETS,
        keep_vehicle_rows: bool = True,
        record_interval_s: float = 1.0,
        idle_step_s: float = 1.0,
        checkpoint: str | None = None,
        max_chunks: int | None = None,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        progress=None,
        should_stop=None,
        evaluator_cache=None,
        force_fallback: bool = False,
    ) -> None:
        if not isinstance(fleet, FleetSpec):
            raise ConfigError(f"a fleet runner needs a FleetSpec, got {type(fleet).__name__}")
        if record_interval_s <= 0.0:
            raise ConfigError("record interval must be positive")
        if idle_step_s <= 0.0:
            raise ConfigError("idle step must be positive")
        if evaluator_cache is not None and not callable(
            getattr(evaluator_cache, "get", None)
        ):
            raise ConfigError(
                "evaluator_cache must expose get(key, builder) "
                f"(e.g. repro.serve.EvaluatorLRU), got {type(evaluator_cache).__name__}"
            )
        self.fleet = fleet
        self.workers = workers
        self.backend = backend
        self.survival_buckets = FleetAccumulator.validate_buckets(survival_buckets)
        self.keep_vehicle_rows = keep_vehicle_rows
        self.record_interval_s = record_interval_s
        self.idle_step_s = idle_step_s
        self.checkpoint = checkpoint
        self.max_chunks = max_chunks
        self.force_fallback = bool(force_fallback)
        self.progress = progress
        self.should_stop = should_stop
        self._evaluator_cache = evaluator_cache
        # Validates workers/backend/retries eagerly (same rules as studies).
        # Failed vehicles are collected (not raised) whenever a retry budget
        # is given: a caller asking for degradation wants the partial fleet.
        self._engine = ChunkedEngine(
            workers=workers,
            backend=backend,
            retries=retries,
            retry_backoff_s=retry_backoff_s,
            failure_mode="collect" if retries > 0 else "raise",
        )
        self.evaluator_builds = 0
        self.evaluator_cache_hits = 0

    # -- shared-state construction ------------------------------------------

    def _components_for(self, spec: ScenarioSpec) -> tuple:
        """One group's (node, database, evaluator) — via the shared LRU if given."""
        if self._evaluator_cache is None:
            self.evaluator_builds += 1
            return spec.build_components()
        built: list[bool] = []

        def builder():
            built.append(True)
            return spec.build_components()

        components = self._evaluator_cache.get(spec.evaluator_group_key(), builder)
        if built:
            self.evaluator_builds += 1
        else:
            self.evaluator_cache_hits += 1
        return components

    def _build_shared_state(self, chunks):
        """Groups, cohort tables, standstill memos and the cross-vehicle sweep.

        One streaming discovery pass: vehicles arrive chunk by chunk and are
        *discarded* after inspection — the parent only retains the per-group
        and per-cohort structures (whose cardinality is bounded by the
        distinct (architecture, cycle, scale, temperature) combinations, not
        by the population size).  Group/cohort/bin insertion order matches
        the vehicle order exactly, so the cross-vehicle sweep sees the same
        bin sequence an eagerly materialized population would produce.
        """
        thermal = self.fleet.thermal
        groups: dict[str, tuple] = {}
        probes: dict[str, NodeEmulator] = {}
        tables: dict[str, _CohortTable] = {}
        standstill: dict[str, dict[int, float]] = {}
        schedules: dict[str, dict] = {}
        pending: dict[str, dict] = {}
        for chunk in chunks:
            for vehicle in chunk:
                spec = vehicle.scenario
                gkey = _group_key(spec)
                if gkey not in groups:
                    groups[gkey] = self._components_for(spec)
                    standstill[gkey] = {}
                    pending[gkey] = {}
                    schedules[gkey] = {}
                ckey = _cohort_key(vehicle, thermal)
                table = tables.get(ckey)
                if table is None:
                    node, database, evaluator = groups[gkey]
                    probe = probes.get(gkey)
                    if probe is None:
                        probe = NodeEmulator(
                            node,
                            database,
                            spec.build_scavenger(),
                            spec.build_storage(),
                            base_point=spec.operating_point(),
                            evaluator=evaluator,
                        )
                        probes[gkey] = probe
                    cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
                    # Thermal cohorts replay a freshly built model at the
                    # cohort's bin-center ambient — which IS the vehicle's
                    # (materialization-snapped) ambient, so the replayed
                    # trajectory equals each member vehicle's own.
                    table = _build_cohort_table(
                        probe,
                        cycle,
                        self.record_interval_s,
                        self.idle_step_s,
                        schedules[gkey],
                        thermal_model=(
                            thermal.build(spec.temperature_c)
                            if thermal is not None
                            else None
                        ),
                    )
                    table.group_key = gkey
                    tables[ckey] = table
                    # Trajectory-driven demand: a thermal cohort's bins span
                    # its (speed, temperature, pattern) triples.
                    for key, eval_speed, temp_center, schedule in table.triples:
                        pending[gkey].setdefault(key, (eval_speed, temp_center, schedule))
                if table.thermal:
                    continue
                temp_bin = temperature_bin(spec.temperature_c)
                if temp_bin not in standstill[gkey]:
                    standstill[gkey][temp_bin] = probes[gkey]._standstill_power(
                        temperature_bin_center_c(temp_bin)
                    )
                if table.fallback or temp_bin in table.energies_by_temp_bin:
                    continue
                table.energies_by_temp_bin[temp_bin] = None
                temp_center = temperature_bin_center_c(temp_bin)
                for speed_key, pattern, eval_speed, schedule in table.slots:
                    pending[gkey].setdefault(
                        (speed_key, temp_bin, *pattern), (eval_speed, temp_center, schedule)
                    )

        # ONE cross-vehicle sweep per group: the union of quantized bins over
        # every vehicle of the group, evaluated in a single batch call.
        bins: dict[str, dict] = {}
        for gkey, group_pending in pending.items():
            bins[gkey] = probes[gkey].evaluate_energy_bins(group_pending)

        # Post-sweep gather precompute: the per-vehicle demand side is a
        # pure gather over the swept bins, so hoist it out of the per-vehicle
        # kernel — the full per-unit load vector for thermal cohorts (it is
        # vehicle-independent), one per-slot energy array per (cohort,
        # temperature bin) for constant ones.
        for table in tables.values():
            if table.fallback:
                continue
            node = groups[table.group_key][0]
            group_bins = bins[table.group_key]
            if table.thermal:
                # Element for element emulate()'s pure-kernel load, and
                # vehicle-independent: computed once, shared read-only.
                energies = np.array([group_bins[key][0] for key, *_rest in table.triples])
                table.unit_load = unit_load(
                    node.pmu, table.plan, energies[table.round_triple], table.sleep_power
                )
                table.unit_load.setflags(write=False)
            else:
                for temp_bin in table.energies_by_temp_bin:
                    table.energies_by_temp_bin[temp_bin] = np.array(
                        [
                            group_bins[(speed_key, temp_bin, *pattern)][0]
                            for speed_key, pattern, _eval_speed, _schedule in table.slots
                        ]
                    )
        return groups, tables, bins, standstill

    # -- execution ----------------------------------------------------------

    def checkpoint_key(self) -> dict[str, object]:
        """The run-identifying document journaled checkpoints are keyed by.

        Everything that shapes a vehicle row is in here — the full fleet
        document (population + chunking), and the runner parameters the
        kernels read — so a checkpoint directory can never silently resume
        under different results.
        """
        return {
            "kind": "fleet",
            "fleet": self.fleet.to_dict(),
            "record_interval_s": self.record_interval_s,
            "idle_step_s": self.idle_step_s,
            "survival_buckets": self.survival_buckets,
        }

    def run(self) -> FleetResult:
        """Discover (streaming), share, fan out chunk by chunk, aggregate."""
        fleet = self.fleet
        # Discovery pass: stream the population once to find the groups,
        # cohorts and energy bins; individual vehicles are discarded, so the
        # parent never holds more than one chunk of them.
        groups, tables, bins, standstill = self._build_shared_state(fleet.iter_chunks())
        store = (
            CheckpointStore(self.checkpoint, self.checkpoint_key())
            if self.checkpoint is not None
            else None
        )

        accumulator = FleetAccumulator(
            buckets=self.survival_buckets,
            keep_vehicle_rows=self.keep_vehicle_rows,
        )
        buckets = self.survival_buckets
        thermal = fleet.thermal
        thermal_document = thermal.to_dict() if thermal is not None else None
        force_fallback = self.force_fallback

        def kernel(vehicle: FleetVehicle) -> dict[str, object]:
            spec = vehicle.scenario
            gkey = _group_key(spec)
            node, database, evaluator = groups[gkey]
            table = tables[_cohort_key(vehicle, thermal)]
            if not table.fallback and not force_fallback:
                # The inputs phase only: the ledger scans run once the chunk
                # has settled, in _finish_chunk (the engine's finish step).
                return _cohort_vehicle_outcome(
                    vehicle.index,
                    spec,
                    vehicle.speed_scale,
                    vehicle.storage_scale,
                    node,
                    table,
                    bins[gkey],
                    standstill[gkey],
                    buckets,
                )
            outcome = _emulate_vehicle_outcome(
                vehicle.index,
                spec,
                vehicle.speed_scale,
                vehicle.storage_scale,
                node,
                database,
                evaluator,
                bins[gkey],
                buckets,
                self.record_interval_s,
                self.idle_step_s,
                thermal=thermal,
            )
            outcome["path"] = "fallback"
            outcome["fallback_reason"] = (
                "forced" if force_fallback else (table.fallback_reason or "schedule")
            )
            return outcome

        def payload(vehicle: FleetVehicle):
            return (
                vehicle.scenario.to_dict(),
                vehicle.index,
                vehicle.speed_scale,
                vehicle.storage_scale,
                _cohort_key(vehicle, thermal),
                _group_key(vehicle.scenario),
                buckets,
                self.record_interval_s,
                self.idle_step_s,
                thermal_document,
                force_fallback,
            )

        if self.backend == "process":
            # Fork-inherited sharing: stash the shared state where worker
            # processes (created by the engine below) will find it.  One
            # process-backend fleet run at a time per parent process — a
            # concurrent run would clobber these and silently demote the
            # first run's workers to the per-vehicle fallback.
            _SHARED_TABLES.clear()
            _SHARED_TABLES.update(tables)
            _SHARED_BINS.clear()
            _SHARED_BINS.update(bins)
            _SHARED_STANDSTILL.clear()
            _SHARED_STANDSTILL.update(standstill)
        # Path observability: every outcome is tagged with the path it took,
        # so a fast-path regression (new fallback reason, demoted cohort)
        # shows up as a counter instead of a silent slowdown.  Outcomes
        # replayed from a pre-tagging checkpoint journal carry no tag and
        # are counted as untagged.
        path_counts = {"cohort": 0, "fallback": 0, "untagged": 0}
        fallback_reasons: dict[str, int] = {}

        def sink(_index, outcome) -> None:
            path = outcome.get("path")
            if path == "cohort":
                path_counts["cohort"] += 1
            elif path == "fallback":
                path_counts["fallback"] += 1
                reason = outcome.get("fallback_reason") or "unspecified"
                fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1
            else:
                path_counts["untagged"] += 1
            accumulator.add(outcome)

        try:
            report = self._engine.run_chunks(
                fleet.iter_chunks(),
                kernel,
                sink,
                checkpoint=store,
                max_new_chunks=self.max_chunks,
                process_worker=_process_vehicle,
                process_payload=payload,
                progress=self.progress,
                should_stop=self.should_stop,
                finish=_finish_chunk,
            )
        finally:
            if self.backend == "process":
                # The forked pool snapshotted the globals at creation; the
                # parent must not keep the cohort tables/bin stores alive
                # (or visible to a later run) once the run is over.
                _SHARED_TABLES.clear()
                _SHARED_BINS.clear()
                _SHARED_STANDSTILL.clear()

        shared_bin_count = sum(len(group_bins) for group_bins in bins.values())
        partial = report.stopped_early or bool(report.failures)
        metadata = {
            "kind": "fleet",
            "fleet": fleet.name,
            "vehicles": fleet.vehicles,
            "seed": fleet.seed,
            "base_scenario": fleet.base.to_dict(),
            "fleet_document": fleet.to_dict(),
            "groups": len(groups),
            "cohorts": len(tables),
            "fallback_cohorts": sum(1 for table in tables.values() if table.fallback),
            "fast_path_vehicles": path_counts["cohort"],
            "fallback_vehicles": path_counts["fallback"],
            "untagged_vehicles": path_counts["untagged"],
            "fallback_reasons": {
                reason: fallback_reasons[reason] for reason in sorted(fallback_reasons)
            },
            "force_fallback": force_fallback,
            "thermal": thermal_document,
            "shared_energy_bins": shared_bin_count,
            "speed_quantum_kmh": SPEED_QUANTUM_KMH,
            "temperature_quantum_c": TEMPERATURE_QUANTUM_C,
            "ambient_quantum_c": AMBIENT_QUANTUM_C if thermal is not None else None,
            "scale_quantum": fleet.scale_quantum,
            "evaluator_builds": self.evaluator_builds,
            "evaluator_cache_hits": self.evaluator_cache_hits,
            "survival_buckets": buckets,
            "workers": self.workers or 1,
            "backend": self.backend,
            "engine_backend": report.backend,
            "wall_time_s": report.wall_time_s,
            "vehicle_wall_times_s": report.item_wall_times_s,
            "chunk_vehicles": fleet.chunk_vehicles,
            "chunks_total": fleet.chunk_count(),
            "chunks_completed": report.chunks,
            "resumed_chunks": report.resumed_chunks,
            "resumed_vehicles": report.resumed_items,
            "vehicles_run": report.items,
            "vehicles_failed": len(report.failures),
            "failures": [failure.to_dict() for failure in report.failures],
            "retries": report.retries,
            "pool_rebuilds": report.pool_rebuilds,
            "partial": partial,
            "checkpoint": self.checkpoint,
        }
        return FleetResult(
            name=fleet.name,
            summary=accumulator.summary_row(fleet.name, fleet.seed),
            survival=accumulator.survival_rows(fleet.name),
            vehicle_rows=accumulator.vehicle_rows if self.keep_vehicle_rows else None,
            metadata=metadata,
        )


def run_fleet(
    fleet: FleetSpec,
    workers: int | None = None,
    backend: str = "thread",
    **options,
) -> FleetResult:
    """One-call convenience wrapper: build a :class:`FleetRunner` and run it."""
    return FleetRunner(fleet, workers=workers, backend=backend, **options).run()
