"""The fleet runner: cohort-shared emulation of a whole vehicle population.

Running ``NodeEmulator.emulate()`` once per vehicle is correct but wasteful
at fleet scale: every vehicle would rebuild the evaluator, re-walk its drive
cycle and re-evaluate the same revolution energies.  The runner shares all
of that across the population:

* **One evaluator** — every vehicle shares the base scenario's
  architecture, workload and power database (no fleet axis touches them),
  so the run builds one :class:`~repro.core.evaluator.EnergyEvaluator` and
  therefore one compiled power table, exactly like a study grid point.
* **Cohorts** — vehicles with the same (drive cycle, quantized speed
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
  phase-pattern) energy bins over all vehicles is evaluated in ONE
  :meth:`~repro.core.emulator.NodeEmulator.evaluate_energy_bins` call
  before any emulation starts; the batch kernel is bitwise-identical to the
  per-miss path, so shared bins cannot change results.

No vehicle carries a :class:`~repro.scenario.spec.ScenarioSpec`: the
population arrives as column chunks (:class:`~repro.fleet.spec.FleetChunk`),
and the run's components, scavenger and storage element are built once.
A vehicle's load is its (cohort, temperature bin)'s, or its thermal
cohort's; its harvest is its size factor times its cohort's unit-size sweep,
exactly as ``build_scavenger`` + ``scaled()`` scale it.

Each vehicle then reduces to its harvest scale and load lookup inside the
engine's retried kernel (:func:`_cohort_vehicle_outcome`).  Once a chunk has
settled, each of its vehicles' ledgers is replayed by
:func:`~repro.scavenger.storage.trajectory` — the run-length scan
``emulate()`` uses, which advances event-free stretches with one numpy
accumulate — before the chunk is journaled or streamed; process-backend
workers scan in the worker and return finished outcomes.  Per-vehicle
figures are bit-identical to a naive ``emulate()`` of the same vehicle
scenario (the throughput benchmark asserts it), so the aggregates are
independent of chunking, worker counts and backends.

Every vehicle takes this one path, and errors keep ``emulate()``'s timing.
A cohort whose scan can raise — a round whose exact-speed schedule cannot be
built, or a thermal trajectory that leaves the modelled temperature range —
scans inside the retried kernel and hands the trajectory to the emulator's
own :meth:`~repro.core.emulator.NodeEmulator.check_trajectory`, so each of
its vehicles raises exactly what a naive ``emulate()`` raises, at the same
simulated instant, and is retried or collected on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.core.cycle_plan import energy_keys, round_harvest, unit_load
from repro.core.emulator import EmulationResult, NodeEmulator
from repro.core.quantize import (
    AMBIENT_QUANTUM_C,
    SPEED_QUANTUM_KMH,
    TEMPERATURE_QUANTUM_C,
    temperature_bin_center_c,
    temperature_bins,
)
from repro.errors import ConfigError, EmulationError
from repro.fleet.aggregate import (
    DEFAULT_SURVIVAL_BUCKETS,
    FleetAccumulator,
    FleetResult,
)
from repro.fleet.spec import FleetChunk, FleetSpec
from repro.scavenger.base import EnergyScavenger
from repro.scavenger.storage import (
    StorageElement,
    scaled_storage,
    trajectory,
)
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine, process_pool_context

__all__ = ["FleetRunner", "run_fleet"]


class _CohortTable:
    """Shared per-cohort cycle materialization (read-only after build).

    Holds everything about one (cycle, speed scale[, ambient bin]) pairing
    that does not depend on the individual vehicle: the run's ``probe``
    emulator, the cycle ``plan`` (the per-unit arrays and the state-log
    sampling walk), the resolved speed ``slots`` (``(speed key, pattern,
    evaluation speed)`` each, ``None`` where the schedule cannot be built)
    with each round's index into them, and — for thermal cohorts — the
    replayed ``temps``, the rounds' (speed, temperature, pattern)
    ``triples`` and the per-unit sleep power.  The scan covers units
    ``[0, end)`` (``end`` is the first unit outside the modelled
    temperature range, or ``len(plan)``); ``unbuilt`` marks the rounds whose
    schedule cannot be built, and ``checked`` the cohorts whose scan can
    raise (``end < len(plan)`` or any ``unbuilt`` round).

    After the cross-vehicle sweep the runner attaches the demand side:
    ``loads`` maps a vehicle's load key — its temperature bin, or ``None``
    in a thermal cohort — to ``(per-unit load, any negative entry)``.  The
    first vehicle to need it fills ``harvest``: the cohort's per-unit
    harvest at unit size and whether any entry is negative.
    """

    __slots__ = (
        "probe",
        "cycle_name",
        "duration_s",
        "plan",
        "end",
        "unbuilt",
        "checked",
        "thermal",
        "temps",
        "slots",
        "round_slot",
        "sleep_power",
        "triples",
        "round_triple",
        "loads",
        "harvest",
    )

    def __init__(self) -> None:
        self.temps = None
        self.triples = []
        self.loads = {}
        self.harvest = None


def _build_cohort_table(
    probe: NodeEmulator,
    cycle,
    record_interval_s: float,
    idle_step_s: float,
    thermal_model=None,
) -> _CohortTable:
    """Plan one cohort's cycle through the probe emulator.

    The probe supplies the exact walk (``materialize_cycle``), thermal
    replay (``plan_temperatures``) and speed-key classification
    (``speed_slots``) the per-vehicle ``emulate()`` runs, and the rounds
    are resolved the way ``emulate()`` resolves them: a slot whose bin
    center cannot be built joins the probe's ``_infeasible_center_keys`` and
    the slots are resolved again on exact speeds; a slot whose exact-speed
    schedule cannot be built stays unbuilt, and its rounds draw 0.
    ``thermal_model`` — a freshly built model at the cohort's bin-center
    ambient — keeps the per-unit temperature trajectory and keys the rounds
    before ``end`` on full (speed, temperature, phase-pattern) triples
    instead of pinning one temperature bin per vehicle.
    """
    table = _CohortTable()
    table.probe = probe
    table.cycle_name = cycle.name
    table.duration_s = cycle.duration_s
    table.plan = plan = probe.materialize_cycle(cycle, idle_step_s, record_interval_s)
    table.thermal = thermal_model is not None
    table.end = end = len(plan)
    if table.thermal:
        table.temps = temps = probe.plan_temperatures(plan, thermal_model)
        low_t, high_t = TEMPERATURE_RANGE_C
        in_range = (temps >= low_t) & (temps <= high_t)
        if not in_range.all():
            # Self-heating pushed the trajectory out of the modelled range:
            # the scan stops at the first offending unit, as emulate()'s does.
            table.end = end = int(np.argmin(in_range))
        table.sleep_power = np.zeros(len(plan))
        table.sleep_power[:end] = probe._standstill_power_sweep(temps[:end])
    while True:
        slots, table.round_slot = probe.speed_slots(plan)
        built = probe.node.schedule_table(
            [slot[2] for slot in slots], [slot[1] for slot in slots]
        ).feasible
        centers = {
            (slot[0], *slot[1])
            for slot, ok in zip(slots, built.tolist())
            if not ok and isinstance(slot[0], int)
        }
        if not centers:
            break
        probe._infeasible_center_keys.update(centers)
    table.slots = [slot[:3] if ok else None for slot, ok in zip(slots, built.tolist())]
    table.unbuilt = np.zeros(len(plan), dtype=bool)
    table.unbuilt[plan.round_indices] = ~built[table.round_slot]
    table.checked = end < len(plan) or bool(table.unbuilt.any())
    if table.thermal:
        # One entry per distinct (speed, temperature, pattern) triple of the
        # rounds before ``end`` (``None`` where unbuilt) plus each round's
        # index into them; later rounds index the trailing 0.0 energy.
        rounds = plan.round_indices
        limit = int(np.searchsorted(rounds, end))
        keys, inverse = energy_keys(
            slots, table.round_slot[:limit], temperature_bins(temps[rounds[:limit]])
        )
        table.triples = [
            (key, slots[slot][2], temperature_bin_center_c(temp_bin), slots[slot][1])
            if built[slot]
            else None
            for key, slot, temp_bin in keys
        ]
        table.round_triple = np.full(len(rounds), -1, dtype=np.intp)
        table.round_triple[:limit] = inverse
    return table


def _survival_from_samples(
    times: np.ndarray, active: np.ndarray, duration_s: float, buckets: int
) -> tuple:
    """Per-bucket active fraction of one vehicle's sampled state log.

    ``times`` and ``active`` are the plan's sampling walk read off the
    vehicle's trajectory — the values ``emulate()`` records in its log.
    """
    if times.size == 0 or duration_s <= 0.0:
        return tuple([float("nan")] * buckets)
    index = np.minimum((times / duration_s * buckets).astype(np.intp), buckets - 1)
    counts = np.bincount(index, minlength=buckets)
    active_counts = np.bincount(index, weights=active.astype(float), minlength=buckets)
    with np.errstate(invalid="ignore"):
        fractions = np.where(counts > 0, active_counts / np.maximum(counts, 1), np.nan)
    return tuple(fractions.tolist())


@dataclass(slots=True)
class _Run:
    """What every vehicle of one run shares (read-only during execution).

    ``scavenger`` is the base scenario's scavenger at its registry size
    (``scavenger_size`` 1).  ``unit`` is that scavenger at size factor 1 when
    it scales through the base class's ``scaled`` and ``energy_sweep_j`` —
    a vehicle's harvest is then its size factor times the cohort's sweep of
    ``unit`` — and ``None`` otherwise.  ``storage`` is the base storage
    element, scaled per vehicle.
    """

    fleet: FleetSpec
    tables: list
    scavenger: EnergyScavenger
    unit: EnergyScavenger | None
    storage: StorageElement
    buckets: int


def _vehicle_harvest(run: _Run, table: _CohortTable, size: float) -> np.ndarray:
    """One vehicle's per-unit harvest, as ``build_scavenger`` + ``round_harvest`` give it.

    ``build_scavenger`` scales the registry scavenger by ``size`` unless it
    is 1, which sets ``size_factor`` to their product, and the sweep
    multiplies that factor into the raw energies; so the product times the
    cohort's unit-size harvest is bitwise the vehicle's own sweep.  A factor
    that is not positive and finite takes the per-vehicle path, which
    raises or computes exactly as the vehicle's own scavenger does.
    """
    scavenger = run.scavenger
    factor = scavenger.size_factor * size if size != 1.0 else scavenger.size_factor
    if run.unit is None or not 0.0 < factor < math.inf:
        return round_harvest(scavenger.scaled(size) if size != 1.0 else scavenger, table.plan)
    if table.harvest is None:
        plan = table.plan
        unit_harvest = np.zeros(len(plan))
        unit_harvest[plan.round_indices] = run.unit.energy_sweep_j(plan.speeds[plan.round_indices])
        table.harvest = (unit_harvest, bool(np.any(unit_harvest < 0.0)))
    unit_harvest, negative = table.harvest
    harvest = factor * unit_harvest
    if negative and np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    return harvest


@dataclass(slots=True)
class _PendingScan:
    """One vehicle between its inputs phase and its ledger scan.

    Holds the vehicle's record, its storage element (parameters only),
    harvest and load vectors — what :func:`_finish_vehicle` scans.
    """

    vehicle: tuple
    run: _Run
    table: _CohortTable
    storage: StorageElement
    harvest: np.ndarray
    load: np.ndarray


def _cohort_vehicle_outcome(vehicle_index: int, vehicle: tuple, run: _Run) -> _PendingScan:
    """One vehicle's ledger inputs through the shared cohort plan.

    ``vehicle`` is the record ``(index, speed scale, temperature, scavenger
    size, storage scale, cohort, load key)``; its index also leads the
    arguments, where fault-injection wrappers select a vehicle.  Mirrors
    ``NodeEmulator.emulate()``'s ledger inputs — harvest sweep, load
    gather, the negative-energy checks — against the cohort's shared
    harvest and load vectors.  The ledger scan and summary follow in
    :func:`_finish_vehicle`, so the figures are bit-identical to a naive
    per-vehicle ``emulate()`` (with the fleet's thermal model, for thermal
    cohorts).
    """
    _index, _scale, _temperature, size, storage_scale, cohort, load_key = vehicle
    table = run.tables[cohort]
    harvest = _vehicle_harvest(run, table, size)
    storage = scaled_storage(run.storage, storage_scale)
    load, negative = table.loads[load_key]
    if negative:
        raise EmulationError("cannot withdraw negative energy")
    return _PendingScan(vehicle, run, table, storage, harvest, load)


def _finish_vehicle(pending: _PendingScan) -> dict[str, object]:
    """Scan a pending vehicle's ledger; its summary, survival and row.

    The row's key order is the one every stored and exported fleet has.

    A ``checked`` cohort's trajectory goes through ``emulate()``'s own
    :meth:`~repro.core.emulator.NodeEmulator.check_trajectory`, which
    raises the naive run's error, if it has one.
    """
    table = pending.table
    plan = table.plan
    storage = pending.storage
    end = table.end
    # initial_charge_j=None replays the element's own (construction-time
    # validated) initial charge — the per-call range check is skipped.
    traj = trajectory(
        storage,
        pending.harvest[:end],
        pending.load[:end],
        plan.durations[:end],
        initially_active=not storage.is_depleted,
    )
    if table.checked:
        temps = table.temps
        if temps is None:
            temps = np.full(len(plan), float(pending.vehicle[2]))
        table.probe.check_trajectory(plan, temps, traj, table.unbuilt)
    result = EmulationResult(
        node_name=table.probe.node.name,
        cycle_name=table.cycle_name,
        duration_s=table.duration_s,
    )
    result.record_totals(
        plan, pending.harvest, traj.banked_j, traj.drawn_j, traj.withdrew, traj.brownout_events
    )
    sample_active = traj.active[plan.sample_units]
    run = pending.run
    index, speed_scale, temperature, size, storage_scale = pending.vehicle[:5]
    summary = result.summary()
    hours = result.duration_s / 3600.0
    row: dict[str, object] = {
        "vehicle": index,
        "scenario": run.fleet.vehicle_name(index),
        "cycle": result.cycle_name,
        "speed_scale": speed_scale,
        "temperature_c": temperature,
        "scavenger_size": size,
        "storage_scale": storage_scale,
    }
    row.update(summary)
    row["brownout_per_hour"] = summary["brownout_events"] / hours if hours > 0.0 else float("nan")
    row["active_at_end"] = bool(sample_active[-1]) if sample_active.size else False
    return {
        "row": row,
        "survival": _survival_from_samples(
            plan.sample_times, sample_active, table.duration_s, run.buckets
        ),
    }


def _finish_chunk(results: list) -> list:
    """Scan a settled chunk's pending vehicles, in place and in order.

    Failed items (``None``) and finished outcomes (``checked`` cohorts)
    pass through untouched.
    """
    for slot, value in enumerate(results):
        if isinstance(value, _PendingScan):
            results[slot] = _finish_vehicle(value)
    return results


# ---------------------------------------------------------------------------
# Process-backend sharing
#
# Each process-backend run stashes its shared state in ``_SHARED_RUNS`` under
# its own run token *before* the engine creates its process pools: the fork
# context snapshots it into every worker for free (the same mechanism that
# carries user registry registrations).  A run removes only its own entry,
# so concurrent runs in one parent process never see each other's state.
# Without fork the runner uses the thread engine.
# ---------------------------------------------------------------------------

_SHARED_RUNS: dict[int, _Run] = {}
_RUN_TOKENS = itertools.count()


def _process_vehicle(payload) -> dict[str, object]:
    """Worker entry of the process backend: one vehicle, scanned in the worker."""
    run_token, vehicle = payload
    # Workers return finished outcomes: the ledger is scanned here rather
    # than shipped back to the parent with the vehicle's inputs.
    return _finish_vehicle(_cohort_vehicle_outcome(vehicle[0], vehicle, _SHARED_RUNS[run_token]))


def _keyed_vehicles(chunk: FleetChunk, thermal: bool):
    """One column chunk's ``(cohort key, load key, record)`` per vehicle.

    A cohort key is ``(cycle reference repr, speed scale)``, plus the ambient
    (a bin center) on thermal fleets; a load key is the vehicle's
    temperature bin, or ``None`` on thermal fleets.
    """
    cycles = [repr(ref) for ref in chunk.cycles]
    if thermal:
        load_keys = itertools.repeat(None)
    else:
        load_keys = temperature_bins(chunk.temperature_c).astype(np.int64).tolist()
    for record, load_key in zip(chunk.records(), load_keys):
        _index, scale, temperature, _size, _storage, code = record
        key = (cycles[code], scale, temperature) if thermal else (cycles[code], scale)
        yield key, load_key, record


class FleetRunner:
    """Materializes a fleet and runs it on the shared execution engine.

    Args:
        fleet: the population description.
        workers: engine pool width (``None``/1 = sequential).
        backend: ``"thread"`` (default) or ``"process"`` — the same
            semantics as ``Study.run``; aggregate rows are identical across
            all settings.  Where the platform cannot fork, a process run
            executes on threads (``engine_backend`` says so).
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
        self.progress = progress
        self.should_stop = should_stop
        self._evaluator_cache = evaluator_cache
        if backend == "process" and process_pool_context() is None:
            # Process workers inherit the shared cohort tables by fork only:
            # without fork the chunks run on threads (rows are identical).
            backend = "thread"
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

    def _components(self) -> tuple:
        """The run's (node, database, evaluator) — via the shared LRU if given."""
        spec = self.fleet.base
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

    def _build_shared_state(self, chunks, cohorts: dict) -> tuple[_Run, dict]:
        """The run's components, cohort tables and the cross-vehicle sweep.

        One streaming discovery pass: column chunks arrive one at a time and
        are *discarded* after inspection — the parent only retains the
        per-cohort structures (whose cardinality is bounded by the distinct
        (cycle, scale, temperature) combinations, not by the population
        size).  ``cohorts`` (cohort key -> number) is filled in vehicle
        order, so the cross-vehicle sweep sees the same bin sequence an
        eagerly materialized population would produce.  Returns the shared
        :class:`_Run` and the swept bins.
        """
        fleet = self.fleet
        base = fleet.base
        thermal = fleet.thermal
        node, database, evaluator = self._components()
        scavenger = base.with_axes(size=1.0).build_scavenger()
        linear = (
            type(scavenger).energy_sweep_j is EnergyScavenger.energy_sweep_j
            and type(scavenger).scaled is EnergyScavenger.scaled
        )
        run = _Run(
            fleet=fleet,
            tables=[],
            scavenger=scavenger,
            unit=replace(scavenger, size_factor=1.0) if linear else None,
            storage=base.build_storage(),
            buckets=self.survival_buckets,
        )
        probe = NodeEmulator(
            node,
            database,
            scavenger,
            run.storage,
            base_point=base.operating_point(),
            evaluator=evaluator,
        )
        drive_cycles: dict[str, object] = {}
        standstill: dict[int, float] = {}
        pending: dict = {}
        for chunk in chunks:
            for key, temp_bin, record in _keyed_vehicles(chunk, thermal is not None):
                cohort = cohorts.get(key)
                if cohort is None:
                    cohort = cohorts[key] = len(run.tables)
                    if key[0] not in drive_cycles:
                        ref = chunk.cycles[record[5]]
                        drive_cycles[key[0]] = base.with_axes(drive_cycle=ref).build_drive_cycle()
                    # Thermal cohorts replay a freshly built model at the
                    # cohort's bin-center ambient — which IS every member
                    # vehicle's (materialization-snapped) ambient, so the
                    # replayed trajectory equals each vehicle's own.
                    table = _build_cohort_table(
                        probe,
                        drive_cycles[key[0]].scaled(key[1]),
                        self.record_interval_s,
                        self.idle_step_s,
                        thermal_model=thermal.build(key[2]) if thermal is not None else None,
                    )
                    run.tables.append(table)
                    # Trajectory-driven demand: a thermal cohort's bins span
                    # its (speed, temperature, pattern) triples.
                    for bin_key, eval_speed, temp_center, pattern in filter(None, table.triples):
                        pending.setdefault(bin_key, (eval_speed, temp_center, pattern))
                if thermal is not None:
                    continue
                if temp_bin not in standstill:
                    standstill[temp_bin] = probe._standstill_power(
                        temperature_bin_center_c(temp_bin)
                    )
                table = run.tables[cohort]
                if temp_bin in table.loads:
                    continue
                table.loads[temp_bin] = None
                temp_center = temperature_bin_center_c(temp_bin)
                for speed_key, pattern, eval_speed in filter(None, table.slots):
                    pending.setdefault(
                        (speed_key, temp_bin, *pattern), (eval_speed, temp_center, pattern)
                    )

        # ONE cross-vehicle sweep: the union of quantized bins over every
        # vehicle, evaluated in a single batch call.
        bins = probe.evaluate_energy_bins(pending)

        # Post-sweep demand precompute: a vehicle's load is a pure gather
        # over the swept bins, a function of its cohort and temperature bin
        # (its cohort alone when thermal).  Unbuilt slots draw 0, as in
        # emulate().
        pmu = probe.node.pmu
        for table in run.tables:
            if table.thermal:
                energies = [bins[triple[0]][0] if triple else 0.0 for triple in table.triples]
                rounds = np.array(energies + [0.0])[table.round_triple]
                loads = {None: unit_load(pmu, table.plan, rounds, table.sleep_power)}
            else:
                loads = {}
                for temp_bin in table.loads:
                    energies = [
                        bins[(slot[0], temp_bin, *slot[1])][0] if slot else 0.0
                        for slot in table.slots
                    ]
                    rounds = np.array(energies)[table.round_slot]
                    loads[temp_bin] = unit_load(pmu, table.plan, rounds, standstill[temp_bin])
            for load_key, load in loads.items():
                load.setflags(write=False)
                table.loads[load_key] = (load, bool(np.any(load < 0.0)))
        return run, bins

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
        thermal = fleet.thermal
        cohorts: dict = {}
        # Discovery pass: stream the population once to find the cohorts
        # and energy bins; chunks are discarded, so the parent never holds
        # more than one chunk of columns.
        run, bins = self._build_shared_state(fleet.iter_chunks(), cohorts)
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
        run_token = next(_RUN_TOKENS)

        def vehicle_chunks():
            # Execution pass: each chunk's vehicles as plain records
            # ``(index, scale, temperature, size, storage scale, cohort,
            # load key)`` — the kernel's items and the process payload.
            for chunk in fleet.iter_chunks():
                yield [
                    record[:5] + (cohorts[key], load_key)
                    for key, load_key, record in _keyed_vehicles(chunk, thermal is not None)
                ]

        def kernel(vehicle: tuple):
            pending = _cohort_vehicle_outcome(vehicle[0], vehicle, run)
            # A cohort whose scan can raise scans here, inside the retried
            # kernel, so each vehicle's error is retried or collected on its
            # own; the others scan once the chunk has settled (_finish_chunk).
            return _finish_vehicle(pending) if pending.table.checked else pending

        if self._engine.backend == "process":
            # Fork-inherited sharing: stash the shared state where the worker
            # processes the engine creates below will find it.
            _SHARED_RUNS[run_token] = run
        try:
            report = self._engine.run_chunks(
                vehicle_chunks(),
                kernel,
                lambda _index, outcome: accumulator.add(outcome),
                checkpoint=store,
                max_new_chunks=self.max_chunks,
                process_worker=_process_vehicle,
                process_payload=lambda vehicle: (run_token, vehicle),
                progress=self.progress,
                should_stop=self.should_stop,
                finish=_finish_chunk,
            )
        finally:
            # The forked pools snapshotted the stash at creation; the parent
            # must not keep this run's tables alive once the run is over.
            _SHARED_RUNS.pop(run_token, None)

        partial = report.stopped_early or bool(report.failures)
        metadata = {
            "kind": "fleet",
            "fleet": fleet.name,
            "vehicles": fleet.vehicles,
            "seed": fleet.seed,
            "base_scenario": fleet.base.to_dict(),
            "fleet_document": fleet.to_dict(),
            "groups": 1,
            "cohorts": len(run.tables),
            "fast_path_vehicles": accumulator.vehicles,
            "thermal": thermal.to_dict() if thermal is not None else None,
            "shared_energy_bins": len(bins),
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
