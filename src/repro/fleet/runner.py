"""The fleet runner: cohort-shared emulation of a whole vehicle population.

Running ``NodeEmulator.emulate()`` once per vehicle is correct but wasteful
at fleet scale: every vehicle would rebuild the evaluator, re-walk its drive
cycle and re-evaluate the same revolution energies.  The runner asks the
emulator's own question once per cohort instead:

* **One evaluator** — every vehicle shares the base scenario's
  architecture, workload and power database (no fleet axis touches them),
  so the run builds one :class:`~repro.core.evaluator.EnergyEvaluator` and
  therefore one compiled power table, exactly like a study grid point.
* **Cohorts** — vehicles with the same (drive cycle, quantized speed
  scale) share one walk: the run's probe emulator walks each distinct
  pairing once into a :class:`~repro.core.cycle_plan.CyclePlan`.  Thermal
  fleets (``FleetSpec.thermal``) add the quantized ambient as a third
  cohort axis: the in-tyre
  :class:`~repro.conditions.temperature.TyreThermalModel` is replayed once
  per (cycle, speed-scale, ambient-bin) cohort over its walk — ambients are
  snapped to the shared :func:`~repro.core.quantize.ambient_bin` centers at
  materialization — so the shared path survives thermally realistic
  populations.
* **One resolution** — each isothermal (cohort, temperature bin) and each
  thermal cohort is one request to the emulator's own
  :meth:`~repro.core.emulator.NodeEmulator._resolve_rounds`, the step
  ``emulate()`` takes, and all of them are resolved in ONE call: its single
  :meth:`~repro.core.emulator.NodeEmulator.evaluate_energy_bins` sweep
  covers the union of the population's (speed, temperature, phase-pattern)
  bins, and the batch kernel is bitwise-identical to the per-miss path, so
  shared bins cannot change results.

No vehicle carries a :class:`~repro.scenario.spec.ScenarioSpec`: the
population arrives as column chunks (:class:`~repro.fleet.spec.FleetChunk`),
and the run's components, scavenger and storage element are built once.
A vehicle's load is its (cohort, temperature bin)'s, or its thermal
cohort's; its harvest is its size factor times its walk's unit-size sweep,
exactly as ``build_scavenger`` + ``scaled()`` scale it.

Each vehicle then reduces to its harvest scale and load lookup inside the
engine's retried kernel (:func:`_cohort_vehicle_outcome`).  Once a chunk has
settled, each of its vehicles' ledgers is scanned by the emulator's
:meth:`~repro.core.emulator.NodeEmulator._scan_ledger` — the run-length
scan ``emulate()`` uses — before the chunk is journaled or streamed;
process-backend workers scan in the worker and return finished outcomes.
Per-vehicle figures are bit-identical to a naive ``emulate()`` of the same
vehicle scenario (the throughput benchmark asserts it), so the aggregates
are independent of chunking, worker counts and backends.

Every vehicle takes this one path, and errors keep ``emulate()``'s timing.
A cohort whose scan can raise — a round whose exact-speed schedule cannot be
built, or a thermal trajectory that leaves the modelled temperature range —
scans inside the retried kernel, where ``_scan_ledger`` raises exactly what
a naive ``emulate()`` raises, at the same simulated instant, so each of its
vehicles is retried or collected on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cycle_plan import CyclePlan, round_harvest
from repro.core.emulator import EmulationResult, NodeEmulator, RoundResolution
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
from repro.scavenger.storage import StorageElement, scaled_storage
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine, process_pool_context

__all__ = ["FleetRunner", "run_fleet"]


@dataclass(slots=True)
class _Walk:
    """One (drive cycle, speed scale) pairing of a run.

    ``plan`` is the probe emulator's walk of the scaled cycle, shared by
    every vehicle on it.  ``resolutions`` maps a vehicle's load key — its
    temperature bin, or its ambient (a bin center) on thermal fleets — to
    the probe's :class:`~repro.core.emulator.RoundResolution` of that run;
    both are read-only after discovery.  The first vehicle to need it fills
    ``harvest``: the walk's per-unit harvest at unit size and whether any
    entry is negative.
    """

    plan: CyclePlan
    cycle_name: str
    duration_s: float
    resolutions: dict = field(default_factory=dict)
    harvest: tuple | None = None


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

    ``probe`` is the emulator that resolved the run's cohorts and scans
    their ledgers.  ``scavenger`` is the base scenario's scavenger at its registry size
    (``scavenger_size`` 1).  ``unit`` is that scavenger at size factor 1 when
    it scales through the base class's ``scaled`` and ``energy_sweep_j`` —
    a vehicle's harvest is then its size factor times the walk's sweep of
    ``unit`` — and ``None`` otherwise.  ``storage`` is the base storage
    element, scaled per vehicle.
    """

    fleet: FleetSpec
    probe: NodeEmulator
    walks: list
    scavenger: EnergyScavenger
    unit: EnergyScavenger | None
    storage: StorageElement
    buckets: int


def _vehicle_harvest(run: _Run, walk: _Walk, size: float) -> np.ndarray:
    """One vehicle's per-unit harvest, as ``build_scavenger`` + ``round_harvest`` give it.

    ``build_scavenger`` scales the registry scavenger by ``size`` unless it
    is 1, which sets ``size_factor`` to their product, and the sweep
    multiplies that factor into the raw energies; so the product times the
    walk's unit-size harvest is bitwise the vehicle's own sweep.  A factor
    that is not positive and finite takes the per-vehicle path, which
    raises or computes exactly as the vehicle's own scavenger does.
    """
    scavenger = run.scavenger
    factor = scavenger.size_factor * size if size != 1.0 else scavenger.size_factor
    if run.unit is None or not 0.0 < factor < math.inf:
        return round_harvest(scavenger.scaled(size) if size != 1.0 else scavenger, walk.plan)
    if walk.harvest is None:
        plan = walk.plan
        unit_harvest = np.zeros(len(plan))
        unit_harvest[plan.round_indices] = run.unit.energy_sweep_j(plan.speeds[plan.round_indices])
        walk.harvest = (unit_harvest, bool(np.any(unit_harvest < 0.0)))
    unit_harvest, negative = walk.harvest
    harvest = factor * unit_harvest
    if negative and np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    return harvest


@dataclass(slots=True)
class _PendingScan:
    """One vehicle between its inputs phase and its ledger scan.

    Holds the vehicle's record, its walk, its cohort's resolution, its
    storage element (parameters only) and harvest — what
    :func:`_finish_vehicle` scans.
    """

    vehicle: tuple
    run: _Run
    walk: _Walk
    resolution: RoundResolution
    storage: StorageElement
    harvest: np.ndarray


def _cohort_vehicle_outcome(vehicle_index: int, vehicle: tuple, run: _Run) -> _PendingScan:
    """One vehicle's ledger inputs: its walk's harvest scaled, its resolved load.

    ``vehicle`` is the record ``(index, speed scale, temperature, scavenger
    size, storage scale, walk, load key)``; its index also leads the
    arguments, where fault-injection wrappers select a vehicle.  The harvest
    is ``emulate()``'s harvest sweep (see :func:`_vehicle_harvest`) and the
    load the probe's ``_resolve_rounds`` gave the vehicle's load key.  The
    ledger scan and summary follow in :func:`_finish_vehicle`, so the
    figures are bit-identical to a naive per-vehicle ``emulate()`` (with the
    fleet's thermal model, for thermal cohorts).
    """
    _index, _scale, _temperature, size, storage_scale, walk, load_key = vehicle
    walk = run.walks[walk]
    harvest = _vehicle_harvest(run, walk, size)
    storage = scaled_storage(run.storage, storage_scale)
    return _PendingScan(vehicle, run, walk, walk.resolutions[load_key], storage, harvest)


def _finish_vehicle(pending: _PendingScan) -> dict[str, object]:
    """Scan a pending vehicle's ledger; its summary, survival and row.

    The row's key order is the one every stored and exported fleet has.
    The scan is ``emulate()``'s own
    :meth:`~repro.core.emulator.NodeEmulator._scan_ledger`, which raises
    the naive run's error, if it has one.
    """
    walk = pending.walk
    plan = walk.plan
    run = pending.run
    traj = run.probe._scan_ledger(pending.resolution, pending.storage, pending.harvest)
    result = EmulationResult(
        node_name=run.probe.node.name,
        cycle_name=walk.cycle_name,
        duration_s=walk.duration_s,
    )
    result.record_totals(
        plan, pending.harvest, traj.banked_j, traj.drawn_j, traj.withdrew, traj.brownout_events
    )
    sample_active = traj.active[plan.sample_units]
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
            plan.sample_times, sample_active, walk.duration_s, run.buckets
        ),
    }


def _finish_chunk(results: list) -> list:
    """Scan a settled chunk's pending vehicles, in place and in order.

    Failed items (``None``) and finished outcomes (cohorts whose scan can
    raise) pass through untouched.
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
    """One column chunk's ``(walk key, load key, record)`` per vehicle.

    A walk key is ``(cycle reference repr, speed scale)``; a load key is the
    vehicle's temperature bin, or its ambient (a bin center) on thermal
    fleets, whose cohorts are (walk key, load key) pairs.
    """
    cycles = [repr(ref) for ref in chunk.cycles]
    records = chunk.records()
    if thermal:
        load_keys = [record[2] for record in records]
    else:
        load_keys = temperature_bins(chunk.temperature_c).astype(np.int64).tolist()
    for record, load_key in zip(records, load_keys):
        _index, scale, _temperature, _size, _storage, code = record
        yield (cycles[code], scale), load_key, record


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
            # Process workers inherit the shared walks by fork only:
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

    def _build_shared_state(self, chunks, walks: dict) -> tuple[_Run, int, int]:
        """The run's components, walks and resolved cohorts.

        One streaming discovery pass: column chunks arrive one at a time and
        are *discarded* after inspection — the parent only retains one walk
        per distinct (cycle, scale) and one request per load key on it (bounded
        by the distinct (cycle, scale, temperature) combinations, not by the
        population size).  ``walks`` (walk key -> number) is filled in
        vehicle order.  The probe then resolves every request in ONE
        ``_resolve_rounds`` call into a run-local bin dict — never its own
        capped cache, which a large population would overflow — so the one
        cross-vehicle sweep covers the union of bins.  Returns the shared
        :class:`_Run`, the cohort count and the swept-bin count.
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
        storage = base.build_storage()
        probe = NodeEmulator(
            node,
            database,
            scavenger,
            storage,
            base_point=base.operating_point(),
            evaluator=evaluator,
        )
        run = _Run(
            fleet=fleet,
            probe=probe,
            walks=[],
            scavenger=scavenger,
            unit=replace(scavenger, size_factor=1.0) if linear else None,
            storage=storage,
            buckets=self.survival_buckets,
        )
        drive_cycles: dict[str, object] = {}
        requests: list[tuple] = []
        for chunk in chunks:
            for key, load_key, record in _keyed_vehicles(chunk, thermal is not None):
                number = walks.get(key)
                if number is None:
                    number = walks[key] = len(run.walks)
                    if key[0] not in drive_cycles:
                        ref = chunk.cycles[record[5]]
                        drive_cycles[key[0]] = base.with_axes(drive_cycle=ref).build_drive_cycle()
                    cycle = drive_cycles[key[0]].scaled(key[1])
                    plan = probe.materialize_cycle(cycle, self.idle_step_s, self.record_interval_s)
                    run.walks.append(_Walk(plan, cycle.name, cycle.duration_s))
                walk = run.walks[number]
                if load_key in walk.resolutions:
                    continue
                walk.resolutions[load_key] = len(requests)
                if thermal is None:
                    requests.append((walk.plan, temperature_bin_center_c(load_key), None))
                else:
                    # A thermal cohort replays a freshly built model at its
                    # bin-center ambient — which IS every member vehicle's
                    # (materialization-snapped) ambient, so the replayed
                    # trajectory equals each vehicle's own.
                    requests.append((walk.plan, load_key, thermal.build(load_key)))

        bins: dict = {}
        resolutions = probe._resolve_rounds(requests, bins, bins.__setitem__)
        for walk in run.walks:
            for load_key, position in walk.resolutions.items():
                walk.resolutions[load_key] = resolutions[position]
        cohorts = len(requests) if thermal is not None else len(run.walks)
        return run, cohorts, len(bins)

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
        walks: dict = {}
        # Discovery pass: stream the population once to find the walks,
        # cohorts and energy bins; chunks are discarded, so the parent never
        # holds more than one chunk of columns.
        run, cohorts, shared_bins = self._build_shared_state(fleet.iter_chunks(), walks)
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
            # ``(index, scale, temperature, size, storage scale, walk, load
            # key)`` — the kernel's items and the process payload.
            for chunk in fleet.iter_chunks():
                yield [
                    record[:5] + (walks[key], load_key)
                    for key, load_key, record in _keyed_vehicles(chunk, thermal is not None)
                ]

        def kernel(vehicle: tuple):
            pending = _cohort_vehicle_outcome(vehicle[0], vehicle, run)
            # A cohort whose scan can raise scans here, inside the retried
            # kernel, so each vehicle's error is retried or collected on its
            # own; the others scan once the chunk has settled (_finish_chunk).
            return _finish_vehicle(pending) if pending.resolution.checked else pending

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
            # must not keep this run's walks alive once the run is over.
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
            "cohorts": cohorts,
            "fast_path_vehicles": accumulator.vehicles,
            "thermal": thermal.to_dict() if thermal is not None else None,
            "shared_energy_bins": shared_bins,
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
