"""The fleet runner: cohort-shared emulation of a whole vehicle population.

Running ``NodeEmulator.emulate()`` once per vehicle is correct but wasteful
at fleet scale: every vehicle would rebuild the evaluator, re-walk its drive
cycle and re-evaluate the same revolution energies.  The runner asks the
emulator's own question once per cohort instead:

* **One evaluator** — no fleet axis touches the architecture, workload or
  power database, so a run builds one
  :class:`~repro.core.evaluator.EnergyEvaluator` and one compiled table.
* **Walks and cohorts** — vehicles with the same (drive cycle, quantized
  speed scale) share one walk, a
  :class:`~repro.core.cycle_plan.CyclePlan` the run's probe emulator builds
  once.  Thermal fleets (``FleetSpec.thermal``) add the ambient, snapped to
  the shared :func:`~repro.core.quantize.ambient_bin` centers at
  materialization, as a third cohort axis, so one
  :meth:`~repro.conditions.temperature.TyreThermalModel.advance_many`
  replay per cohort is every member vehicle's own trajectory.
* **One resolution** — each isothermal (walk, temperature bin) and each
  thermal cohort is one request to the emulator's own
  :meth:`~repro.core.emulator.NodeEmulator._resolve_rounds`, all in ONE
  call.  Its keys stay numbers: (slot, temperature bin) codes index the
  walks' slot columns, the union of the population's evaluation points is
  one :meth:`~repro.core.emulator.NodeEmulator.evaluate_energy_bins` sweep,
  and each walk's loads are one gather.  The batch kernel is bitwise the
  scalar per-round path, so sharing changes no result.

No vehicle carries a :class:`~repro.scenario.spec.ScenarioSpec`: the
population arrives as column chunks (:class:`~repro.fleet.spec.FleetChunk`).
A vehicle is its walk's unit-size harvest times its size factor (exactly as
``build_scavenger`` + ``scaled()`` scale it), its request's load, its
storage levels (:func:`~repro.scavenger.storage.scaled_levels`) and its
ledger.  What does not depend on the vehicle is built once, next to the
resolutions:

* **per walk** — the ledger's leak side
  (:func:`~repro.scavenger.storage.ledger_leak`), the survival bucketing,
  what every free ledger's row shares (the figures of a ledger that drew
  on every unit, as the row's constant tail, and the read-only survival
  curve) and the certificate's envelope: the elementwise minimum and
  maximum ``(D_lo, D_hi)`` of its certifiable cohorts' ``D``.  The first
  vehicle on the walk adds its unit-size harvest sweep and that sweep's
  prefix sum ``U`` (in its kernel, so that a failing sweep fails that
  vehicle, which the engine retries, and not the run);
* **per cohort** — the hoisted ledger demand
  (:func:`~repro.scavenger.storage.ledger_demand`: the load at the storage
  element divided by the discharge efficiency, and its check), valid for
  every vehicle because a scaled storage element differs in capacity and
  thresholds only, the load's sum, and whether its vehicles may be
  certified; its ``D``, the prefix sum of ``required + leak``, is folded
  into the walk's envelope.

A vehicle's kernel only gathers its inputs: the factor its harvest scales
the walk's unit-size harvest by (the ``n``-array is formed only if the
vehicle is scanned) and its storage levels.  Eligible for the certificate
are vehicles whose harvest is their size factor times the walk's
non-negative unit-size sweep, in a cohort whose scan cannot raise, runs to
the end of its plan and has a non-negative load over valid durations.
Once a chunk has settled, its eligible vehicles are finished per walk:
ONE :func:`~repro.scavenger.storage.certify_free` call, a
floating-point-sound bound, decides from ``U``, the walk's envelope, the
vehicles' gains and their storage levels, without scanning, which ledgers
the scan would find free (monotone rounding lets one evaluation of its two
maxima, at the group's extreme gains, cover every vehicle; each vehicle
then makes two comparisons).  A certified ledger is the walk's constant
tail plus four columns: its banked and discarded sums are row sums of a
``(V, n)`` matrix formed in a scratch buffer the run holds, and its
consumed and net energies follow from its cohort's load.  Any other
ledger is scanned by the emulator's
:meth:`~repro.core.emulator.NodeEmulator._scan_ledger`, the scan
``emulate()`` uses, over a storage element built for it; a scan that
finds the ledger free finishes it the same way, and any other ledger takes
its totals and survival from its trajectory.  Per-vehicle figures are
bit-identical to a naive ``emulate()`` of the same vehicle scenario, so the
rows and aggregates are a pure function of the fleet document (whose
``chunk_vehicles`` seeds each chunk's random stream, so it is part of that
document).  Every fleet runs on the engine's sequential path.

Errors keep ``emulate()``'s timing: a cohort whose scan can raise (a round
whose exact-speed schedule cannot be built, or a thermal trajectory leaving
the modelled range) scans inside the engine's retried kernel, where
``_scan_ledger`` raises what a naive ``emulate()`` raises, at the same
instant, so each of its vehicles is retried or collected on its own.
"""

from __future__ import annotations

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
from repro.scavenger.storage import (
    LedgerDemand,
    StorageElement,
    certify_free,
    ledger_leak,
    scaled_levels,
    scaled_storage,
)
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.engine import ChunkedEngine

__all__ = ["FleetRunner", "run_fleet"]


@dataclass(slots=True)
class _Walk:
    """One (drive cycle, speed scale) pairing of a run.

    ``plan`` is the probe emulator's walk of the scaled cycle, shared by
    every vehicle on it.  ``cohorts`` maps a vehicle's load key — its
    temperature bin, or its ambient (a bin center) on thermal fleets — to
    its :class:`_Cohort`.  ``survival`` is the walk's survival bucketing
    (:func:`_survival_buckets`).  Discovery fills ``free``, the row figures
    and survival curve every free ledger on the walk shares
    (:func:`_free_figures`), and ``envelope``, the ``(2, n + 1)`` stack of
    the elementwise minimum and maximum of its certifiable cohorts' ``D``
    (:func:`_demand_prefix`), or ``None`` when none is; all of these are
    read-only afterwards.  The first vehicle to need it fills ``harvest``:
    the walk's per-unit harvest at unit size, whether any entry is
    negative, and its inclusive prefix sum (the certificate's ``U``,
    :func:`~repro.scavenger.storage.certify_free`).  It is filled in the
    vehicle's kernel, not at discovery, so that a failing sweep fails that
    vehicle, which the engine retries or records, and not the run.
    """

    plan: CyclePlan
    cycle_name: str
    duration_s: float
    survival: tuple | None
    cohorts: dict = field(default_factory=dict)
    free: tuple | None = None
    envelope: np.ndarray | None = None
    harvest: tuple | None = None


@dataclass(slots=True, frozen=True)
class _Cohort:
    """One load key on a walk: what its vehicles share besides the walk.

    ``resolution`` is the probe's
    :class:`~repro.core.emulator.RoundResolution` of the cohort's run,
    ``demand`` its hoisted ledger demand (valid for every vehicle, whose
    scaled storage elements differ from the base one in capacity and
    thresholds only) and ``consumed_j`` the load's sum: what a free ledger
    draws.  ``certifiable`` says whether its vehicles may be certified; its
    ``D`` is then folded into its walk's ``envelope``.
    """

    resolution: RoundResolution
    demand: LedgerDemand
    consumed_j: float
    certifiable: bool


def _demand_prefix(resolution: RoundResolution, demand: LedgerDemand) -> np.ndarray | None:
    """The certificate's ``D`` of a cohort, or ``None`` if it may not certify.

    ``D`` is the exclusive prefix sum of ``required + leak``.  Only a cohort
    whose scan cannot raise and runs to the end of its plan, with a
    non-negative load and valid durations throughout, certifies: any other
    cohort's vehicles are scanned, which raises what they raise.
    """
    count = len(resolution.plan)
    if (
        resolution.checked
        or resolution.end != count
        or demand.negative_load
        or demand.leak.valid_steps < count
    ):
        return None
    prefix = np.zeros(count + 1)
    np.cumsum(demand.required + demand.leak.amounts, out=prefix[1:])
    return prefix


def _survival_buckets(plan: CyclePlan, duration_s: float, buckets: int) -> tuple | None:
    """Each record time's survival bucket, the buckets with records and their counts (>= 1).

    Every vehicle on a walk shares them; ``None`` without records or duration.
    """
    times = plan.sample_times
    if times.size == 0 or duration_s <= 0.0:
        return None
    index = np.minimum((times / duration_s * buckets).astype(np.intp), buckets - 1)
    counts = np.bincount(index, minlength=buckets)
    return index, counts > 0, np.maximum(counts, 1)


def _survival_from_samples(walk: _Walk, active: np.ndarray, buckets: int) -> np.ndarray:
    """Per-bucket active fraction of one vehicle's state log (``active`` at the record times)."""
    if walk.survival is None:
        return np.full(buckets, np.nan)
    index, sampled, divisor = walk.survival
    active_counts = np.bincount(index, weights=active.astype(float), minlength=buckets)
    return np.where(sampled, active_counts / divisor, np.nan)


def _row_tail(walk: _Walk, active: np.ndarray, buckets: int) -> tuple:
    """A vehicle's survival and ``active_at_end`` from its per-unit ``active`` flags."""
    sample_active = active[walk.plan.sample_units]
    at_end = bool(sample_active[-1]) if sample_active.size else False
    return _survival_from_samples(walk, sample_active, buckets), at_end


def _figures(result: EmulationResult, active_at_end: bool) -> dict[str, object]:
    """A row's figures after its head: ``summary()``, the brown-out rate, ``active_at_end``."""
    figures = result.summary()
    hours = result.duration_s / 3600.0
    rate = figures["brownout_events"] / hours if hours > 0.0 else float("nan")
    figures["brownout_per_hour"] = rate
    figures["active_at_end"] = active_at_end
    return figures


def _free_figures(walk: _Walk, buckets: int) -> tuple:
    """What every free ledger on ``walk`` shares: its row's constant tail and survival.

    A free ledger drew on every unit, so these are
    :meth:`~repro.core.emulator.EmulationResult.record_totals`' figures
    and :func:`_row_tail` with every flag set, evaluated once per walk.
    The tail is :func:`_figures` with the four energy columns zero
    (:func:`_free_row` writes them); the survival curve is read-only, as
    every free vehicle's outcome holds it.
    """
    plan = walk.plan
    drew = np.ones(len(plan), dtype=bool)
    result = EmulationResult(
        "",
        walk.cycle_name,
        walk.duration_s,
        revolutions=plan.revolutions,
        moving_time_s=plan.moving_time_s,
        active_revolutions=int((plan.is_round & drew).sum()),
        active_time_s=float(plan.durations[drew].sum()),
    )
    survival, active_at_end = _row_tail(walk, drew, buckets)
    survival.setflags(write=False)
    return _figures(result, active_at_end), survival


@dataclass(slots=True)
class _Run:
    """What every vehicle of one run shares (read-only during execution).

    ``probe`` is the emulator that resolved the run's cohorts and scans
    their ledgers.  ``scavenger`` is the base scenario's scavenger at its registry size
    (``scavenger_size`` 1).  ``unit`` is that scavenger at size factor 1 when
    it scales through the base class's ``scaled`` and ``energy_sweep_j`` —
    a vehicle's harvest is then its size factor times the walk's sweep of
    ``unit`` — and ``None`` otherwise.  ``storage`` is the base storage
    element, scaled per vehicle.  ``scratch`` is the finish's reused buffer
    for the harvest matrices of certified vehicles (:func:`_finish_walk`),
    grown on demand and held by the run alone.
    """

    fleet: FleetSpec
    probe: NodeEmulator
    walks: list
    scavenger: EnergyScavenger
    unit: EnergyScavenger | None
    storage: StorageElement
    buckets: int
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0))


def _vehicle_harvest(
    run: _Run, walk: _Walk, size: float, certifiable: bool
) -> tuple[np.ndarray | None, float | None]:
    """One vehicle's per-unit harvest, as ``build_scavenger`` + ``round_harvest`` give it.

    ``build_scavenger`` scales the registry scavenger by ``size`` unless it
    is 1, which sets ``size_factor`` to their product, and the sweep
    multiplies that factor into the raw energies; so the product times the
    walk's unit-size harvest is bitwise the vehicle's own sweep.  A factor
    that is not positive and finite takes the per-vehicle path, which
    raises or computes exactly as the vehicle's own scavenger does.

    Returns ``(harvest, None)``, or ``(None, factor)`` when the harvest is
    ``factor`` times the walk's non-negative unit-size harvest and the
    vehicle's cohort is ``certifiable``: such a vehicle is finished with
    its walk (:func:`_finish_walk`), which forms the harvest only if it
    has to.
    """
    scavenger = run.scavenger
    factor = scavenger.size_factor * size if size != 1.0 else scavenger.size_factor
    if run.unit is None or not 0.0 < factor < math.inf:
        return round_harvest(scavenger.scaled(size) if size != 1.0 else scavenger, walk.plan), None
    if walk.harvest is None:
        plan = walk.plan
        unit_harvest = np.zeros(len(plan))
        unit_harvest[plan.round_indices] = run.unit.energy_sweep_j(plan.speeds[plan.round_indices])
        unit_harvest.setflags(write=False)
        prefix = np.cumsum(unit_harvest)
        prefix.setflags(write=False)
        walk.harvest = (unit_harvest, bool(np.any(unit_harvest < 0.0)), prefix)
    unit_harvest, negative, _prefix = walk.harvest
    if certifiable and not negative:
        return None, factor
    harvest = factor * unit_harvest
    if negative and np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    return harvest, None


@dataclass(slots=True)
class _PendingScan:
    """One vehicle between its inputs phase and its ledger.

    Holds the vehicle's record, its walk, its cohort, its storage levels
    (:func:`~repro.scavenger.storage.scaled_levels`) and either its harvest
    or the factor that scales the walk's unit-size harvest into it
    (:func:`_vehicle_harvest`): what :func:`_finish_chunk` certifies or
    scans.
    """

    vehicle: tuple
    run: _Run
    walk: _Walk
    cohort: _Cohort
    levels: tuple
    harvest: np.ndarray | None
    factor: float | None


def _cohort_vehicle_outcome(vehicle_index: int, vehicle: tuple, run: _Run) -> _PendingScan:
    """One vehicle's ledger inputs: its walk's harvest scaled, its resolved load.

    ``vehicle`` is the record ``(index, speed scale, temperature, scavenger
    size, storage scale, walk, load key)``; its index also leads the
    arguments, where fault-injection wrappers select a vehicle.  The harvest
    is ``emulate()``'s harvest sweep (see :func:`_vehicle_harvest`) and the
    load the probe's ``_resolve_rounds`` gave the vehicle's load key.  The
    ledger and summary follow in :func:`_finish_chunk`, so the figures
    are bit-identical to a naive per-vehicle ``emulate()`` (with the
    fleet's thermal model, for thermal cohorts).
    """
    _index, _scale, _temperature, size, storage_scale, walk, load_key = vehicle
    walk = run.walks[walk]
    cohort = walk.cohorts[load_key]
    harvest, factor = _vehicle_harvest(run, walk, size, cohort.certifiable)
    levels = scaled_levels(run.storage, storage_scale)
    return _PendingScan(vehicle, run, walk, cohort, levels, harvest, factor)


def _head(vehicle: tuple, run: _Run, walk: _Walk) -> dict[str, object]:
    """A row's leading columns: the vehicle's record, its scenario name and cycle."""
    index, speed_scale, temperature, size, storage_scale = vehicle[:5]
    return {
        "vehicle": index,
        "scenario": run.fleet.vehicle_name(index),
        "cycle": walk.cycle_name,
        "speed_scale": speed_scale,
        "temperature_c": temperature,
        "scavenger_size": size,
        "storage_scale": storage_scale,
    }


def _free_row(pending: _PendingScan, harvested_j: float, discarded_j: float) -> dict:
    """A free ledger's outcome: its head, its harvest totals and its walk's constant tail.

    Every figure but the harvest totals is the walk's and the cohort's;
    the values are those ``summary()`` computes from the same totals.
    """
    walk = pending.walk
    consumed_j = pending.cohort.consumed_j
    tail, survival = walk.free
    row = _head(pending.vehicle, pending.run, walk)
    row.update(tail)
    row["harvested_mj"] = harvested_j * 1e3
    row["consumed_mj"] = consumed_j * 1e3
    row["net_mj"] = (harvested_j - consumed_j) * 1e3
    row["discarded_mj"] = discarded_j * 1e3
    return {"row": row, "survival": survival}


def _finish_vehicle(pending: _PendingScan) -> dict[str, object]:
    """Scan a pending vehicle's ledger; its row and survival.

    The row's key order is the one every stored and exported fleet has.
    The ledger is scanned by ``emulate()``'s own
    :meth:`~repro.core.emulator.NodeEmulator._scan_ledger` over the
    cohort's hoisted demand, which raises the naive run's error, if it has
    one.  A ledger the scan finds free is a :func:`_free_row` whose banked
    energies are the scan's; any other takes its totals and survival from
    its trajectory.
    """
    walk = pending.walk
    run = pending.run
    cohort = pending.cohort
    harvest = pending.harvest
    if harvest is None:
        harvest = pending.factor * walk.harvest[0]
    storage = scaled_storage(run.storage, pending.vehicle[4])
    traj = run.probe._scan_ledger(cohort.resolution, storage, harvest, cohort.demand)
    banked = traj.banked_j
    if traj.free:
        return _free_row(
            pending, float(banked.sum()), float(np.maximum(0.0, harvest - banked).sum())
        )
    result = EmulationResult(run.probe.node.name, walk.cycle_name, walk.duration_s)
    result.record_totals(
        walk.plan, harvest, banked, traj.drawn_j, traj.withdrew, traj.brownout_events
    )
    survival, active_at_end = _row_tail(walk, traj.active, run.buckets)
    row = _head(pending.vehicle, run, walk)
    row.update(_figures(result, active_at_end))
    return {"row": row, "survival": survival}


#: Certified vehicles whose harvest matrices :func:`_finish_walk` forms at
#: once: it bounds the run's scratch buffer to two such blocks.
_BLOCK_ROWS = 64


def _finish_walk(results: list, slots: list, group: list) -> None:
    """Finish one walk's eligible vehicles of a settled chunk, into ``results``.

    One :func:`~repro.scavenger.storage.certify_free` call decides every
    vehicle, against the walk's ``envelope``.  A certified vehicle is a
    :func:`_free_row`: its banked energies are ``(factor * unit) *
    charge_efficiency``, what the scan would store, formed as rows of a
    ``(V, n)`` matrix in the run's scratch buffer, and its harvest totals
    are row sums, bitwise the per-vehicle 1-D sums on numpy (pinned by
    ``tests/fleet/test_row_sums.py``).  A declined vehicle is scanned
    (:func:`_finish_vehicle`).
    """
    first = group[0]
    run, walk = first.run, first.walk
    unit, _negative, prefix = walk.harvest
    efficiency = run.storage.charge_efficiency
    factors = np.array([pending.factor for pending in group])
    levels = np.array([pending.levels for pending in group])
    charges = levels[:, 1]
    decided = certify_free(
        prefix, factors * efficiency, walk.envelope, charges, charges >= levels[:, 2], levels[:, 0]
    )
    certified = []
    # A single (scalar) decision speaks for every row.
    for row, free in enumerate(np.broadcast_to(decided, len(group)).tolist()):
        if free:
            certified.append(row)
        else:
            results[slots[row]] = _finish_vehicle(group[row])
    count = len(unit)
    for start in range(0, len(certified), _BLOCK_ROWS):
        rows = certified[start : start + _BLOCK_ROWS]
        size = len(rows) * count
        if run.scratch.size < 2 * size:
            run.scratch = np.empty(2 * size)
        harvest = run.scratch[:size].reshape(len(rows), count)
        banked = run.scratch[size : 2 * size].reshape(len(rows), count)
        np.multiply(factors[rows, None], unit, out=harvest)
        np.multiply(harvest, efficiency, out=banked)
        harvested = banked.sum(axis=1).tolist()
        # ``maximum(0, harvest - banked)`` is the difference itself: an
        # efficiency in (0, 1] rounds a non-negative harvest to at most
        # itself, and NaN passes through both.
        np.subtract(harvest, banked, out=harvest)
        discarded = harvest.sum(axis=1).tolist()
        for row, harvested_j, discarded_j in zip(rows, harvested, discarded):
            results[slots[row]] = _free_row(group[row], harvested_j, discarded_j)


def _finish_chunk(results: list) -> list:
    """Finish a settled chunk's pending vehicles, in place and in order.

    Vehicles whose harvest is a factor times their walk's unit-size harvest
    in a certifiable cohort are finished per walk (:func:`_finish_walk`);
    any other pending vehicle is scanned on its own.  Failed items
    (``None``) and finished outcomes (cohorts whose scan can raise) pass
    through untouched.
    """
    walks: dict[int, tuple[list, list]] = {}
    for slot, value in enumerate(results):
        if not isinstance(value, _PendingScan):
            continue
        if value.harvest is not None:
            results[slot] = _finish_vehicle(value)
            continue
        slots, group = walks.setdefault(id(value.walk), ([], []))
        slots.append(slot)
        group.append(value)
    for slots, group in walks.values():
        _finish_walk(results, slots, group)
    return results


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
        retries: per-vehicle retry budget for transient failures (the
            engine's retry policy): with ``retries > 0`` the run degrades
            gracefully — failed vehicles are reported on the result
            metadata instead of aborting the whole fleet; with 0 the first
            failure raises.
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
        survival_buckets: int = DEFAULT_SURVIVAL_BUCKETS,
        keep_vehicle_rows: bool = True,
        record_interval_s: float = 1.0,
        idle_step_s: float = 1.0,
        checkpoint: str | None = None,
        max_chunks: int | None = None,
        retries: int = 0,
        progress=None,
        should_stop=None,
        evaluator_cache=None,
    ) -> None:
        if not isinstance(fleet, FleetSpec):
            raise ConfigError(f"a fleet runner needs a FleetSpec, got {type(fleet).__name__}")
        for label, value in (("record interval", record_interval_s), ("idle step", idle_step_s)):
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
                or value <= 0.0
            ):
                raise ConfigError(f"{label} must be a positive finite number, got {value!r}")
        if evaluator_cache is not None and not callable(
            getattr(evaluator_cache, "get", None)
        ):
            raise ConfigError(
                "evaluator_cache must expose get(key, builder) "
                f"(e.g. repro.serve.EvaluatorLRU), got {type(evaluator_cache).__name__}"
            )
        self.fleet = fleet
        self.survival_buckets = FleetAccumulator.validate_buckets(survival_buckets)
        self.keep_vehicle_rows = keep_vehicle_rows
        self.record_interval_s = record_interval_s
        self.idle_step_s = idle_step_s
        self.checkpoint = checkpoint
        self.max_chunks = max_chunks
        self.progress = progress
        self.should_stop = should_stop
        self._evaluator_cache = evaluator_cache
        # Validates retries eagerly (same rule as studies).
        self._engine = ChunkedEngine(retries=retries)
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
        are *discarded* after inspection — the run only retains one walk
        per distinct (cycle, scale) and one request per load key on it (bounded
        by the distinct (cycle, scale, temperature) combinations, not by the
        population size).  ``walks`` (walk key -> number) is filled in
        vehicle order.  The probe then resolves every request in ONE
        ``_resolve_rounds`` call, and the one cross-vehicle sweep covers the
        union of bins.  Returns the
        shared :class:`_Run`, the cohort count and the swept-bin count.
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
                    survival = _survival_buckets(plan, cycle.duration_s, run.buckets)
                    run.walks.append(_Walk(plan, cycle.name, cycle.duration_s, survival))
                walk = run.walks[number]
                if load_key in walk.cohorts:
                    continue
                walk.cohorts[load_key] = len(requests)
                if thermal is None:
                    requests.append((walk.plan, temperature_bin_center_c(load_key), None))
                else:
                    # A thermal cohort replays a freshly built model at its
                    # bin-center ambient — which IS every member vehicle's
                    # (materialization-snapped) ambient, so the replayed
                    # trajectory equals each vehicle's own.
                    requests.append((walk.plan, load_key, thermal.build(load_key)))

        resolutions = probe._resolve_rounds(requests)
        for walk in run.walks:
            # The ledger constants: the leak per walk, the demand per cohort,
            # and the envelope of the certifiable cohorts' D per walk.
            leak = ledger_leak(storage, walk.plan.durations)
            walk.free = _free_figures(walk, run.buckets)
            for load_key, position in walk.cohorts.items():
                resolution = resolutions[position]
                demand = probe._ledger_demand(resolution, storage, leak)
                # Only a linear scavenger's vehicles are ever certified.
                prefix = _demand_prefix(resolution, demand) if run.unit is not None else None
                if prefix is not None:
                    if walk.envelope is None:
                        walk.envelope = np.stack([prefix, prefix])
                    else:
                        np.minimum(walk.envelope[0], prefix, out=walk.envelope[0])
                        np.maximum(walk.envelope[1], prefix, out=walk.envelope[1])
                walk.cohorts[load_key] = _Cohort(
                    resolution, demand, float(demand.load.sum()), prefix is not None
                )
            if walk.envelope is not None:
                walk.envelope.setflags(write=False)
        cohorts = len(requests) if thermal is not None else len(run.walks)
        swept = int(np.count_nonzero(~np.isnan(resolutions[0].energies))) if resolutions else 0
        return run, cohorts, swept

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
        """Discover (streaming), share, run chunk by chunk, aggregate."""
        fleet = self.fleet
        thermal = fleet.thermal
        walks: dict = {}
        # Discovery pass: stream the population once to find the walks,
        # cohorts and energy bins; chunks are discarded, so the run never
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

        def vehicle_chunks():
            # Execution pass: each chunk's vehicles as plain records
            # ``(index, scale, temperature, size, storage scale, walk, load
            # key)``, the kernel's items.
            for chunk in fleet.iter_chunks():
                yield [
                    record[:5] + (walks[key], load_key)
                    for key, load_key, record in _keyed_vehicles(chunk, thermal is not None)
                ]

        def kernel(vehicle: tuple):
            pending = _cohort_vehicle_outcome(vehicle[0], vehicle, run)
            # A cohort whose scan can raise scans here, inside the retried
            # kernel, so each vehicle's error is retried or collected on its
            # own; the others finish once the chunk has settled (_finish_chunk).
            return _finish_vehicle(pending) if pending.cohort.resolution.checked else pending

        report = self._engine.run_chunks(
            vehicle_chunks(),
            kernel,
            lambda _index, outcome: accumulator.add(outcome),
            checkpoint=store,
            max_new_chunks=self.max_chunks,
            progress=self.progress,
            should_stop=self.should_stop,
            finish=_finish_chunk,
        )

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


def run_fleet(fleet: FleetSpec, **options) -> FleetResult:
    """One-call convenience wrapper: build a :class:`FleetRunner` and run it."""
    return FleetRunner(fleet, **options).run()
