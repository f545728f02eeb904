"""Span recorder and layer probes for the traced benchmark run.

The traced run times the calls into each ``repro`` layer from the outside,
so no program code changes: module functions are wrapped at every import
site (``repro.fleet.runner.trajectory`` and ``repro.core.emulator.trajectory``
are the same function under two names), methods on their classes.  Every
wrapped call records one span — id, parent, layer, target, start, end,
thread and request id — in memory, and folds its *self time* (duration
minus the time of its child spans) into per-thread sums.  Counts are taken
at a layer's outermost call only, so a layer calling itself
(``trajectory`` -> ``reference_scan``) does the work once and counts once.

A target missing from the program (renamed or deleted by a later change)
is skipped and listed on the :class:`Recorder`; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

from perfbench.common import REQUEST


class Layer:
    """One probe: the spans it records and the metric its self time feeds."""

    __slots__ = ("name", "time_metric", "calls_metric", "targets")

    def __init__(self, name, time_metric, calls_metric, targets):
        self.name = name
        self.time_metric = time_metric
        self.calls_metric = calls_metric
        self.targets = targets


class Target:
    """A wrapped callable: ``module.name`` or ``module.cls.name``.

    ``counts`` maps a metric to ``measure(args, kwargs, result)``, added at
    the layer's outermost call.  ``request`` computes a request id from the
    call's arguments; it then labels this span and every span nested in it.
    ``subclasses`` also wraps the method on every subclass overriding it.
    """

    __slots__ = ("module", "cls", "name", "counts", "request", "subclasses", "optional")

    def __init__(
        self, module, name, cls=None, counts=None, request=None, subclasses=False, optional=False
    ):
        self.module = module
        self.cls = cls
        self.name = name
        self.counts = counts or {}
        self.request = request
        self.subclasses = subclasses
        self.optional = optional

    @property
    def label(self) -> str:
        owner = f"{self.module}.{self.cls}" if self.cls else self.module
        return f"{owner}.{self.name}"


class _ThreadState:
    __slots__ = ("thread", "stack", "depth", "sums", "spans")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: list[list] = []
        self.depth: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.spans: list[tuple] = []


class Recorder:
    """Holds spans and sums per thread; merges them on export."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Targets the program no longer defines.  ``skipped`` holds the
        #: optional ones: private helpers a refactor may legitimately
        #: delete, and the forward-looking ``batched_scan``.
        self.missing: list[str] = []
        self.skipped: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- span boundaries ------------------------------------------------------

    def enter(self, layer: Layer, target: str) -> list:
        state = self._state()
        parent = state.stack[-1][0] if state.stack else None
        state.depth[layer.name] = state.depth.get(layer.name, 0) + 1
        frame = [next(self._ids), layer, target, parent, 0.0, 0.0, state]
        state.stack.append(frame)
        frame[5] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> bool:
        """Close a span; returns whether it was the layer's outermost call."""
        end = time.perf_counter()
        span_id, layer, target, parent, child_s, start, state = frame
        state.stack.pop()
        duration = end - start
        if state.stack:
            state.stack[-1][4] += duration
        sums = state.sums
        if layer.time_metric is not None:
            sums[layer.time_metric] = sums.get(layer.time_metric, 0.0) + duration - child_s
        depth = state.depth[layer.name] - 1
        state.depth[layer.name] = depth
        if depth == 0 and layer.calls_metric is not None:
            sums[layer.calls_metric] = sums.get(layer.calls_metric, 0) + 1
        state.spans.append(
            (span_id, parent, layer.name, target, start, end, state.thread, REQUEST.get())
        )
        return depth == 0

    def add(self, metric: str, value: float) -> None:
        sums = self._state().sums
        sums[metric] = sums.get(metric, 0) + value

    def _count(self, counts, args, kwargs, result) -> None:
        for metric, measure in counts.items():
            try:
                value = measure(args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError):
                continue  # the program changed shape under this count
            self.add(metric, value)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, layer: Layer, target: Target, func):
        recorder = self
        label = target.label
        counts = target.counts
        request = target.request

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def traced_generator(*args, **kwargs):
                iterator = func(*args, **kwargs)
                try:
                    while True:
                        frame = recorder.enter(layer, label)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            recorder.exit(frame)
                            return
                        except BaseException:
                            recorder.exit(frame)
                            raise
                        if recorder.exit(frame) and counts:
                            recorder._count(counts, args, kwargs, item)
                        yield item
                finally:
                    iterator.close()

            return traced_generator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = REQUEST.set(request(args, kwargs)) if request is not None else None
            try:
                frame = recorder.enter(layer, label)
                try:
                    result = func(*args, **kwargs)
                except BaseException:
                    recorder.exit(frame)
                    raise
                if recorder.exit(frame) and counts:
                    recorder._count(counts, args, kwargs, result)
                return result
            finally:
                if token is not None:
                    REQUEST.reset(token)

        return traced

    # -- export ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        with self._lock:
            states = list(self._states)
        merged: dict[str, float] = {}
        for state in states:
            for metric, value in state.sums.items():
                merged[metric] = merged.get(metric, 0) + value
        return merged

    def span_layers(self) -> set[str]:
        with self._lock:
            states = list(self._states)
        return {span[2] for state in states for span in state.spans}

    def write_spans(self, path) -> int:
        """Write every span as one JSON line, in start order; returns the count."""
        with self._lock:
            states = list(self._states)
        spans = sorted((span for state in states for span in state.spans), key=lambda s: s[4])
        keys = ("id", "parent", "layer", "target", "start", "end", "thread", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(spans)


# ---------------------------------------------------------------------------
# Counts read from the arguments or results of a call
# ---------------------------------------------------------------------------


def _first_array_size(args, kwargs, result) -> int:
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, np.ndarray):
            return int(value.size)
    return 0


def _result_arrays(result) -> list:
    values = result if isinstance(result, tuple) else (result,)
    return [value for value in values if isinstance(value, np.ndarray)]


def _kernel_points(args, kwargs, result) -> int:
    arrays = _result_arrays(result)
    return int(arrays[0].shape[-1]) if arrays and arrays[0].ndim else 0


def _kernel_bytes(args, kwargs, result) -> int:
    return sum(int(array.nbytes) for array in _result_arrays(result))


def _one(args, kwargs, result) -> int:
    return 1


def _digest_for_path(job_digests):
    """Request id of an HTTP call: the digest of the job its path names."""

    def request(args, kwargs):
        path = args[2] if len(args) > 2 else kwargs.get("path", "")
        if not path.startswith("/jobs/"):
            return None
        return job_digests.get(path[len("/jobs/") :].split("/", 1)[0].split("?", 1)[0])

    return request


# ---------------------------------------------------------------------------
# The layer table
# ---------------------------------------------------------------------------


def layers(job_digests: dict) -> tuple[Layer, ...]:
    """Every probe, in the order of the layer table in ``perfbench/README.md``."""
    storage = "repro.scavenger.storage"
    spec = "repro.scenario.spec"
    emulator = "repro.core.emulator"
    evaluator = "repro.core.evaluator"
    runner = "repro.fleet.runner"
    study = "repro.scenario.study"
    scan_steps = {"storage.scan_steps": _first_array_size}
    fleet_counts = {
        "fleet.runner.vehicles": lambda a, k, r: r.metadata["vehicles"],
        "fleet.runner.fast_path_vehicles": lambda a, k, r: r.metadata["fast_path_vehicles"],
        "fleet.runner.cohorts": lambda a, k, r: r.metadata["cohorts"],
        "fleet.runner.shared_bins": lambda a, k, r: r.metadata["shared_energy_bins"],
    }
    engine_counts = {
        "engine.items": lambda a, k, r: r.items,
        "engine.retries": lambda a, k, r: r.retries,
    }
    kernel_counts = {
        "power.kernel_points": _kernel_points,
        "power.kernel_bytes_computed": _kernel_bytes,
    }
    vehicles = {"fleet.spec.vehicles_materialized": lambda a, k, r: len(r)}
    # Helpers only ever called from inside another target of the same layer
    # (``with_axis`` under ``with_axes``, ``Registry.create`` under
    # ``build_*``, ``raw_energy_sweep_j`` under ``energy_sweep_j``) are not
    # wrapped: their spans would add overhead per vehicle and no information.
    return (
        Layer("storage.scan", "storage.scan_s", "storage.scan_calls", [
            Target(storage, "trajectory", counts=scan_steps),
            Target(storage, "reference_scan", counts=scan_steps),
            Target(storage, "batched_scan", counts=scan_steps, optional=True),
        ]),
        Layer("scenario.spec", "scenario.spec.build_s", "scenario.spec.build_calls", [
            Target(spec, name, cls="ScenarioSpec")
            for name in (
                "with_axes", "from_dict", "build_node", "build_database", "build_scavenger",
                "build_storage", "build_drive_cycle", "build_components",
            )
        ]),
        Layer("fleet.spec", "fleet.spec.materialize_s", None, [
            Target("repro.fleet.spec", name, cls="FleetSpec", counts=vehicles)
            for name in ("iter_chunks", "materialize_chunk", "materialize")
        ]),
        Layer("fleet.runner", "fleet.runner.self_s", None, [
            Target(runner, "run", cls="FleetRunner", counts=fleet_counts),
            Target(runner, "_build_shared_state", cls="FleetRunner", optional=True),
            *(
                Target(runner, name, optional=True)
                for name in (
                    "_build_cohort_table", "_cohort_vehicle_outcome",
                    "_emulate_vehicle_outcome", "_thermal_unit_load",
                )
            ),
        ]),
        Layer("emulator.emulate", "emulator.emulate_self_s", "emulator.emulate_calls", [
            Target(emulator, "emulate", cls="NodeEmulator"),
        ]),
        Layer("emulator.cycle_walk", "emulator.cycle_walk_s", "emulator.cycle_walks", [
            Target(emulator, name, cls="NodeEmulator", optional=name.startswith("_"))
            for name in (
                "materialize_cycle", "_collect_cycle", "_pending_energy_bins",
                "_resolve_round_energies",
            )
        ]),
        Layer("emulator.bin_sweep", "emulator.bin_sweep_s", None, [
            Target(
                emulator, "evaluate_energy_bins", cls="NodeEmulator",
                counts={"emulator.bins_swept": lambda a, k, r: len(r)},
            ),
        ]),
        Layer("evaluator.build", "evaluator.build_s", None, [
            Target(evaluator, "__init__", cls="EnergyEvaluator", counts={"evaluator.builds": _one}),
            Target("repro.power.compiled", "from_database", cls="CompiledPowerTable"),
        ]),
        Layer("evaluator.schedule_sweep", "evaluator.schedule_sweep_s", None, [
            Target(evaluator, name, cls="EnergyEvaluator", optional=name.startswith("_"))
            for name in (
                "schedule_energy_sweep", "_schedule_energy_batch", "schedule_energy_compiled",
                "average_components_sweep", "average_energy_sweep", "average_power_sweep",
                "standstill_power_sweep", "energy_grid",
            )
        ]),
        Layer("power.kernel", "power.kernel_s", None, [
            Target("repro.power.compiled", name, cls="CompiledPowerTable", counts=kernel_counts)
            for name in ("breakdown_components", "dynamic_power_w", "static_power_w")
        ]),
        Layer("scavenger.harvest", "scavenger.harvest_s", None, [
            Target(
                "repro.scavenger.base", "energy_sweep_j", cls="EnergyScavenger", subclasses=True,
                counts={"scavenger.harvest_points": lambda a, k, r: int(np.size(a[1]))},
            ),
        ]),
        Layer("aggregate", "aggregate.s", None, [
            Target("repro.fleet.aggregate", "add", cls="FleetAccumulator",
                   counts={"aggregate.vehicles": _one}),
            Target("repro.fleet.aggregate", "summary_row", cls="FleetAccumulator"),
            Target("repro.fleet.aggregate", "survival_rows", cls="FleetAccumulator"),
        ]),
        Layer("engine", "engine.self_s", None, [
            Target("repro.scenario.engine", name, cls="ChunkedEngine", counts=engine_counts)
            for name in ("run", "run_chunks")
        ]),
        Layer("study", "study.self_s", None, [
            Target(study, "run", cls="Study"),
            *(
                Target(study, f"_{kind}_row", optional=True)
                for kind in ("balance", "report", "optimize", "emulate", "montecarlo", "explore")
            ),
        ]),
        Layer("checkpoint", "checkpoint.write_s", "checkpoint.chunks_written", [
            Target("repro.scenario.checkpoint", "record_chunk", cls="CheckpointStore"),
        ]),
        Layer("fslock", "fslock.wait_s", "fslock.acquires", [
            Target("repro.fslock", "__enter__", cls="FileLock"),
        ]),
        Layer("serve.api", "serve.api.handle_s", "serve.api.requests", [
            Target(
                "repro.serve.api", "handle", cls="ServeApp", request=_digest_for_path(job_digests)
            ),
        ]),
        # A long-poll holds its handler thread while the job runs: a child
        # span with no metric keeps that wait out of serve.api.handle_s.
        Layer("serve.jobs.long_poll", None, None, [
            Target("repro.serve.jobs", "wait_for_change", cls="Job"),
        ]),
        Layer("serve.cache", "serve.cache.get_s", None, [
            Target("repro.serve.cache", "get", cls="EvaluatorLRU"),
        ]),
        Layer("serve.store.get", "serve.store.get_s", None, [
            Target("repro.serve.store", "get", cls="ResultStore"),
        ]),
        Layer("serve.store.put", "serve.store.put_s", None, [
            Target("repro.serve.store", "put", cls="ResultStore"),
        ]),
        Layer("serve.client", None, "serve.client.requests", [
            Target("repro.serve.client", name, cls="ServeClient")
            for name in ("run_study", "run_fleet")
        ]),
        Layer("serve.client.poll", None, "serve.client.polls", [
            Target("repro.serve.client", "job", cls="ServeClient"),
        ]),
    )


#: The job layer is wrapped by hand (:func:`_install_job_hooks`): its spans
#: carry the job digest and it measures queue wait between two calls.
JOBS_LAYER = Layer("serve.jobs", "serve.jobs.self_s", None, [])


def _rebind_everywhere(original, wrapper) -> None:
    """Point every ``repro`` module global naming ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute in [key for key, value in namespace.items() if value is original]:
            namespace[attribute] = wrapper


def _subclasses(cls) -> list[type]:
    found = [cls]
    for child in cls.__subclasses__():
        found.extend(c for c in _subclasses(child) if c not in found)
    return found


def _install_target(recorder: Recorder, layer: Layer, target: Target) -> bool:
    """Wrap one target; returns whether the program still defines it."""
    module = importlib.import_module(target.module)
    if target.cls is None:
        original = getattr(module, target.name, None)
        if original is None:
            return False
        _rebind_everywhere(original, recorder.wrap(layer, target, original))
        return True
    root = getattr(module, target.cls)
    wrapped = False
    for owner in _subclasses(root) if target.subclasses else [root]:
        raw = owner.__dict__.get(target.name)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(owner, target.name, classmethod(recorder.wrap(layer, target, raw.__func__)))
        else:
            setattr(owner, target.name, recorder.wrap(layer, target, raw))
        wrapped = True
    return wrapped


def _install_job_hooks(recorder: Recorder, job_digests: dict) -> None:
    """Queue wait, run time and digest-labelled spans of the job layer."""
    from repro.serve import jobs

    created: dict[str, float] = {}
    original_init = jobs.Job.__init__

    @functools.wraps(original_init)
    def job_init(self, job_id, kind, digest, *args, **kwargs):
        original_init(self, job_id, kind, digest, *args, **kwargs)
        created[job_id] = time.perf_counter()
        job_digests[job_id] = digest
        REQUEST.set(digest)  # the enclosing HTTP span resets it

    jobs.Job.__init__ = job_init
    for name in ("_run_study", "_run_fleet"):
        original = jobs.JobManager.__dict__.get(name)
        if original is None:
            recorder.skipped.append(f"repro.serve.jobs.JobManager.{name}")
            continue

        @functools.wraps(original)
        def run(self, job, request, _original=original, _label=f"JobManager.{name}"):
            started = time.perf_counter()
            queued_at = created.pop(job.id, None)
            if queued_at is not None:
                recorder.add("serve.jobs.queue_wait_s", started - queued_at)
            token = REQUEST.set(job.digest)
            try:
                frame = recorder.enter(JOBS_LAYER, _label)
                try:
                    return _original(self, job, request)
                finally:
                    recorder.exit(frame)
                    recorder.add("serve.jobs.run_s", time.perf_counter() - started)
            finally:
                REQUEST.reset(token)

        setattr(jobs.JobManager, name, run)


def install(recorder: Recorder) -> tuple[Layer, ...]:
    """Wrap every probe target; returns every probe layer."""
    importlib.import_module("repro")
    importlib.import_module("repro.serve")
    job_digests: dict[str, str] = {}
    table = layers(job_digests)
    for layer in table:
        for target in layer.targets:
            try:
                found = _install_target(recorder, layer, target)
            except (ImportError, AttributeError):
                found = False
            if not found:
                (recorder.skipped if target.optional else recorder.missing).append(target.label)
    _install_job_hooks(recorder, job_digests)
    return (*table, JOBS_LAYER)
