"""serve-mixed: one closed-loop client against a real ``tpms-energy serve``.

Why this workload: it is the only one that exercises ``serve.api``,
``serve.jobs``, ``serve.cache``, ``serve.store``, ``fslock`` and
``scenario.checkpoint``, and it puts the thermal-cohort fleet path on the
product path.  It mixes writes (store misses, puts, journaled chunks,
evictions) with reads (store hits), so job-table growth shows in
``peak_rss_mb``.

The server runs as a subprocess with a store and a checkpoint journal in a
temporary directory of the checkout, one job worker, and a store budget
below the number of distinct documents.  The client sends new documents —
thermal fleets of 16 vehicles, Monte-Carlo studies of 512 samples and
emulate studies over a 3-temperature axis, each kind about 50-100 ms to
compute — in blocks covering the 9 (architecture, database) groups, one
more than the evaluator LRU holds, times the 3 kinds; scavenger and
storage rotate across blocks.  The seed shuffles each block and draws
ambients, sample seeds and which requests repeat: three of every five
requests repeat one of the client's recent documents.  A request is
submit, wait and fetch through ``ServeClient``.

One client, because with two a request's time depended on whether it
overlapped the other client's job: a store hit took 2 ms alone and 7-13 ms
next to a job holding the server's interpreter lock, a miss queued behind
a 300 ms fleet doubled, and the medians sat between such humps and moved
by a quarter from run to run.

Times are scaled to reference speed by probes inside the server: the
launcher runs the reference kernel in the job worker as each job starts,
and each request's time, minus the probes it overlaps, is scaled by the
probes around it (``_scaled_seconds``).  A probe in the benchmark process
would time the other CPU, not the server's.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time

from perfbench.common import (
    ARCHITECTURES,
    DATABASES,
    OUT_DIR,
    REFERENCE_KERNEL_S,
    ROOT,
    SCAVENGERS,
    STORAGE,
    TMP_DIR,
    BenchmarkError,
    Phase,
    process_hwm_mb,
    stream,
)

#: Of every GROUP requests, REPEATS (at positions the seed draws) repeat a
#: recent document: a fixed mix, so throughput does not move with a lucky
#: run of repeats.
REPEATS, GROUP = 3, 5
#: Repeats pick among the most recent documents ...
RECENT = 24
#: ... and the store holds fewer entries than the documents a run submits.
STORE_BUDGET_ENTRIES = 48
FLEET_VEHICLES = 16
MONTECARLO_SAMPLES = 512
DOCUMENTS = 27 * 40
TRACED_REQUESTS = 90
TINY_TRACED_REQUESTS = 12
#: Server starts per run; their median is ``setup_s``.
SETUP_STARTS = 3
#: Store hits and misses each need this many samples for a p90 with ten
#: beyond it; the window stretches (to at most twice its length) until then.
MIN_SAMPLES = 100
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0

KINDS = ("montecarlo", "emulate", "fleet")
CYCLE = {"name": "urban", "params": {"repetitions": 1}}


def _documents(seed: int) -> list[tuple[str, dict]]:
    rng = stream(seed, "serve-documents")
    documents: list[tuple[str, dict]] = []
    block = 0
    while len(documents) < DOCUMENTS:
        combinations = [
            (arch, database, kind, SCAVENGERS[(a + d + block) % 3], STORAGE[(d + block) % 2])
            for (a, arch), (d, database), kind in itertools.product(
                enumerate(ARCHITECTURES), enumerate(DATABASES), KINDS
            )
        ]
        rng.shuffle(combinations)
        block += 1
        for architecture, database, kind, scavenger, storage in combinations:
            ambient = round(rng.uniform(-10.0, 40.0), 1)
            scenario = {
                "name": f"doc-{len(documents)}",
                "architecture": architecture,
                "power_database": database,
                "environment": {"temperature_c": ambient},
            }
            axis = {"temperature": [ambient - 10.0, ambient, ambient + 10.0]}
            if kind == "montecarlo":
                document = {
                    "scenario": scenario,
                    "axes": axis,
                    "analysis": "montecarlo",
                    "montecarlo": {"samples": MONTECARLO_SAMPLES, "seed": rng.randrange(2**30)},
                }
            elif kind == "emulate":
                document = {
                    "scenario": {
                        **scenario,
                        "drive_cycle": CYCLE,
                        "scavenger": scavenger,
                        "storage": storage,
                    },
                    "axes": axis,
                    "analysis": "emulate",
                }
            else:
                document = {
                    "fleet": {
                        "name": scenario["name"],
                        "vehicles": FLEET_VEHICLES,
                        "seed": rng.randrange(2**30),
                        "base": {**scenario, "drive_cycle": CYCLE},
                        "distributions": {
                            "speed_scale": {
                                "kind": "lognormal",
                                "params": {"sigma": 0.1, "low": 0.6, "high": 1.4},
                            },
                            "ambient_offset_c": {
                                "kind": "correlated-normal",
                                "params": {"std": 2.0, "correlation": 0.5},
                            },
                            "scavenger_size": {
                                "kind": "gaussian-tolerance",
                                "params": {"rel_std": 0.05},
                            },
                        },
                        "thermal": {},
                    }
                }
            documents.append((kind, document))
    return documents


def _scaled_seconds(t0: float, t1: float, probes) -> float:
    """Seconds of ``[t0, t1]`` outside the server's probes, at reference speed.

    The stretch between two probes is scaled by ``REFERENCE_KERNEL_S``
    over the mean of their kernel times, a stretch before the first or
    after the last probe by that probe's alone (see ``common.Segments``).
    A probe holds the job worker and the server's interpreter, so the
    time it takes is left out of every request it overlaps.
    """
    if not probes:
        return t1 - t0
    total = 0.0
    first = max(0, bisect.bisect_left(probes, [t0]) - 1)
    previous_end, previous_kernel = None, None
    for start, end in [*probes[first:], (None, None)]:
        kernel = None if start is None else end - start
        low = t0 if previous_end is None else max(t0, previous_end)
        high = t1 if start is None else min(t1, start)
        if high > low:
            kernels = [k for k in (previous_kernel, kernel) if k is not None]
            total += (high - low) * REFERENCE_KERNEL_S * len(kernels) / sum(kernels)
        if start is None or start >= t1:
            break
        previous_end, previous_kernel = end, kernel
    return total


def _window_open(started: float, seconds: float, records) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed < seconds:
        return True
    hits = sum(1 for record in records if record[2])
    return min(hits, len(records) - hits) < MIN_SAMPLES and elapsed < 2 * seconds


class _Server:
    """One ``tpms-energy serve`` subprocess and its scratch directory."""

    def __init__(self, directory, trace_out=None) -> None:
        from repro.serve import ServeClient

        self.directory = directory
        self.trace_out = trace_out
        self.probe_out = directory / "probes.json"
        command = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--probe-out", str(self.probe_out)]
        command += [
            "serve",
            "--port", "0",
            "--store-dir", str(directory / "store"),
            "--checkpoint-dir", str(directory / "checkpoints"),
            "--job-workers", "1",
            "--store-budget-entries", str(STORE_BUDGET_ENTRIES),
        ]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            self.port = self._read_port()
            self.client = ServeClient(port=self.port, timeout=REQUEST_TIMEOUT_S / 2)
            self._wait_healthy(ServeClient(port=self.port, timeout=5.0, retries=0))
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT_S):
                raise BenchmarkError("the server printed no banner")
        banner = self.process.stdout.readline()
        if "serving on http://" not in banner:
            raise BenchmarkError(f"unexpected server banner {banner!r}")
        return int(banner.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    @staticmethod
    def _wait_healthy(probe) -> None:
        from repro.errors import ServeError

        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if probe.health()["status"] == "ok":
                    return
            except ServeError:
                if time.perf_counter() > deadline:
                    raise
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM (drain) and wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Workload:
    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.setup_samples: list[float] = []
        self._records: list[tuple] = []
        self._next = 0
        self._server: _Server | None = None
        self._directories = 0
        self._phases = 0

    def _start(self, traced: bool = False) -> _Server:
        self._directories += 1
        directory = TMP_DIR / f"serve-{os.getpid()}-{self._directories}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        trace_out = directory / "trace.json" if traced else None
        return _Server(directory, trace_out)

    def _stop(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def setup(self) -> None:
        self.documents = _documents(self.seed)
        for _ in range(SETUP_STARTS):
            self._stop()
            started = time.perf_counter()
            self._server = self._start()
            self.setup_samples.append(time.perf_counter() - started)

    def _requests(self, phase_tag, started, seconds, limit, records, errors) -> None:
        """The closed loop: the next request goes out when the last one is answered."""
        from repro.errors import ServeError
        from repro.serve import ServeClient

        client = ServeClient(port=self._server.port, timeout=REQUEST_TIMEOUT_S / 2)
        rng = stream(self.seed, "requests", phase_tag)
        recent: list[int] = []
        pattern: list[bool] = []
        clock = time.perf_counter
        while (
            len(records) + len(errors) < limit
            if limit is not None
            else _window_open(started, seconds, records)
        ):
            if not pattern:
                pattern = [True] * REPEATS + [False] * (GROUP - REPEATS)
                rng.shuffle(pattern)
            repeat = pattern.pop() and bool(recent)
            if repeat:
                index = rng.choice(recent[-RECENT:])
            else:
                index = self._next
                self._next += 1
            kind, document = self.documents[index % len(self.documents)]
            run = client.run_fleet if kind == "fleet" else client.run_study
            start = clock()
            try:
                status, body = run(document, timeout=REQUEST_TIMEOUT_S)
            except ServeError as error:
                errors.append(f"document {index}: {error}")
                continue
            end = clock()
            if not repeat:
                recent.append(index)
            records.append((index, kind, bool(status["store_hit"]), start, end, body))

    def measure(self, seconds: float | None = None, traced: bool = False) -> Phase:
        if self._server is None or traced:
            self._stop()
            self._server = self._start(traced=traced)
        self._phases += 1
        limit = None
        if traced:
            limit = TINY_TRACED_REQUESTS if self.tiny else TRACED_REQUESTS
        phase = Phase()
        records: list[tuple] = []
        errors: list[str] = []
        clock = time.perf_counter
        started = clock()
        self._requests(self._phases, started, seconds, limit, records, errors)
        ended = clock()
        phase.wall_s = ended - started
        health = self._server.client.health()
        phase.peak_rss_mb = process_hwm_mb(self._server.process.pid)
        server = self._server
        self._stop()  # the launcher writes its probes and trace as the server exits
        probes = json.loads(server.probe_out.read_text(encoding="utf-8"))
        phase.calibration.extend(end - start for start, end in probes)
        phase.throughput = len(records) / _scaled_seconds(started, ended, probes)
        for _index, _kind, hit, start, end, _body in records:
            (phase.repeat_s if hit else phase.first_s).append(_scaled_seconds(start, end, probes))
        self.attempted += len(records) + len(errors)
        self.failed += len(errors)
        self.notes.extend(errors)
        self._records.extend(records)
        if traced:
            self._read_server_trace(server, health, phase)
        return phase

    def _read_server_trace(self, server: _Server, health: dict, phase: Phase) -> None:
        """Server-side layer totals plus the ``/healthz`` counters of the traced server."""
        trace = json.loads(server.trace_out.read_text(encoding="utf-8"))
        spans = OUT_DIR / f"spans-serve-mixed-seed{self.seed}-server.jsonl"
        shutil.move(server.directory / trace["spans_file"], spans)
        phase.spans_files.append(spans.name)
        phase.layers_seen.update(trace["layers_seen"])
        phase.missing.extend(trace["missing"])
        cache, store = health["evaluator_cache"], health["store"]
        phase.layers = {
            **trace["totals"],
            "serve.cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "serve.cache.evictions": cache["evictions"],
            "serve.cache.build_s": cache["build_wall_time_s"],
            "serve.store.hit_ratio": store["hits"] / max(1, store["hits"] + store["misses"]),
            "serve.store.evictions": store["evictions"],
            "serve.jobs.retained": sum(health["jobs"].values()),
        }

    def check(self, inject_fault: bool) -> None:
        """Repeats return their document's first bytes; a sample matches a fresh run."""
        first: dict[int, tuple[str, bytes]] = {}
        comparisons: list[tuple[str, bytes, bytes]] = []
        for index, kind, _hit, _start, _end, body in self._records:
            if index in first:
                comparisons.append((f"repeat of document {index}", first[index][1], body))
            else:
                first[index] = (kind, body)
        from repro.errors import ReproError

        rng = stream(self.seed, "serve-check")
        for kind in KINDS:
            keys = sorted(key for key, (k, _body) in first.items() if k == kind)
            if not keys:
                continue
            index = rng.choice(keys)
            label = f"fresh run of document {index}"
            try:
                fresh = self._fresh_sequential_run(self.documents[index % len(self.documents)])
            except ReproError as error:
                self.failed += 1
                self.notes.append(f"{label}: {error}")
                continue
            comparisons.append((label, fresh, first[index][1]))
        for position, (label, expected, actual) in enumerate(comparisons):
            if inject_fault and position == 0:
                actual = bytes([actual[0] ^ 1]) + actual[1:]
            if actual != expected:
                self.failed += 1
                self.notes.append(f"{label}: served bytes differ")

    @staticmethod
    def _fresh_sequential_run(entry: tuple[str, dict]) -> bytes:
        """The result bytes of an in-process job manager with an empty store."""
        from repro.serve import JobManager

        kind, document = entry
        manager = JobManager()
        try:
            submit = manager.submit_fleet if kind == "fleet" else manager.submit_study
            job = submit(document)
            status = job.to_document()
            deadline = time.perf_counter() + REQUEST_TIMEOUT_S
            while status["state"] not in ("done", "failed") and time.perf_counter() < deadline:
                status = job.wait_for_change(status["version"], 10.0)
            return manager.result_bytes(job.id)
        finally:
            manager.shutdown()

    def close(self) -> None:
        self._stop()
        shutil.rmtree(TMP_DIR, ignore_errors=True)
