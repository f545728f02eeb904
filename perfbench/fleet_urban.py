"""fleet-urban: the default 1000-vehicle population on urban x2, sequential.

Why this workload: on this fleet the per-vehicle storage-ledger scan takes
about 2/3 of the wall time, per-vehicle spec rebuilds about 11% and the
cross-vehicle energy-bin sweep about 3%.  A batched ledger scan shows here;
a sweep-only change should not.

Each iteration runs a fleet document not run before (a fresh seed), timed
around ``FleetRunner(...).run()``, then runs the same document again (the
repeat).  The runner's public progress hook cuts each run into segments
of 32 vehicles with one reference-kernel probe between them (see
``common.Segments``), so each segment is scaled by the host speed of its
own moment; per-vehicle latency is a segment's scaled time over its
vehicles.
"""

from __future__ import annotations

import statistics
import time

from perfbench.common import (
    REQUEST,
    Phase,
    Segments,
    bitwise_equal,
    flip_low_bit,
    peak_rss_mb,
    stream,
)

VEHICLES = 1000
TINY_VEHICLES = 64
#: One chunk: enough to import and exercise every code path once.
WARMUP_VEHICLES = 64
FLEET_DOCUMENTS = 256
TRACED_ITERATIONS = 2
#: A reference-kernel probe after every this many settled vehicles.
PROBE_EVERY_VEHICLES = 32
#: Runs whose sampled vehicles are replayed through a naive emulate().
CHECKED_RUNS = 4
CHECKED_VEHICLES_PER_RUN = 4


def _vehicle_latencies(segments: Segments) -> list[float]:
    """Per-vehicle latency: each segment's scaled time over its vehicles.

    A single vehicle takes about 2 ms, which this host's timing noise
    swamps; the mean over a segment is steady.  The first segment holds
    the run's discovery pass and its first vehicle and is left out, as is
    the closing one (aggregation): throughput counts both.
    """
    latencies: list[float] = []
    for seconds, vehicles in segments.scaled[1:]:
        if vehicles:
            latencies.extend([seconds / vehicles] * vehicles)
    return latencies


class Workload:
    setup_samples = None

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.vehicles = TINY_VEHICLES if tiny else VEHICLES
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._checks: list[tuple] = []
        self._cursor = 0

    def setup(self) -> None:
        from repro.fleet import FleetRunner, FleetSpec
        from repro.scenario import ScenarioSpec

        self._runner = FleetRunner
        base = ScenarioSpec(
            name="fleet-urban",
            drive_cycle={"name": "urban", "params": {"repetitions": 2}},
        )
        seeds = stream(self.seed, "fleet-seeds")
        self.fleets = [
            FleetSpec.from_base(base, vehicles=self.vehicles, seed=seeds.randrange(2**31))
            for _ in range(FLEET_DOCUMENTS)
        ]
        warmup = FleetSpec.from_base(base, vehicles=WARMUP_VEHICLES, seed=seeds.randrange(2**31))
        FleetRunner(warmup).run()

    def _timed_run(self, fleet, phase):
        """Run ``fleet`` cut into segments; returns the result, its scaled
        seconds and its per-vehicle latencies."""
        segments = Segments(phase)
        settled = [0]

        def progress(event) -> None:
            done = event.get("items_done") or 0
            if done <= settled[0]:
                return
            if event.get("event") == "chunk" or done == 1 or done % PROBE_EVERY_VEHICLES == 0:
                segments.mark(done - settled[0])
                settled[0] = done

        segments.mark()
        result = self._runner(fleet, progress=progress).run()
        segments.mark()
        seconds = sum(scaled for scaled, _vehicles in segments.scaled)
        return result, seconds, _vehicle_latencies(segments)

    def measure(self, seconds: float | None = None, traced: bool = False) -> Phase:
        phase = Phase()
        throughputs: list[float] = []
        clock = time.perf_counter
        started = clock()
        iterations = 0
        while iterations == 0 or (
            iterations < TRACED_ITERATIONS if traced else clock() - started < seconds
        ):
            fleet = self.fleets[self._cursor % len(self.fleets)]
            label = f"fleet-{self._cursor}"
            self._cursor += 1
            iterations += 1
            token = REQUEST.set(label)
            first, first_s, first_latencies = self._timed_run(fleet, phase)
            REQUEST.set(label + "-repeat")
            repeat, _repeat_s, repeat_latencies = self._timed_run(fleet, phase)
            REQUEST.reset(token)
            throughputs.append(fleet.vehicles / first_s)
            phase.first_s.extend(first_latencies)
            phase.repeat_s.extend(repeat_latencies)
            self._account(fleet, first, repeat)
        phase.wall_s = clock() - started
        phase.throughput = statistics.median(throughputs)
        phase.peak_rss_mb = peak_rss_mb()
        return phase

    def _account(self, fleet, first, repeat) -> None:
        """Failures and repeat determinism now; naive-replay samples for later."""
        self.attempted += 2 * fleet.vehicles
        for result in (first, repeat):
            self.failed += result.metadata["vehicles_failed"]
        mismatched = sum(
            not bitwise_equal(a, b) for a, b in zip(first.vehicle_rows, repeat.vehicle_rows)
        )
        if mismatched or len(first.vehicle_rows) != len(repeat.vehicle_rows):
            self.failed += max(mismatched, 1)
            self.notes.append(f"{fleet.name} seed {fleet.seed}: repeat rows differ")
        if len(self._checks) < CHECKED_RUNS * CHECKED_VEHICLES_PER_RUN:
            picks = stream(self.seed, "check", fleet.seed).sample(
                range(fleet.vehicles), CHECKED_VEHICLES_PER_RUN
            )
            rows = first.vehicle_rows
            self._checks.extend((fleet, index, dict(rows[index])) for index in picks)

    def check(self, inject_fault: bool) -> None:
        """Sampled fleet rows must equal a naive per-vehicle emulate(), bit for bit."""
        from repro.core.emulator import NodeEmulator
        from repro.scavenger.storage import scaled_storage

        for position, (fleet, index, row) in enumerate(self._checks):
            if inject_fault and position == 0:
                row["harvested_mj"] = flip_low_bit(row["harvested_mj"])
            chunk = fleet.materialize_chunk(index // fleet.chunk_vehicles)
            vehicle = next(v for v in chunk if v.index == index)
            spec = vehicle.scenario
            emulator = NodeEmulator(
                spec.build_node(),
                spec.build_database(),
                spec.build_scavenger(),
                scaled_storage(spec.build_storage(), vehicle.storage_scale),
                base_point=spec.operating_point(),
            )
            cycle = spec.build_drive_cycle().scaled(vehicle.speed_scale)
            summary = emulator.emulate(cycle).summary()
            if not all(bitwise_equal(row[key], value) for key, value in summary.items()):
                self.failed += 1
                self.notes.append(f"seed {fleet.seed} vehicle {index}: row != naive emulate()")

    def close(self) -> None:
        pass
