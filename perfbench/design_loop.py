"""design-loop: distinct design scenarios analysed one after another.

Why this workload: it is the paper's interactive analysis flow.  A
first-time item is a fresh ``Study(spec)`` running ``balance``,
``optimize`` and ``montecarlo`` plus a cold ``emulate(cycle)`` on a fresh
``NodeEmulator``; the repeat is a second ``emulate(cycle)`` on that same
emulator.  The cold emulate is about 70% of an item and its prefill
pre-scan about half of that, while the ledger scan is under 10%: a single
cycle plan shows here, a batched fleet scan should not, and the warm
re-emulate catches a regression in the warm-cycle memos.

Items come in blocks of the 27 architecture x power database x cycle
combinations; scavenger and storage rotate across blocks so that every six
blocks pair each combination with each of them.  The seed shuffles each
block and draws the ambient temperatures, so every seed measures the same
mix of work — the host is noisy enough without the inputs adding to it.
The highway cycle is shortened to 600 s so one run holds over 100 items.
One reference-kernel probe before, between and after the two parts of an
item scales each part by the host speed of its own moment
(``common.Segments``).
"""

from __future__ import annotations

import itertools
import time

from perfbench.common import (
    ARCHITECTURES,
    DATABASES,
    REQUEST,
    SCAVENGERS,
    STORAGE,
    Phase,
    Segments,
    bitwise_equal,
    flip_low_bit,
    peak_rss_mb,
    stream,
)

CYCLES = ("urban", "nedc", {"name": "highway", "params": {"duration_s": 600.0}})
KINDS = ("balance", "optimize", "montecarlo")
ITEMS = 2700
TINY_ITEMS = 27
TRACED_ITEMS = 54
TINY_TRACED_ITEMS = 3


def _documents(count: int, rng) -> list[dict]:
    documents = []
    block = 0
    while len(documents) < count:
        combinations = [
            (arch, database, cycle, SCAVENGERS[(a + d + block) % 3], STORAGE[(c + block) % 2])
            for (a, arch), (d, database), (c, cycle) in itertools.product(
                enumerate(ARCHITECTURES), enumerate(DATABASES), enumerate(CYCLES)
            )
        ]
        rng.shuffle(combinations)
        block += 1
        for architecture, database, cycle, scavenger, storage in combinations:
            documents.append(
                {
                    "name": f"design-{len(documents)}",
                    "architecture": architecture,
                    "power_database": database,
                    "drive_cycle": cycle,
                    "scavenger": scavenger,
                    "storage": storage,
                    "environment": {"temperature_c": round(rng.uniform(-20.0, 70.0), 1)},
                }
            )
    return documents[:count]


class Workload:
    setup_samples = None

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._summaries: list[tuple[str, dict, dict]] = []
        self._cursor = 0

    def setup(self) -> None:
        from repro.core.emulator import NodeEmulator
        from repro.scenario import ScenarioSpec, Study

        self._emulator_class = NodeEmulator
        self._study_class = Study
        rng = stream(self.seed, "design-scenarios")
        documents = _documents(TINY_ITEMS if self.tiny else ITEMS, rng)
        self.specs = [ScenarioSpec.from_dict(document) for document in documents]
        warmup = ScenarioSpec.from_dict({**_documents(1, rng)[0], "name": "design-warmup"})
        segments = Segments(Phase())
        segments.mark()
        self._item(warmup, segments)

    def _item(self, spec, segments):
        """One first-time analysis and its warm re-emulate, a segment each."""
        study = self._study_class(spec)
        for kind in KINDS:
            study.run(kind)
        node, database, evaluator = spec.build_components()
        emulator = self._emulator_class(
            node,
            database,
            spec.build_scavenger(),
            spec.build_storage(),
            base_point=spec.operating_point(),
            evaluator=evaluator,
        )
        cycle = spec.build_drive_cycle()
        cold = emulator.emulate(cycle).summary()
        segments.mark(1)
        first_s = segments.last()
        warm = emulator.emulate(cycle).summary()
        segments.mark(1)
        return first_s, segments.last(), cold, warm

    def measure(self, seconds: float | None = None, traced: bool = False) -> Phase:
        from repro.errors import ReproError

        phase = Phase()
        limit = TINY_TRACED_ITEMS if self.tiny else TRACED_ITEMS
        clock = time.perf_counter
        started = clock()
        segments = Segments(phase)
        segments.mark()
        items = 0
        while items == 0 or (items < limit if traced else clock() - started < seconds):
            spec = self.specs[self._cursor % len(self.specs)]
            self._cursor += 1
            items += 1
            self.attempted += 1
            token = REQUEST.set(spec.name)
            try:
                first_s, repeat_s, cold, warm = self._item(spec, segments)
            except ReproError as error:
                segments.mark()
                self.failed += 1
                self.notes.append(f"{spec.name}: {error}")
                continue
            finally:
                REQUEST.reset(token)
            phase.first_s.append(first_s)
            phase.repeat_s.append(repeat_s)
            self._summaries.append((spec.name, cold, warm))
        phase.wall_s = clock() - started
        phase.throughput = items / sum(scaled for scaled, _items in segments.scaled)
        phase.peak_rss_mb = peak_rss_mb()
        return phase

    def check(self, inject_fault: bool) -> None:
        """The warm emulate() summary must equal the cold one, bit for bit."""
        for position, (name, cold, warm) in enumerate(self._summaries):
            if inject_fault and position == 0:
                warm = {**warm, "net_mj": flip_low_bit(warm["net_mj"])}
            if not bitwise_equal(cold, warm):
                self.failed += 1
                self.notes.append(f"{name}: warm emulate() summary differs from the cold one")

    def close(self) -> None:
        pass
