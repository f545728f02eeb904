"""Shared helpers: checkout paths, statistics, reference-speed calibration, checks."""

from __future__ import annotations

import contextvars
import math
import random
import resource
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs from (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Result files and span traces (gitignored).
OUT_DIR = ROOT / ".perfbench_out"
#: Server stores and checkpoint journals (gitignored, removed after use).
TMP_DIR = ROOT / ".perfbench_tmp"

#: Registered components the design and serving workloads draw from.
ARCHITECTURES = ("baseline", "optimized", "legacy-tpms")
DATABASES = ("reference", "low-power", "high-performance")
SCAVENGERS = ("piezoelectric", "electromagnetic", "electrostatic")
STORAGE = ("supercapacitor", "thin-film-battery")

#: Request id of the spans being recorded: the workload's item label in the
#: benchmark process, the job digest inside the server.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program source, a server that never came up)."""


@dataclass
class Phase:
    """What one measurement phase of a workload observed.

    ``first_s``/``repeat_s`` are latency samples in seconds of first-time
    and repeat work; ``layers`` carries per-layer values the workload reads
    outside the tracer (server-side totals, ``/healthz`` counters) and
    ``layers_seen`` the span layers recorded in other processes;
    ``calibration`` holds the reference-kernel times taken during the phase.
    Untraced times are already at reference speed (see :class:`Segments`).
    """

    throughput: float = 0.0
    wall_s: float = 0.0
    first_s: list = field(default_factory=list)
    repeat_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    layers_seen: set = field(default_factory=set)
    spans_files: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    calibration: list = field(default_factory=list)


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def stream(seed: int, *labels: object) -> random.Random:
    """An independent, reproducible random stream for one input family."""
    return random.Random(repr((seed, *labels)))


def percentile(values, fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def bitwise_equal(left, right) -> bool:
    """Equality that compares floats by their bits (NaN equals NaN)."""
    if isinstance(left, float) and isinstance(right, float):
        return struct.pack("<d", left) == struct.pack("<d", right)
    if isinstance(left, dict) and isinstance(right, dict):
        return list(left) == list(right) and all(
            bitwise_equal(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(map(bitwise_equal, left, right))
    return type(left) is type(right) and left == right


def flip_low_bit(value: float) -> float:
    """``value`` with its least significant mantissa bit flipped (fault injection)."""
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"process {pid} reports no VmHWM")


#: Time of :func:`_reference_kernel` on the reference machine (a 2-CPU
#: Linux box, Python 3.11, numpy 2.4); times are reported at its speed.
REFERENCE_KERNEL_S = 0.005


def _reference_kernel() -> None:
    """Fixed interpreter-plus-small-array work, independent of the program."""
    import numpy as np

    table: dict[int, float] = {}
    total = 0.0
    for i in range(18000):
        key = i & 255
        total += table.get(key, 0.5) * 1.0001
        table[key] = total % 7.0
    values = np.linspace(0.0, 1.0, 2048)
    for _ in range(90):
        values = np.minimum(np.sqrt(values * values + 0.5), 2.0)


def probe_kernel(phase: Phase) -> tuple[float, float]:
    """Run the reference kernel once; returns its (start, end) and records its time."""
    start = time.perf_counter()
    _reference_kernel()
    end = time.perf_counter()
    phase.calibration.append(end - start)
    return start, end


class Segments:
    """Measured time cut at reference-kernel probes, scaled to reference speed.

    This host's speed flips between two states within fractions of a
    second (the kernel reads about 3.4 or 5.5 ms, in runs of 0.1 s to a
    few seconds), so one factor per run cannot follow it.  Each call to
    :meth:`mark` runs the kernel once, closes the segment since the
    previous mark and opens the next; a segment's seconds are scaled by
    ``REFERENCE_KERNEL_S`` over the mean of the two probes around it.
    The probes themselves are never inside a segment.
    """

    def __init__(self, phase: Phase) -> None:
        self.phase = phase
        self.scaled: list[tuple[float, int]] = []
        self._end: float | None = None
        self._kernel = 0.0

    def mark(self, items: int = 0) -> None:
        """Close the open segment, which settled ``items`` units of work."""
        start, end = probe_kernel(self.phase)
        kernel = end - start
        if self._end is not None:
            factor = 2.0 * REFERENCE_KERNEL_S / (self._kernel + kernel)
            self.scaled.append(((start - self._end) * factor, items))
        self._end, self._kernel = end, kernel

    def last(self) -> float:
        """Scaled seconds of the segment closed last."""
        return self.scaled[-1][0]


def speed_factor(phase: Phase) -> float:
    """Reference-machine seconds per measured second during ``phase``.

    Used for the traced run's per-layer times, which cannot be cut at
    probes; 1 for a phase that took no calibration samples.
    """
    if not phase.calibration:
        return 1.0
    return REFERENCE_KERNEL_S / statistics.median(phase.calibration)


def latency_metrics(first_s, repeat_s) -> dict[str, float]:
    """p50/p90 of first-time and repeat samples, in ms."""
    return {
        "latency_p50_ms": percentile(first_s, 0.5) * 1e3,
        "latency_p90_ms": percentile(first_s, 0.9) * 1e3,
        "repeat_latency_p50_ms": percentile(repeat_s, 0.5) * 1e3,
        "repeat_latency_p90_ms": percentile(repeat_s, 0.9) * 1e3,
    }
