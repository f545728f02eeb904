"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` and checks three things:

1. every metric BENCHMARK.json declares is emitted, with its unit, untraced
   (end-to-end) and traced (per-layer), and every end-to-end value is
   positive;
2. the span files the traced runs write hold spans of every probe layer;
3. a deliberately corrupted output (``--inject-fault``: one flipped bit in a
   fleet row or a warm summary, one flipped byte in a served body) is
   counted as a failure and makes the run exit non-zero.

Exits 0 when all checks hold and prints what failed otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("fleet-urban", "design-loop", "serve-mixed")
SEED = 7
TIMEOUT_S = 300


def _run(workload: str, trace: int, inject_fault: bool = False) -> tuple[int, dict]:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "2",
        "--trace", str(trace), "--tiny",
    ]
    if inject_fault:
        command.append("--inject-fault")
    done = subprocess.run(command, capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(command[2:])} printed nothing:\n{done.stderr}")
    return done.returncode, json.loads(lines[-1])


def _span_layers(record: dict) -> set[str]:
    layers = set()
    for name in record["spans_files"]:
        with open(OUT_DIR / name, encoding="utf-8") as handle:
            layers.update(json.loads(line)["layer"] for line in handle)
    return layers


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    probe_layers: set[str] = set()
    span_layers: set[str] = set()
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {metric["name"]: metric["unit"] for metric in declared[section]}
            code, result = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, {result['failed']} failed")
            emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if emitted != units:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
            if trace == 0:
                problems.extend(
                    f"{label}: {name} is not positive"
                    for name, metric in result["metrics"].items()
                    if not metric["value"] > 0
                )
            else:
                record = json.loads(
                    (OUT_DIR / f"{workload}-seed{SEED}-trace1.json").read_text(encoding="utf-8")
                )
                probe_layers.update(record["probe_layers"])
                span_layers.update(_span_layers(record))
                if record["missing_targets"]:
                    problems.append(f"{label}: targets not found {record['missing_targets']}")
        code, result = _run(workload, 0, inject_fault=True)
        if code == 0 or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a corrupted output was not counted as a failure")
    unseen = sorted(probe_layers - span_layers)
    if unseen:
        problems.append(f"no spans written for layers {unseen}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(
        f"selftest: {len(WORKLOADS)} workloads, {len(span_layers)} span layers, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
