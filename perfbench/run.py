"""Benchmark entry point: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload fleet-urban --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` first measures untraced throughput for half of ``--seconds``, then
installs the span tracer and runs a fixed amount of work, so per-layer
totals compare across commits; it reports the per-layer metrics and the
tracing overhead.  Either way the workload's outputs are checked after the
timed window.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
stamped with the environment and the seed, goes to ``.perfbench_out/``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    BenchmarkError,
    latency_metrics,
    speed_factor,
    use_checkout_source,
)

WORKLOADS = {
    "fleet-urban": "perfbench.fleet_urban",
    "design-loop": "perfbench.design_loop",
    "serve-mixed": "perfbench.serve_mixed",
}
#: Extra fresh-interpreter set-ups per run; ``setup_s`` is the median.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (the self-test)")
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one checked output; the run must then report a failure",
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help="only set up and print the set-up time"
    )
    return parser.parse_args(argv)


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``{name: unit}`` of the end-to-end and per-layer metrics in BENCHMARK.json."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {metric["name"]: metric["unit"] for metric in document["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in document["per_layer"]},
    )


def _setup_probes(args) -> list[float]:
    """Set the workload up in fresh interpreters; returns their set-up times."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _end_to_end(phase, setup_samples) -> dict[str, float]:
    """Times as the workload scaled them to reference speed; set-up and memory raw.

    Set-up is mostly imports, which probes around it followed badly: over
    ten seeds, fleet set-up scaled by them spread 0.49 (quartile distance
    over median), raw 0.1 to 0.35.
    """
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": phase.throughput,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    metrics.update(latency_metrics(phase.first_s, phase.repeat_s))
    return metrics


def _per_layer(units, totals, baseline, phase) -> dict[str, float]:
    factor = speed_factor(phase)
    merged = dict(totals)
    for name, value in phase.layers.items():
        merged[name] = merged.get(name, 0) + value
    merged = {
        name: value * factor if units.get(name) == "s" else value for name, value in merged.items()
    }
    merged["fleet.runner.fast_path_ratio"] = merged.get("fleet.runner.fast_path_vehicles", 0) / max(
        1, merged.get("fleet.runner.vehicles", 0)
    )
    merged["serve.client.polls_per_request"] = merged.get("serve.client.polls", 0) / max(
        1, merged.get("serve.client.requests", 0)
    )
    merged["trace.overhead_frac"] = 1.0 - phase.throughput / baseline.throughput
    merged["trace.wall_s"] = phase.wall_s * factor
    return {name: merged.get(name, 0) for name in units}


def _print_report(args, metrics, units, record) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in record["stamp"].items():
        print(f"  {key}: {value}")
    for name, value in record["samples"].items():
        print(f"  samples {name}: {value}")
    print(f"  speed factor (reference s per measured s): {record['speed_factor']:.4f}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"failed_fraction={record['failed_fraction']:.6g}")
    for note in record["notes"][:20]:
        print(f"  check: {note}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")
    if args.trace:
        wall = metrics["trace.wall_s"]
        ranked = sorted(record["self_time_metrics"], key=lambda name: -metrics.get(name, 0.0))
        print(f"  self time by layer (share of the {wall:.3f} s traced phase):")
        for name in ranked:
            print(f"    {name:<{width}}  {100.0 * metrics.get(name, 0.0) / wall:6.2f}%")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        use_checkout_source()
        end_to_end_units, per_layer_units = _declared_metrics()
    except (BenchmarkError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workload = importlib.import_module(WORKLOADS[args.workload]).Workload(args.seed, args.tiny)
    try:
        started = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - started
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        record: dict[str, object] = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
        }
        if args.trace:
            from perfbench import tracer

            baseline = workload.measure(seconds=args.seconds / 2)
            recorder = tracer.Recorder()
            layers = tracer.install(recorder)
            phase = workload.measure(traced=True)
            # Snapshot before the checks, which run through traced code too.
            totals = recorder.totals()
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write_spans(spans)
            units = per_layer_units
            metrics = _per_layer(units, totals, baseline, phase)
            record["layers_seen"] = sorted(recorder.span_layers() | phase.layers_seen)
            record["probe_layers"] = [layer.name for layer in layers]
            record["self_time_metrics"] = [
                layer.time_metric for layer in layers if layer.time_metric in units
            ]
            record["missing_targets"] = recorder.missing + phase.missing
            record["skipped_targets"] = recorder.skipped
            record["spans_files"] = [spans.name, *phase.spans_files]
        else:
            phase = workload.measure(seconds=args.seconds)
            units = end_to_end_units
            samples = workload.setup_samples or [setup_s, *_setup_probes(args)]
            metrics = _end_to_end(phase, samples)
            record["setup_samples_s"] = samples
        workload.check(args.inject_fault)
    finally:
        workload.close()

    from repro.runpkg import environment_stamp

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    metrics = {name: metrics[name] for name in units}
    record.update(
        stamp=environment_stamp(),
        samples={
            "first_time": len(phase.first_s),
            "repeat": len(phase.repeat_s),
            "wall_s": phase.wall_s,
            "calibration": len(phase.calibration),
        },
        speed_factor=speed_factor(phase),
        attempted=workload.attempted,
        failed=workload.failed,
        failed_fraction=workload.failed / max(1, workload.attempted),
        notes=workload.notes,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    correct = workload.failed == 0
    record["correct"] = correct
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    _print_report(args, metrics, units, record)
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
