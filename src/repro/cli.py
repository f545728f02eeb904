"""Command-line interface to the energy-analysis toolkit.

Exposes the everyday questions as subcommands so the tools can be driven from
a shell (or a Makefile) without writing Python::

    tpms-energy scenarios                                  # registry contents
    tpms-energy cycles                                     # drive-cycle list
    tpms-energy run --scenario exp.json                    # full flow of one scenario
    tpms-energy run --scenario exp.json \\
        --set temperature=-20,25,85 --set architecture=baseline,optimized \\
        --kind balance --export grid.csv                   # grid study
    tpms-energy run --scenario exp.json \\
        --kind montecarlo --mc-samples 2000 --workers 4    # Monte-Carlo sweep
    tpms-energy run --scenario exp.json \\
        --set temperature=-20,25,85 --kind emulate \\
        --workers 4 --backend process                      # process-pool study
    tpms-energy fleet --scenario exp.json \\
        --vehicles 500 --seed 42                           # population simulation
    tpms-energy fleet --fleet winter.json --export agg.csv # explicit fleet doc
    tpms-energy fleet --scenario exp.json \\
        --checkpoint ckpt/ --retries 2 --package pkg/      # resumable, packaged
    tpms-energy validate-run pkg/                          # CI regression gate
    tpms-energy serve --port 8123 --store-dir store/ \\
        --store-budget-mb 64 --checkpoint-dir ckpt/        # serving replica
    tpms-energy submit --endpoints h1:8123,h2:8123 \\
        --fleet winter.json > result.json                  # failover client
    tpms-energy architectures
    tpms-energy balance   --architecture baseline --temperature 25
    tpms-energy trace     --speed 60 --window 0.5
    tpms-energy optimize  --architecture baseline --temperature 85
    tpms-energy emulate   --cycle nedc --architecture optimized
    tpms-energy report    --architecture baseline

``run`` is the declarative front door: it reads a JSON
:class:`~repro.scenario.spec.ScenarioSpec` document, optionally expands
``--set axis=v1,v2,...`` overrides into a scenario grid
(:class:`~repro.scenario.study.Study`), and executes an analysis kind
(``balance``, ``report``, ``optimize``, ``emulate``, ``explore``) over it.
Without ``--set``/``--kind`` it runs the full Fig. 1 analysis flow of the
scenario.  ``fleet`` scales a scenario to a whole vehicle population
(:mod:`repro.fleet`): per-vehicle distributions, shared-bin emulation, and
aggregate survival/brown-out/energy-margin statistics.  The classic
subcommands resolve their ``--architecture`` and ``--cycle`` arguments
through the same registries (:mod:`repro.scenario.registry`), so
user-registered components work everywhere.

Every subcommand prints plain-text tables (see :mod:`repro.reporting`) and
returns a non-zero exit code with a one-line ``error:`` message on analysis
or configuration errors — never a traceback.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.conditions.operating_point import OperatingPoint
from repro.core.balance import EnergyBalanceAnalysis
from repro.core.emulator import NodeEmulator
from repro.core.evaluator import EnergyEvaluator
from repro.core.flow import EnergyAnalysisFlow
from repro.core.report import render_flow_headlines, render_flow_report
from repro.errors import ConfigError, ReproError
from repro.fleet import FleetRunner, FleetSpec, load_fleet
from repro.optimization.apply import apply_assignments
from repro.optimization.selection import select_techniques
from repro.reporting.export import rows_to_csv, rows_to_json
from repro.reporting.tables import render_table
from repro.runpkg import validate_run_package, write_run_package
from repro.scenario.listing import cycle_rows, scenario_listing
from repro.scenario.registry import ARCHITECTURES, DRIVE_CYCLES, POWER_DATABASES
from repro.scenario.montecarlo import MonteCarloConfig
from repro.scenario.spec import load_scenario
from repro.scenario.study import STUDY_KINDS, Study, StudyResult
from repro.scavenger.piezoelectric import PiezoelectricScavenger
from repro.scavenger.storage import supercapacitor


def _resolve_node(name: str):
    """Architecture lookup through the scenario registry."""
    return ARCHITECTURES.create(name)


def _resolve_cycle(name: str):
    """Drive-cycle lookup through the scenario registry.

    Cycles with required parameters (``constant``, ``ramp``) cannot be named
    bare on the command line; point the user at the scenario document form
    instead of echoing a missing-argument message.
    """
    try:
        return DRIVE_CYCLES.create(name)
    except ConfigError as error:
        if name not in DRIVE_CYCLES:
            raise
        parameters = ", ".join(inspect.signature(DRIVE_CYCLES.factory(name)).parameters)
        raise ConfigError(
            f"drive cycle {name!r} needs parameters ({parameters}); use a scenario "
            f'file with {{"drive_cycle": {{"name": "{name}", "params": {{...}}}}}}'
        ) from error


def _parse_set_overrides(entries: Sequence[str]) -> dict[str, list[object]]:
    """Parse repeated ``--set axis=v1,v2,...`` options into study axes."""

    def coerce(token: str) -> object:
        try:
            return int(token)
        except ValueError:
            pass
        try:
            return float(token)
        except ValueError:
            return token

    axes: dict[str, list[object]] = {}
    for entry in entries:
        axis, separator, values = entry.partition("=")
        axis = axis.strip()
        if not separator or not axis:
            raise ConfigError(
                f"malformed --set {entry!r}; expected axis=value1,value2,..."
            )
        tokens = [token.strip() for token in values.split(",")]
        if not values.strip() or any(not token for token in tokens):
            raise ConfigError(
                f"malformed --set {entry!r}; expected axis=value1,value2,..."
            )
        if axis in axes:
            raise ConfigError(f"axis {axis!r} given more than once in --set")
        axes[axis] = [coerce(token) for token in tokens]
    return axes


def _validate_export_path(path: str | None) -> None:
    """Reject an unusable --export path *before* any analysis runs."""
    if path is not None and not path.endswith((".csv", ".json")):
        raise ConfigError(f"export path {path!r} must end in .csv or .json")


def _export_rows(rows: list[dict[str, object]], path: str) -> None:
    """Write rows to ``path`` as CSV or JSON, by extension."""
    _validate_export_path(path)
    if path.endswith(".json"):
        rows_to_json(rows, path)
    else:
        rows_to_csv(rows, path)
    print(f"\nexported {len(rows)} rows to {path}")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--architecture",
        default="baseline",
        help="architecture name (see the 'scenarios' subcommand)",
    )
    parser.add_argument(
        "--temperature",
        type=float,
        default=25.0,
        help="junction temperature in degrees Celsius",
    )
    parser.add_argument(
        "--scavenger-size",
        type=float,
        default=1.0,
        help="scavenger size factor relative to the reference device",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpms-energy",
        description="Energy analysis tools for self-powered tyre monitoring systems",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run a declarative scenario file (optionally as a grid study)"
    )
    run.add_argument(
        "--scenario", required=True, help="path to a scenario JSON document"
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        help="sweep a grid axis (repeatable), e.g. --set temperature=-20,25,85",
    )
    run.add_argument(
        "--kind",
        choices=STUDY_KINDS,
        default=None,
        help="analysis kind for study mode (default: the full flow, "
        "or 'balance' when --set is given)",
    )
    run.add_argument(
        "--export",
        default=None,
        metavar="PATH.{csv,json}",
        help="export the result rows as CSV or JSON",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the study grid on N workers (rows stay in "
        "sequential order with identical values)",
    )
    run.add_argument(
        "--backend",
        choices=("thread", "process"),
        default=None,
        help="worker pool backend for --workers: 'thread' (default; shared "
        "evaluator cache) or 'process' (CPU-bound kinds like optimize/emulate)",
    )
    run.add_argument(
        "--mc-samples",
        type=int,
        default=None,
        metavar="N",
        help="population size per grid point for --kind montecarlo",
    )
    run.add_argument(
        "--mc-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="base random seed for --kind montecarlo",
    )

    fleet = subparsers.add_parser(
        "fleet", help="population-scale fleet simulation over per-vehicle distributions"
    )
    fleet.add_argument(
        "--fleet",
        dest="fleet_path",
        default=None,
        metavar="FLEET.json",
        help="path to a fleet JSON document (base scenario + distributions)",
    )
    fleet.add_argument(
        "--scenario",
        default=None,
        metavar="SCENARIO.json",
        help="base scenario JSON; the default population distributions apply",
    )
    fleet.add_argument(
        "--vehicles", type=int, default=None, metavar="N", help="population size override"
    )
    fleet.add_argument(
        "--seed", type=int, default=None, metavar="SEED", help="materialization seed override"
    )
    fleet.add_argument(
        "--export",
        default=None,
        metavar="PATH.{csv,json}",
        help="export the aggregate row as CSV or JSON",
    )
    fleet.add_argument(
        "--export-survival",
        default=None,
        metavar="PATH.{csv,json}",
        help="export the survival-vs-time curve",
    )
    fleet.add_argument(
        "--export-vehicles",
        default=None,
        metavar="PATH.{csv,json}",
        help="export the per-vehicle rows",
    )
    fleet.add_argument(
        "--chunk-vehicles",
        type=int,
        default=None,
        metavar="N",
        help="vehicles per work chunk (checkpoint/streaming granularity)",
    )
    fleet.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="journal completed chunks in DIR; rerunning with the same "
        "fleet/seed/parameters resumes byte-identically",
    )
    fleet.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="compute at most N new chunks this run (requires --checkpoint "
        "to be useful); the run is reported as partial",
    )
    fleet.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="per-vehicle retry budget for transient failures; "
        "failed vehicles are reported instead of aborting the fleet",
    )
    fleet.add_argument(
        "--package",
        default=None,
        metavar="DIR",
        help="write a validated run package (spec + seed + environment + "
        "digests + KPIs) to DIR; refused for partial runs",
    )
    fleet.add_argument(
        "--kpi-floor",
        dest="kpi_floors",
        action="append",
        default=[],
        metavar="NAME=MIN",
        help="record a minimum acceptable value for a summary KPI in the "
        "run package (repeatable; requires --package)",
    )

    validate = subparsers.add_parser(
        "validate-run",
        help="re-validate run packages: schema, artifact digests, KPI floors",
    )
    validate.add_argument(
        "packages",
        nargs="+",
        metavar="DIR",
        help="run package directories (each holding a package.json)",
    )

    scenarios = subparsers.add_parser(
        "scenarios", help="list the registered scenario components and grid axes"
    )
    scenarios.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable listing (the GET /scenarios document)",
    )
    cycles = subparsers.add_parser("cycles", help="list the registered drive cycles")
    cycles.add_argument(
        "--json", action="store_true", help="emit the cycle rows as JSON"
    )
    subparsers.add_parser("architectures", help="list the predefined architectures")

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP serving layer (persistent evaluator cache + result store)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="default engine pool width for study requests that omit 'workers' "
        "(fleets run sequentially)",
    )
    serve.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="default engine backend for study requests that omit 'backend'",
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=1,
        metavar="N",
        help="jobs executed concurrently (each study may fan out over engine workers)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=8,
        metavar="N",
        help="evaluator LRU capacity (compiled tables kept alive across jobs)",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist the content-addressed result store in DIR "
        "(default: in-memory, dies with the server); DIR may be shared "
        "by several replicas (cross-process locked index)",
    )
    serve.add_argument(
        "--store-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="cap the result store at MB megabytes of payload "
        "(LRU eviction; default: unbounded)",
    )
    serve.add_argument(
        "--store-budget-entries",
        type=int,
        default=None,
        metavar="N",
        help="cap the result store at N entries (LRU eviction; default: unbounded)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal fleet-job chunks under DIR so stopped jobs resume "
        "on re-submission; share DIR (and --store-dir) across replicas so "
        "a surviving replica resumes a dead one's jobs",
    )

    submit = subparsers.add_parser(
        "submit",
        help="submit a study/fleet document to running serve replicas "
        "(failover client) and print the result document",
    )
    submit.add_argument(
        "--endpoints",
        required=True,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="comma-separated replica list, tried in order with failover "
        "on connection refusal/timeouts",
    )
    source = submit.add_mutually_exclusive_group(required=True)
    source.add_argument("--study", metavar="FILE", help="study request document (JSON)")
    source.add_argument("--fleet", metavar="FILE", help="fleet request document (JSON)")
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="overall deadline for submit + wait + result (default 600)",
    )
    submit.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="per-request socket timeout; a wedged replica counts as dead "
        "after this long (default 60)",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra passes over the endpoint list after a fruitless one "
        "(exponential backoff; default 2)",
    )

    balance = subparsers.add_parser(
        "balance", help="energy balance vs cruising speed and break-even point (Fig. 2)"
    )
    _add_common_arguments(balance)
    balance.add_argument("--speed-min", type=float, default=5.0)
    balance.add_argument("--speed-max", type=float, default=200.0)
    balance.add_argument("--speed-step", type=float, default=5.0)

    trace = subparsers.add_parser(
        "trace", help="instant power over a constant-speed window (Fig. 3)"
    )
    _add_common_arguments(trace)
    trace.add_argument("--speed", type=float, default=60.0, help="cruising speed in km/h")
    trace.add_argument("--window", type=float, default=0.5, help="window length in seconds")

    optimize = subparsers.add_parser(
        "optimize", help="duty-cycle-driven technique selection and re-estimation"
    )
    _add_common_arguments(optimize)
    optimize.add_argument("--speed", type=float, default=60.0, help="evaluation speed in km/h")

    emulate = subparsers.add_parser(
        "emulate", help="long-window emulation over a drive cycle"
    )
    _add_common_arguments(emulate)
    emulate.add_argument(
        "--cycle",
        default="urban",
        help="drive cycle name (see the 'cycles' subcommand)",
    )

    report = subparsers.add_parser(
        "report", help="run the full analysis flow and print the complete report"
    )
    _add_common_arguments(report)
    report.add_argument("--cycle", default=None, help="optional drive cycle name")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    _validate_export_path(args.export)
    spec = load_scenario(args.scenario)
    axes = _parse_set_overrides(args.overrides)
    montecarlo_given = args.mc_samples is not None or args.mc_seed is not None
    if montecarlo_given and args.kind != "montecarlo":
        raise ConfigError("--mc-samples/--mc-seed require --kind montecarlo")
    if axes or args.kind is not None:
        kind = args.kind or "balance"
        if args.backend == "process" and (args.workers is None or args.workers <= 1):
            raise ConfigError(
                "--backend process needs --workers greater than 1 "
                "(a single worker runs sequentially in this process)"
            )
        montecarlo = None
        if montecarlo_given:
            defaults = MonteCarloConfig()
            montecarlo = MonteCarloConfig(
                samples=args.mc_samples if args.mc_samples is not None else defaults.samples,
                seed=args.mc_seed if args.mc_seed is not None else defaults.seed,
            )
        study = Study(spec, axes=axes, montecarlo=montecarlo)
        result: StudyResult = study.run(
            kind, workers=args.workers, backend=args.backend or "thread"
        )
        print(
            result.as_table(
                title=f"Study — {spec.name} ({kind}), {len(result)} scenario(s)"
            )
        )
        print(
            f"\n{result.metadata['evaluator_builds']} evaluator build(s), "
            f"{result.metadata['evaluator_cache_hits']} cache hit(s) "
            f"across the grid ({result.metadata['workers']} worker(s), "
            f"{result.metadata['backend']} backend)"
        )
        # Timing goes to stderr so stdout stays a pure function of the inputs.
        print(f"wall time {result.metadata['wall_time_s']:.2f} s", file=sys.stderr)
        if args.export:
            _export_rows(result.as_rows(), args.export)
        return 0
    if args.workers is not None:
        raise ConfigError("--workers requires study mode (--set and/or --kind)")
    if args.backend is not None:
        raise ConfigError("--backend requires study mode (--set and/or --kind)")

    flow = EnergyAnalysisFlow.from_spec(spec)
    print(flow.node.describe())
    print()
    print(flow.scavenger.describe())
    print()
    report = flow.run()
    print(render_flow_headlines(report))
    if args.export:
        _export_rows(report.energy_report.as_rows(), args.export)
    return 0


def _parse_kpi_floors(entries: Sequence[str]) -> dict[str, float]:
    """Parse repeated ``--kpi-floor NAME=MIN`` options."""
    floors: dict[str, float] = {}
    for entry in entries:
        name, separator, value = entry.partition("=")
        name = name.strip()
        try:
            floor = float(value)
        except ValueError:
            floor = float("nan")
        if not separator or not name or math.isnan(floor):
            raise ConfigError(f"malformed --kpi-floor {entry!r}; expected NAME=MIN")
        if name in floors:
            raise ConfigError(f"KPI {name!r} given more than once in --kpi-floor")
        floors[name] = floor
    return floors


def _cmd_fleet(args: argparse.Namespace) -> int:
    for path in (args.export, args.export_survival, args.export_vehicles):
        _validate_export_path(path)
    if (args.fleet_path is None) == (args.scenario is None):
        raise ConfigError("give exactly one of --fleet or --scenario")
    if args.kpi_floors and args.package is None:
        raise ConfigError("--kpi-floor requires --package")
    floors = _parse_kpi_floors(args.kpi_floors)
    if args.fleet_path is not None:
        fleet = load_fleet(args.fleet_path)
    else:
        fleet = FleetSpec.from_base(load_scenario(args.scenario))
    fleet = fleet.with_population(
        vehicles=args.vehicles, seed=args.seed, chunk_vehicles=args.chunk_vehicles
    )

    runner = FleetRunner(
        fleet,
        checkpoint=args.checkpoint,
        max_chunks=args.max_chunks,
        retries=args.retries,
    )
    result = runner.run()
    print(f"fleet {fleet.name}: {fleet.describe()}")
    print()
    print(result.as_table())
    print()
    print(result.survival_table())
    metadata = result.metadata
    print(
        f"\n{metadata['vehicles']} vehicle(s) in {metadata['cohorts']} cohort(s) "
        f"across {metadata['groups']} evaluator group(s); "
        f"{metadata['shared_energy_bins']} shared energy bin(s) swept once"
    )
    print(f"wall time {metadata['wall_time_s']:.2f} s", file=sys.stderr)
    if metadata["resumed_chunks"]:
        print(
            f"resumed {metadata['resumed_chunks']} chunk(s) "
            f"({metadata['resumed_vehicles']} vehicle(s)) from {metadata['checkpoint']}"
        )
    if metadata["partial"]:
        print(
            f"PARTIAL run: {metadata['chunks_completed']}/{metadata['chunks_total']} "
            f"chunk(s) done, {metadata['vehicles_failed']} vehicle(s) failed"
            + (
                f"; rerun with --checkpoint {metadata['checkpoint']} to continue"
                if metadata["checkpoint"]
                else ""
            )
        )
    if args.export:
        _export_rows([dict(result.summary)], args.export)
    if args.export_survival:
        _export_rows([dict(row) for row in result.survival], args.export_survival)
    if args.export_vehicles:
        _export_rows([dict(row) for row in result.vehicle_rows], args.export_vehicles)
    if args.package:
        if metadata["partial"]:
            raise ConfigError(
                "refusing to package a partial run "
                f"({metadata['chunks_completed']}/{metadata['chunks_total']} chunk(s), "
                f"{metadata['vehicles_failed']} failed vehicle(s)); "
                "finish the run first, then package"
            )
        package_dir = Path(args.package)
        package_dir.mkdir(parents=True, exist_ok=True)
        rows_to_json([dict(result.summary)], str(package_dir / "summary.json"))
        rows_to_json([dict(row) for row in result.survival], str(package_dir / "survival.json"))
        artifacts = {
            "summary.json": package_dir / "summary.json",
            "survival.json": package_dir / "survival.json",
        }
        if result.vehicle_rows is not None:
            rows_to_json(
                [dict(row) for row in result.vehicle_rows],
                str(package_dir / "vehicles.json"),
            )
            artifacts["vehicles.json"] = package_dir / "vehicles.json"
        kpis = {
            key: float(value)
            for key, value in result.summary.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        }
        manifest_path = write_run_package(
            package_dir,
            kind="fleet",
            name=fleet.name,
            spec_document=fleet.to_dict(),
            seed=fleet.seed,
            kpis=kpis,
            floors=floors,
            artifacts=artifacts,
            extra={
                "wall_time_s": metadata["wall_time_s"],
                "chunks": metadata["chunks_total"],
                "resumed_chunks": metadata["resumed_chunks"],
            },
        )
        print(f"\nwrote run package {manifest_path.parent} ({len(kpis)} KPI(s), "
              f"{len(floors)} floor(s))")
    return 0


def _cmd_validate_run(args: argparse.Namespace) -> int:
    for directory in args.packages:
        summary = validate_run_package(directory)
        print(
            f"ok: {directory} — run {summary['run_id']} "
            f"({summary['kind']}/{summary['name']}): "
            f"{summary['artifacts']} artifact(s), {summary['kpis']} KPI(s), "
            f"{summary['floors']} floor(s) checked"
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    # One listing source for the table, the --json form and GET /scenarios.
    listing = scenario_listing()
    if args.json:
        print(json.dumps(listing, indent=2, allow_nan=False))
        return 0
    print(render_table(listing["components"], title="Registered scenario components"))
    print(f"\ngrid axes for --set: {', '.join(listing['axes'])}")
    return 0


def _cmd_cycles(args: argparse.Namespace) -> int:
    rows = cycle_rows()
    if args.json:
        print(json.dumps(rows, indent=2, allow_nan=False))
        return 0
    print(render_table(rows, title="Registered drive cycles", float_digits=1))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the classic one-shot subcommands never pay for the
    # serving layer's asyncio machinery.
    from repro.serve import EvaluatorLRU, JobManager, ResultStore, ServeServer, StoreBudget

    budget = StoreBudget.from_cli(args.store_budget_mb, args.store_budget_entries)
    manager = JobManager(
        evaluator_cache=EvaluatorLRU(capacity=args.cache_size),
        store=ResultStore(args.store_dir, budget=budget),
        workers=args.workers,
        backend=args.backend,
        job_workers=args.job_workers,
        checkpoint_root=args.checkpoint_dir,
    )
    server = ServeServer(manager, host=args.host, port=args.port)
    # The banner prints from the ready callback (after the bind) so --port 0
    # announces the real kernel-assigned port; harnesses parse this line.
    server.serve_forever(
        ready=lambda bound: print(
            f"serving on http://{args.host}:{bound.port} (SIGINT/SIGTERM drain and exit)",
            flush=True,
        )
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    endpoints = [item.strip() for item in args.endpoints.split(",") if item.strip()]
    if not endpoints:
        raise ConfigError("--endpoints needs at least one HOST:PORT entry")
    client = ServeClient(
        endpoints=endpoints,
        timeout=args.request_timeout,
        retries=args.retries,
    )
    source = args.study if args.study is not None else args.fleet
    try:
        document = json.loads(Path(source).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read request document {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"request document {source} is not valid JSON: {exc}") from exc
    if args.study is not None:
        final, payload = client.run_study(document, timeout=args.timeout)
    else:
        final, payload = client.run_fleet(document, timeout=args.timeout)
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    host, port = client.preferred_endpoint
    print(
        f"job {final['id']} {final['state']} on {host}:{port} "
        f"({len(payload)} result byte(s))",
        file=sys.stderr,
    )
    return 0


def _cmd_architectures(_: argparse.Namespace) -> int:
    rows = []
    for name in ARCHITECTURES.names():
        node = _resolve_node(name)
        rows.append(
            {
                "architecture": name,
                "blocks": len(node.blocks()),
                "tx every N rev": node.radio.tx_interval_revs,
                "accelerometer": node.sensors.use_accelerometer,
                "description": node.describe().splitlines()[0],
            }
        )
    print(render_table(rows, title="Predefined Sensor Node architectures"))
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    node = _resolve_node(args.architecture)
    scavenger = PiezoelectricScavenger().scaled(args.scavenger_size)
    analysis = EnergyBalanceAnalysis(node, POWER_DATABASES.create("reference"), scavenger)
    speeds = np.arange(args.speed_min, args.speed_max + args.speed_step / 2, args.speed_step)
    curve = analysis.curve(
        speeds,
        point_factory=lambda speed: OperatingPoint(
            speed_kmh=speed, temperature_c=args.temperature
        ),
    )
    print(
        render_table(
            curve.as_rows(),
            title=f"Energy balance — {node.name}, {args.temperature:.0f} degC",
            float_digits=2,
        )
    )
    break_even = curve.break_even_speed_kmh()
    if break_even is None:
        print("\nbreak-even: not reached in the sampled range")
    else:
        print(f"\nbreak-even (minimum activation) speed: {break_even:.1f} km/h")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    node = _resolve_node(args.architecture)
    emulator = NodeEmulator(
        node,
        POWER_DATABASES.create("reference"),
        PiezoelectricScavenger().scaled(args.scavenger_size),
        supercapacitor(),
        base_point=OperatingPoint(temperature_c=args.temperature),
    )
    trace = emulator.steady_state_trace(args.speed, args.window)
    print(
        render_table(
            trace.as_rows(),
            title=f"Instant power — {node.name} at {args.speed:.0f} km/h",
            float_digits=3,
        )
    )
    print(
        f"\npeak {trace.peak_power_w() * 1e3:.2f} mW, "
        f"average {trace.average_power_w() * 1e6:.1f} uW, "
        f"floor {trace.min_power_w() * 1e6:.2f} uW, "
        f"energy {trace.energy_j() * 1e6:.1f} uJ over {trace.duration_s * 1e3:.0f} ms"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    node = _resolve_node(args.architecture)
    database = POWER_DATABASES.create("reference")
    point = OperatingPoint(speed_kmh=args.speed, temperature_c=args.temperature)
    evaluator = EnergyEvaluator(node, database)
    assignments = select_techniques(evaluator.duty_cycles(point), database=database)
    outcome = apply_assignments(node, database, assignments, point=point)
    if outcome.assignments:
        print(render_table(outcome.as_rows(), title="Selected optimization techniques"))
    print(
        f"\nenergy per wheel round: {outcome.energy_before_j * 1e6:.1f} uJ -> "
        f"{outcome.energy_after_j * 1e6:.1f} uJ "
        f"({outcome.saving_fraction * 100.0:.1f}% saving) at {point.describe()}"
    )
    return 0


def _cmd_emulate(args: argparse.Namespace) -> int:
    node = _resolve_node(args.architecture)
    cycle = _resolve_cycle(args.cycle)
    emulator = NodeEmulator(
        node,
        POWER_DATABASES.create("reference"),
        PiezoelectricScavenger().scaled(args.scavenger_size),
        supercapacitor(initial_fraction=0.2),
        base_point=OperatingPoint(temperature_c=args.temperature),
    )
    result = emulator.emulate(cycle)
    rows = [{"figure": key, "value": value} for key, value in result.summary().items()]
    print(render_table(rows, title=f"Emulation — {node.name} on the {cycle.name} cycle",
                       float_digits=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    node = _resolve_node(args.architecture)
    flow = EnergyAnalysisFlow(
        node,
        POWER_DATABASES.create("reference"),
        PiezoelectricScavenger().scaled(args.scavenger_size),
        storage=supercapacitor(initial_fraction=0.2),
    )
    cycle = _resolve_cycle(args.cycle) if args.cycle else None
    flow_report = flow.run(
        point=OperatingPoint(speed_kmh=60.0, temperature_c=args.temperature),
        drive_cycle=cycle,
    )
    print(render_flow_report(flow_report))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "fleet": _cmd_fleet,
    "validate-run": _cmd_validate_run,
    "scenarios": _cmd_scenarios,
    "cycles": _cmd_cycles,
    "architectures": _cmd_architectures,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "balance": _cmd_balance,
    "trace": _cmd_trace,
    "optimize": _cmd_optimize,
    "emulate": _cmd_emulate,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
