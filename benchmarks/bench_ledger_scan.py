"""The run-length ledger scan vs the per-step ``reference_scan`` loop.

:func:`~repro.scavenger.storage.trajectory` replays every storage ledger
through :func:`~repro.scavenger.storage.run_length_scan`, which advances
event-free stretches with one ``np.add.accumulate`` and steps events
through :func:`~repro.scavenger.storage.reference_scan`.  This benchmark
times both scans ledger by ledger on four sets and *asserts* that every
output of every ledger (charge, activity, banked and drawn energy,
attempted/withdrew flags, brown-out count, final charge) is bitwise equal:

* **fleet** — the ledgers of 64 urban x2 fleet vehicles, captured from a
  real fleet run with the free-ledger certificate switched off (a
  ``certify_free`` that returns ``False`` declines every row of every
  walk; the real one certifies all of them, so none would be scanned);
* **design** — the ledgers of the 27 architecture x power database x cycle
  scenarios of one design-loop block, captured from cold ``emulate()`` runs;
* **brownout** — 64 synthetic supercapacitor ledgers of 900 steps with
  sparse harvest and steady load (brown-outs and restarts), scanned as
  column views of ``(steps, ledgers)`` arrays;
* **every-step** — ledgers with an event on every step (a failed
  withdrawal, a restart at a zero threshold, a clipped leak).

On the real sets the run-length scan must be at least ``LEDGER_SCAN_FLOOR``
times faster (local default 10x; 20-50x measured on a 2-CPU x86 box); on
the two event-dense sets it must keep at least 0.8x the speed of
``reference_scan``.

A second case times :func:`~repro.scavenger.storage.certify_free` in its
one-ledger form (one gain, one ``D``; the fleet calls it once per walk
and chunk, over every eligible vehicle) against ``run_length_scan`` on the
same ledgers.  Its inputs (the prefix sums ``U`` and ``D``) are a walk's
and a cohort's constants in the fleet, so they are built outside the
timing.  It must certify every fleet ledger, beat the scan on them by at
least ``CERTIFICATE_FLOOR`` (local default 3x), and certify no ledger of
any set that the scan does not flag free.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from unittest import mock

import numpy as np

import repro.fleet.runner as fleet_runner
import repro.scavenger.storage as storage_module
from benchmarks.conftest import emit_result, emit_timing
from repro.core.emulator import NodeEmulator
from repro.fleet import FleetRunner, FleetSpec
from repro.scavenger.storage import certify_free, reference_scan, run_length_scan
from repro.scenario.spec import ScenarioSpec

#: Local bar on the real-plan sets; shared CI runners are noisy, so
#: workflows may lower the enforced floor via the environment while the
#: measured number is still reported.
REQUIRED_SPEEDUP = float(os.environ.get("LEDGER_SCAN_FLOOR", "10.0"))
#: The event-dense sets must not be slower than this fraction of the loop.
DENSE_FLOOR = 0.8
#: Local bar of the certificate over the run-length scan on the fleet set
#: (lowered on shared CI runners like ``LEDGER_SCAN_FLOOR``).
CERTIFICATE_FLOOR = float(os.environ.get("CERTIFICATE_FLOOR", "3.0"))

REPEATS = 5
ARCHITECTURES = ("baseline", "optimized", "legacy-tpms")
DATABASES = ("reference", "low-power", "high-performance")
CYCLES = ("urban", "nedc", {"name": "highway", "params": {"duration_s": 600.0}})
SCAVENGERS = ("piezoelectric", "electromagnetic", "electrostatic")
STORAGE = ("supercapacitor", "thin-film-battery")


def _captured(run) -> list[tuple]:
    """The argument tuples of every ledger scan ``run()`` performs."""
    calls = []

    def record(*args):
        calls.append(args)
        return run_length_scan(*args)

    with mock.patch.object(storage_module, "run_length_scan", record):
        run()
    return calls


@functools.cache
def _fleet_ledgers() -> list[tuple]:
    base = ScenarioSpec(
        name="ledger-urban", drive_cycle={"name": "urban", "params": {"repetitions": 2}}
    )
    fleet = FleetSpec.from_base(base, vehicles=64, seed=11)
    # With the certificate on, a certified vehicle is never scanned.
    with mock.patch.object(fleet_runner, "certify_free", lambda *args: False):
        return _captured(lambda: FleetRunner(fleet).run())


@functools.cache
def _design_ledgers() -> list[tuple]:
    specs = [
        ScenarioSpec.from_dict(
            {
                "name": "ledger-design",
                "architecture": architecture,
                "power_database": database,
                "drive_cycle": cycle,
                "scavenger": SCAVENGERS[(a + d) % 3],
                "storage": STORAGE[c % 2],
            }
        )
        for (a, architecture), (d, database), (c, cycle) in itertools.product(
            enumerate(ARCHITECTURES), enumerate(DATABASES), enumerate(CYCLES)
        )
    ]

    def run():
        for spec in specs:
            node, database, evaluator = spec.build_components()
            NodeEmulator(
                node,
                database,
                spec.build_scavenger(),
                spec.build_storage(),
                base_point=spec.operating_point(),
                evaluator=evaluator,
            ).emulate(spec.build_drive_cycle())

    return _captured(run)


def _brownout_ledgers(count: int = 64, steps: int = 900, seed: int = 11) -> list[tuple]:
    """Supercapacitor-like ledgers: sparse harvest, steady load, brown-outs."""
    rng = np.random.default_rng(seed)
    capacity = 0.25 * rng.uniform(0.9, 1.1, count)
    stored = rng.uniform(0.0, 4e-4, (steps, count)) * (rng.random((steps, count)) < 0.6)
    load = rng.uniform(0.0, 3e-4, (steps, count))
    required = load / 0.92
    leak = 0.8e-6 * rng.uniform(0.05, 1.0, (steps, count))
    charge = capacity * rng.uniform(0.0, 0.5, count)
    active = rng.random(count) < 0.5
    restart = capacity * rng.uniform(0.05, 0.2, count)
    return [
        (
            stored[:, column],
            required[:, column],
            load[:, column],
            leak[:, column],
            float(charge[column]),
            bool(active[column]),
            float(capacity[column]),
            float(restart[column]),
        )
        for column in range(count)
    ]


def _every_step_ledgers(count: int = 16, steps: int = 900, seed: int = 12) -> list[tuple]:
    """An event on every step: failed withdrawals, zero-threshold restarts, clipped leaks."""
    rng = np.random.default_rng(seed)
    ledgers = []
    for _ in range(count):
        stored = rng.uniform(0.0, 1e-4, steps)
        load = rng.uniform(0.5, 1.0, steps)
        ledgers.append((stored, load / 0.9, load, np.full(steps, 1e-3), 0.1, True, 0.25, 0.0))
    return ledgers


def _scan_all(scan, ledgers) -> list[tuple]:
    return [scan(*ledger) for ledger in ledgers]


def _timed(ledgers) -> tuple[float, float, list, list]:
    """Best-of totals of both scans over the set, runs interleaved."""
    best = {reference_scan: float("inf"), run_length_scan: float("inf")}
    results = {}
    for _ in range(REPEATS):
        for scan in best:
            start = time.perf_counter()
            results[scan] = _scan_all(scan, ledgers)
            best[scan] = min(best[scan], time.perf_counter() - start)
    return best[reference_scan], best[run_length_scan], results[reference_scan], results[
        run_length_scan
    ]


def _bits(value) -> bytes:
    return np.ascontiguousarray(value).tobytes()


def _assert_bitwise(references, scanned) -> int:
    """Every output of every ledger equal; returns the brown-out total."""
    brownouts = 0
    for reference, outputs in zip(references, scanned, strict=True):
        for expected, output in zip(reference[:6], outputs[:6]):
            assert _bits(output) == _bits(expected)
        assert outputs[6] == reference[6]
        assert _bits(np.float64(outputs[7])) == _bits(np.float64(reference[7]))
        brownouts += reference[6]
    return brownouts


def test_run_length_scan_beats_reference_scan_bitwise():
    sets = {
        "fleet": (_fleet_ledgers(), REQUIRED_SPEEDUP),
        "design": (_design_ledgers(), REQUIRED_SPEEDUP),
        "brownout": (_brownout_ledgers(), DENSE_FLOOR),
        "every-step": (_every_step_ledgers(), DENSE_FLOOR),
    }
    assert len(sets["design"][0]) == 27
    rows = []
    failures = []
    for name, (ledgers, floor) in sets.items():
        reference_s, run_length_s, references, scanned = _timed(ledgers)
        brownouts = _assert_bitwise(references, scanned)
        steps = sum(len(ledger[0]) for ledger in ledgers)
        speedup = reference_s / run_length_s
        rows.append(
            {
                "set": name,
                "ledgers": len(ledgers),
                "steps": steps,
                "brownout_events": brownouts,
                "reference_ms": reference_s * 1e3,
                "run_length_ms": run_length_s * 1e3,
                "speedup_x": speedup,
                "floor_x": floor,
            }
        )
        if speedup < floor:
            failures.append(f"{name}: {speedup:.2f}x < {floor:.2f}x")
    assert rows[2]["brownout_events"] > 0, "the brown-out set should brown out"
    assert rows[3]["brownout_events"] > rows[3]["steps"] // 2

    emit_result(
        "ledger_scan", rows, title="Storage ledger: run_length_scan vs reference_scan"
    )
    emit_timing(
        "ledger_scan",
        wall_times_s={
            f"{row['set']}_{scan}": row[f"{scan}_ms"] / 1e3
            for row in rows
            for scan in ("reference", "run_length")
        },
        speedups={row["set"]: row["speedup_x"] for row in rows},
        extra={"required_speedup": REQUIRED_SPEEDUP, "dense_floor": DENSE_FLOOR},
    )
    assert not failures, "run_length_scan below its floor on: " + "; ".join(failures)


def _certificate_inputs(ledger) -> tuple:
    """What :func:`certify_free` reads of a captured ledger.

    The stored energies serve as the unit harvest at gain 1: ``(1.0 *
    stored) * 1.0`` is ``stored``, so the certificate speaks of this very
    ledger.
    """
    stored, required, _load, leak, charge, active, capacity, _restart = ledger
    demand_prefix = np.zeros(len(stored) + 1)
    np.cumsum(required + leak, out=demand_prefix[1:])
    return np.cumsum(stored), 1.0, demand_prefix, charge, active, capacity


def test_certificate_beats_run_length_scan_and_is_sound():
    sets = {
        "fleet": _fleet_ledgers(),
        "design": _design_ledgers(),
        "brownout": _brownout_ledgers(),
        "every-step": _every_step_ledgers(),
    }
    rows = []
    for name, ledgers in sets.items():
        inputs = [_certificate_inputs(ledger) for ledger in ledgers]
        best = {certify_free: float("inf"), run_length_scan: float("inf")}
        outcomes = {}
        for _ in range(REPEATS):
            for check, arguments in ((certify_free, inputs), (run_length_scan, ledgers)):
                start = time.perf_counter()
                outcomes[check] = [check(*values) for values in arguments]
                best[check] = min(best[check], time.perf_counter() - start)
        certified = outcomes[certify_free]
        free = [outputs[8] for outputs in outcomes[run_length_scan]]
        unsound = [i for i, (ok, flag) in enumerate(zip(certified, free)) if ok and not flag]
        assert not unsound, f"{name}: certified ledgers the scan finds not free: {unsound}"
        rows.append(
            {
                "set": name,
                "ledgers": len(ledgers),
                "scan_free": sum(free),
                "certified": sum(certified),
                "run_length_ms": best[run_length_scan] * 1e3,
                "certificate_ms": best[certify_free] * 1e3,
                "speedup_x": best[run_length_scan] / best[certify_free],
            }
        )
    fleet = rows[0]
    assert fleet["certified"] == fleet["ledgers"], "every urban fleet ledger is free"

    emit_result(
        "ledger_certificate", rows, title="Storage ledger: certify_free vs run_length_scan"
    )
    emit_timing(
        "ledger_certificate",
        wall_times_s={
            f"{row['set']}_{check}": row[f"{check}_ms"] / 1e3
            for row in rows
            for check in ("run_length", "certificate")
        },
        speedups={row["set"]: row["speedup_x"] for row in rows},
        extra={"certificate_floor": CERTIFICATE_FLOOR},
    )
    assert fleet["speedup_x"] >= CERTIFICATE_FLOOR, (
        f"certify_free only {fleet['speedup_x']:.2f}x the scan on the fleet ledgers "
        f"(floor {CERTIFICATE_FLOOR:.2f}x)"
    )
