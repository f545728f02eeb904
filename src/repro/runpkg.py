"""Self-describing run packages: write once, re-validate forever.

A *run package* is a directory that makes a finished run auditable without
rerunning it — the artifact-side twin of the checkpoint journal.  It stamps
the run with everything a reviewer (or a CI gate) needs::

    package-dir/
        package.json         # manifest: spec + seed + environment + digests
        <artifact files>     # result exports copied in, digest-pinned

The manifest records the spec document and seed that produced the run, the
environment stamp the benchmarks already use (python/numpy versions,
platform, CPU count, pool width/backend), a SHA-256 digest per artifact
file, the run's KPI figures and — optionally — *floors* those KPIs must
clear.  :func:`validate_run_package` re-checks all of it (schema, digests,
floors) and raises a :class:`~repro.errors.PackageError` with a one-line
reason on the first violation, which is what lets ``tpms-energy
validate-run`` act as a regression gate over ``benchmarks/results/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.digest import canonical_digest
from repro.errors import PackageError

#: Manifest schema version; bumped on incompatible layout changes.
PACKAGE_VERSION = 1

_MANIFEST = "package.json"


def environment_stamp(
    workers: int | None = None, backend: str | None = None
) -> dict[str, object]:
    """The machine/runtime context stamped into run packages and benchmarks.

    Single-sourced here (the benchmark harness imports it) so package
    manifests and benchmark JSON artifacts can never drift apart: a
    wall-time or KPI trajectory across commits is uninterpretable once the
    interpreter, numpy build or runner hardware moves underneath it.
    """
    stamp: dict[str, object] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    if workers is not None:
        stamp["workers"] = workers
    if backend is not None:
        stamp["backend"] = backend
    return stamp


def file_sha256(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _require_number(label: str, value: object) -> float:
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise PackageError(f"{label} must be a finite number, got {value!r}")
    return float(value)


def write_run_package(
    directory: str | Path,
    kind: str,
    name: str,
    spec_document: Mapping[str, object] | None = None,
    seed: int | None = None,
    kpis: Mapping[str, float] | None = None,
    floors: Mapping[str, float] | None = None,
    artifacts: Mapping[str, str | Path] | None = None,
    extra: Mapping[str, object] | None = None,
    workers: int | None = None,
    backend: str | None = None,
) -> Path:
    """Write a run package: copy artifacts in, stamp and digest everything.

    Args:
        directory: the package directory; created (with parents) if absent.
        kind: what produced the run (``"fleet"``, ``"study"``,
            ``"benchmarks"`` ...).
        name: human label of the run (fleet/study/benchmark-set name).
        spec_document: the declarative document that produced the run, when
            there is one.
        seed: the run's materialization seed, when there is one.
        kpis: the run's headline figures (finite numbers).
        floors: minimum acceptable values per KPI name; every floor must
            name an existing KPI (checked here *and* at validation).
        artifacts: mapping of artifact file name → source path; each file is
            copied into the package and digest-pinned.  Names must be bare
            file names (the package is flat).
        extra: further machine-readable context for the manifest.
        workers/backend: pool context for the environment stamp.

    Returns:
        The path of the written ``package.json``.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    kpis = {str(key): _require_number(f"KPI {key!r}", value) for key, value in (kpis or {}).items()}
    floors = {
        str(key): _require_number(f"floor {key!r}", value) for key, value in (floors or {}).items()
    }
    for floor_name in floors:
        if floor_name not in kpis:
            raise PackageError(f"floor {floor_name!r} has no matching KPI")

    artifact_entries: dict[str, dict[str, object]] = {}
    for artifact_name, source in (artifacts or {}).items():
        artifact_name = str(artifact_name)
        if Path(artifact_name).name != artifact_name or artifact_name == _MANIFEST:
            raise PackageError(
                f"artifact name {artifact_name!r} must be a bare file name "
                f"(and not {_MANIFEST!r})"
            )
        source = Path(source)
        if not source.is_file():
            raise PackageError(f"artifact source {source} does not exist")
        destination = target / artifact_name
        if source.resolve() != destination.resolve():
            shutil.copyfile(source, destination)
        artifact_entries[artifact_name] = {
            "file": artifact_name,
            "sha256": file_sha256(destination),
            "bytes": destination.stat().st_size,
        }

    # Canonical-digest discipline shared with checkpoints and the serving
    # layer's result store (repro.digest); ``default=str`` keeps legacy
    # run_ids stable for manifests that carried non-JSON values.
    run_id = f"{name}-" + canonical_digest(
        {"kind": kind, "name": name, "spec": spec_document, "seed": seed, "kpis": kpis},
        default=str,
    )[:12]
    manifest = {
        "run_package": PACKAGE_VERSION,
        "run_id": run_id,
        "kind": str(kind),
        "name": str(name),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": environment_stamp(workers=workers, backend=backend),
        "spec": dict(spec_document) if spec_document is not None else None,
        "seed": seed,
        "artifacts": artifact_entries,
        "kpis": kpis,
        "floors": floors,
        "extra": dict(extra) if extra else {},
    }
    manifest_path = target / _MANIFEST
    tmp = manifest_path.with_name(manifest_path.name + ".tmp")
    try:
        text = json.dumps(manifest, indent=2, allow_nan=False)
    except ValueError as exc:
        raise PackageError(f"run package manifest is not strict JSON: {exc}") from exc
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, manifest_path)
    return manifest_path


def validate_run_package(directory: str | Path) -> dict[str, object]:
    """Re-check a run package: schema, artifact digests, KPI floors.

    Returns a summary dict (``run_id``, ``kind``, ``name``, counts of
    artifacts/KPIs/floors checked) on success.

    Raises:
        PackageError: with a one-line reason on the FIRST problem found —
            missing or malformed manifest, missing artifact, digest
            mismatch, non-finite KPI, floor without a KPI, or violated
            floor.
    """
    target = Path(directory)
    manifest_path = target / _MANIFEST
    if not manifest_path.is_file():
        raise PackageError(f"no {_MANIFEST} in {target}; not a run package")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PackageError(f"run package manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("run_package") != PACKAGE_VERSION:
        raise PackageError(
            f"run package manifest {manifest_path} has an unsupported layout "
            f"(expected version {PACKAGE_VERSION})"
        )

    artifacts = manifest.get("artifacts")
    if not isinstance(artifacts, dict):
        raise PackageError(f"run package manifest {manifest_path} has no artifact table")
    for artifact_name, entry in artifacts.items():
        try:
            file_name = str(entry["file"])
            expected = str(entry["sha256"])
        except (TypeError, KeyError) as exc:
            raise PackageError(
                f"artifact entry {artifact_name!r} is malformed ({exc})"
            ) from exc
        path = target / file_name
        if not path.is_file():
            raise PackageError(f"artifact {artifact_name!r} missing from package: {path}")
        found = file_sha256(path)
        if found != expected:
            raise PackageError(
                f"artifact {artifact_name!r} digest mismatch "
                f"(expected {expected[:12]}…, found {found[:12]}…); "
                "the package was modified after writing"
            )

    kpis = manifest.get("kpis") or {}
    floors = manifest.get("floors") or {}
    if not isinstance(kpis, dict) or not isinstance(floors, dict):
        raise PackageError(f"run package manifest {manifest_path} KPI tables are malformed")
    for kpi_name, value in kpis.items():
        _require_number(f"KPI {kpi_name!r}", value)
    for floor_name, floor in floors.items():
        floor = _require_number(f"floor {floor_name!r}", floor)
        if floor_name not in kpis:
            raise PackageError(f"floor {floor_name!r} has no matching KPI")
        value = float(kpis[floor_name])
        if value < floor:
            raise PackageError(f"KPI floor violated: {floor_name} = {value:g} < {floor:g}")

    return {
        "run_id": manifest.get("run_id"),
        "kind": manifest.get("kind"),
        "name": manifest.get("name"),
        "artifacts": len(artifacts),
        "kpis": len(kpis),
        "floors": len(floors),
    }
