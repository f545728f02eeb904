"""Crash-safe chunk journaling under the chunked execution engine.

A :class:`CheckpointStore` turns a directory into a resumable journal of
completed work chunks.  The layout is deliberately boring::

    checkpoint-dir/
        chunk-00000.json     # header line, then chunk 0's results, wall times, failures
        chunk-00001.json
        ...

Every chunk file certifies itself, so the directory listing *is* the
journal.  Its first line is a JSON header ``{"checkpoint", "key_sha256",
"chunk", "items", "sha256"}``: the layout version, the SHA-256 of the run
key (spec document + seed + execution parameters), the chunk index, its
item count and the SHA-256 of the body bytes that follow.  Opening a store
reads every header, so a directory can never silently resume a *different*
run; loading a chunk re-hashes its body, so truncation or tampering is
caught with a one-line actionable error instead of feeding corrupt rows
into an aggregate.

Crash argument: a chunk is written to a temporary sibling whose name is
unique to its writer, fsync'd, then hard-linked to its final name
(``os.link`` never replaces an existing name), and the directory is
fsync'd, so a final name only ever points at a complete file.  A writer
dying before the link leaves a stray ``*.tmp`` file that nothing reads
(the chunk is recomputed); dying after it leaves a chunk that a resume
adopts.  The next store opened on the directory removes stray tmp files
once their chunk is journaled.

Foreign-replica handoff: serve replicas sharing a checkpoint root, or a
CLI resume racing a still-draining server, may hold stores on one
directory for one run.  The link is atomic and first-writer-wins, so no
lock is needed: a writer that finds the name taken adopts the journaled
chunk once its header names the same run (the results are byte-identical
by construction), and :meth:`has_chunk` consults the listing, so live
stores skip each other's finished chunks.

Results are journaled as strict-key JSON with ``allow_nan=True``: Python's
``repr``-based float serialization round-trips every finite float exactly
and NaN survives as a literal, which is what makes a resumed run's rows
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping

from repro.digest import canonical_digest
from repro.errors import CheckpointError

#: Chunk-header layout version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 2

#: Header fields and their types, besides ``checkpoint`` (the version).
_HEADER_FIELDS = (("key_sha256", str), ("chunk", int), ("items", int), ("sha256", str))


def _key_digest(key: Mapping[str, object]) -> str:
    """Canonical SHA-256 of a run key document (see :mod:`repro.digest`)."""
    try:
        return canonical_digest(key)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint key is not canonical JSON: {exc}") from exc


def _chunk_name(chunk_index: int) -> str:
    return f"chunk-{chunk_index:05d}.json"


def _fsync_directory(directory: Path) -> None:
    """Make a new directory entry durable; best-effort on exotic filesystems."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


class CheckpointStore:
    """One run's chunk journal in a directory (see the module docstring).

    Args:
        directory: the checkpoint directory; created (with parents) when
            absent.  Chunk files already in it must belong to the *same*
            run key, or opening raises.
        key: the run-identifying document — for a fleet run the fleet
            document plus seed and the execution parameters that shape
            results.  Anything that changes the rows must be in the key.

    Raises:
        CheckpointError: the directory holds a different run's journal, or
            a chunk file (or leftover manifest) of another layout.
    """

    def __init__(self, directory: str | Path, key: Mapping[str, object]) -> None:
        self.directory = Path(directory)
        self.key = dict(key)
        self.key_sha256 = _key_digest(self.key)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = self.directory / "manifest.json"
        if manifest.exists():
            raise self._layout_error(manifest)
        self._chunks: set[int] = set()
        self._scan()
        self._leftovers: dict[str, list[Path]] = {}  # killed writers' tmp files, by chunk file
        for tmp in self.directory.glob("chunk-*.json.*.tmp"):
            self._leftovers.setdefault(tmp.name.rsplit(".", 2)[0], []).append(tmp)
        for chunk_index in self._chunks:
            self._drop_leftovers(_chunk_name(chunk_index))

    def _scan(self) -> None:
        """Add every chunk file in the directory, header-checked, to the journal."""
        for path in self.directory.glob("chunk-*.json"):
            with open(path, "rb") as handle:
                self._chunks.add(self._parse_header(path, handle.readline())["chunk"])

    def _drop_leftovers(self, name: str) -> None:
        """Remove the stray tmp files, seen at open, of a now journaled chunk."""
        for tmp in self._leftovers.pop(name, ()):
            tmp.unlink(missing_ok=True)

    @staticmethod
    def _layout_error(path: Path) -> CheckpointError:
        return CheckpointError(
            f"checkpoint file {path} has an unsupported layout (expected version "
            f"{CHECKPOINT_VERSION}); delete the checkpoint directory to start over"
        )

    def _parse_header(self, path: Path, line: bytes) -> dict[str, object]:
        """Validate a chunk file's header line against this store's run."""
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        if not (
            isinstance(header, dict)
            and header.get("checkpoint") == CHECKPOINT_VERSION
            and all(isinstance(header.get(name), kind) for name, kind in _HEADER_FIELDS)
            and path.name == _chunk_name(header["chunk"])
        ):
            raise self._layout_error(path)
        if header["key_sha256"] != self.key_sha256:
            raise CheckpointError(
                f"checkpoint directory {self.directory} belongs to a different run "
                f"(key digest {header['key_sha256'][:12]}… != {self.key_sha256[:12]}…); "
                "use a fresh directory, or rerun with the original spec/seed/parameters"
            )
        return header

    # -- chunk journal -------------------------------------------------------

    @property
    def completed_chunks(self) -> tuple[int, ...]:
        """Journaled chunk indices, ascending, re-listed from the directory."""
        self._scan()
        return tuple(sorted(self._chunks))

    def has_chunk(self, chunk_index: int) -> bool:
        """Whether ``chunk_index`` is journaled, by this store or any other."""
        return chunk_index in self._chunks or (self.directory / _chunk_name(chunk_index)).exists()

    def record_chunk(
        self,
        chunk_index: int,
        results: list[object],
        wall_times_s: list[float],
        failures: list[dict[str, object]] | None = None,
    ) -> Path:
        """Journal one completed chunk: tmp file, fsync, link, directory fsync.

        ``results`` must be JSON-serializable (NaN allowed); slots of failed
        items carry ``None`` with the failure recorded in ``failures`` (its
        ``index`` local to the chunk).

        When another store journaled this chunk first, its file is adopted.

        Raises:
            CheckpointError: the results are not JSON-serializable, the
                chunk file cannot be linked into place, or the file another
                store journaled under its name belongs to a different run.
        """
        payload = {
            "chunk": chunk_index,
            "items": len(results),
            "results": results,
            "wall_times_s": list(wall_times_s),
            "failures": list(failures or []),
        }
        try:
            body = json.dumps(payload, allow_nan=True).encode("utf-8") + b"\n"
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"chunk {chunk_index} results are not JSON-serializable: {exc}"
            ) from exc
        header = {
            "checkpoint": CHECKPOINT_VERSION,
            "key_sha256": self.key_sha256,
            "chunk": chunk_index,
            "items": len(results),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        path = self.directory / _chunk_name(chunk_index)
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "xb") as handle:
                handle.write(json.dumps(header).encode("utf-8") + b"\n" + body)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.link(tmp, path)
            except OSError as exc:
                # Another store journaled this chunk first (and may have swept
                # this tmp file since): adopt its file if it is this run's.
                if not isinstance(exc, (FileExistsError, FileNotFoundError)) or not path.exists():
                    raise CheckpointError(
                        f"cannot journal chunk {chunk_index} as {path} ({exc}); "
                        "the checkpoint directory must support hard links"
                    ) from exc
                with open(path, "rb") as handle:
                    self._parse_header(path, handle.readline())
            else:
                _fsync_directory(self.directory)
        finally:
            tmp.unlink(missing_ok=True)
        self._chunks.add(chunk_index)
        self._drop_leftovers(path.name)
        return path

    def load_chunk(
        self, chunk_index: int, expected_items: int | None = None
    ) -> tuple[list[object], list[float], list[dict[str, object]]]:
        """Load one journaled chunk as ``(results, wall_times_s, failures)``.

        Raises:
            CheckpointError: the chunk is not journaled, its file is missing
                or fails its digest, or its item count contradicts the
                caller's expectation (the spec changed under the journal).
        """
        if not self.has_chunk(chunk_index):
            raise CheckpointError(
                f"chunk {chunk_index} is not journaled in {self.directory}; "
                "it must be recomputed"
            )
        path = self.directory / _chunk_name(chunk_index)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint chunk file {path} is missing ({exc}); "
                "delete the checkpoint directory and rerun"
            ) from exc
        line, _, body = blob.partition(b"\n")
        header = self._parse_header(path, line)
        if hashlib.sha256(body).hexdigest() != header["sha256"]:
            raise CheckpointError(
                f"checkpoint chunk file {path} is corrupt (digest mismatch); "
                "delete the checkpoint directory and rerun"
            )
        document = json.loads(body.decode("utf-8"))
        results = document["results"]
        if len(results) != header["items"] or (
            expected_items is not None and len(results) != expected_items
        ):
            raise CheckpointError(
                f"checkpoint chunk {chunk_index} holds {len(results)} item(s) where "
                f"{expected_items if expected_items is not None else header['items']} "
                "were expected; the run parameters changed — use a fresh checkpoint "
                "directory"
            )
        return results, list(document.get("wall_times_s", [])), list(document.get("failures", []))
