"""Content-addressed result store — byte-exact replay of finished jobs.

A result is stored under the sha256 of its *request*: the canonical JSON
of the spec document plus the result-shaping runner parameters (seed,
record interval, survival buckets, ...), hashed through
:mod:`repro.digest` — the same canonical-digest discipline checkpoint
manifests and run-package ids use.  Execution-only parameters (a study's
workers and backend, retries) are deliberately *excluded* from the key:
the engine's row-identity contract makes them non-result-shaping, so a
study run on 8 process workers hits the entry stored by a sequential run.

Values are opaque byte strings (the serialized result document).  Storing
and returning bytes — never re-parsed, never re-serialized — is what lets
the serving layer promise store-hit responses byte-identical to a fresh
run, and is asserted end-to-end by the test suite.

Multi-replica sharing
---------------------

With a directory the store persists each entry as ``<digest>.json`` via
a write-then-rename + fsync discipline (a torn write can never surface as
a corrupt entry), and N server processes may
share one directory: every metadata read-modify-write — the ``index.json``
recency/size table, eviction, the first-write-wins check — happens under a
cross-process advisory lock (:class:`~repro.fslock.FileLock` on ``.lock``),
so replicas see each other's writes and an eviction can never race a
concurrent ``get`` (both hold the lock while touching entry files).  A
:class:`~repro.serve.budget.StoreBudget` caps entries/bytes with
least-recently-used eviction; evicting is always safe because an evicted
entry is just a replay that recomputes to the same bytes.  Each process
additionally keeps a warm in-memory copy of entries it has served
(bounded by the same budget) so repeated hits skip the disk and the lock;
a warm copy outliving an on-disk eviction is harmless — content
addressing guarantees it still holds the exact bytes.

Without a directory the store is a budget-bounded in-memory map.  Both
modes are lock-protected and counter-instrumented.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.digest import canonical_digest
from repro.errors import ConfigError
from repro.fslock import FileLock
from repro.serve.budget import StoreBudget

__all__ = ["ResultStore"]

_INDEX = "index.json"
_LOCK = ".lock"
_HEX = set("0123456789abcdef")


class ResultStore:
    """Bytes keyed by content digest, optionally persisted to a directory.

    Args:
        directory: where entries live as ``<digest>.json`` files; ``None``
            keeps them in memory only (they die with the process).  A
            directory may be shared by any number of concurrent processes.
        budget: optional :class:`StoreBudget` capping entries/bytes with
            LRU eviction (enforced at open time too, so shrinking the
            budget of an existing directory evicts down to it).

    Counters: ``hits``/``misses`` count :meth:`get` outcomes, ``writes``
    counts :meth:`put` calls that stored a new entry, ``evictions``/
    ``evicted_bytes`` count budget evictions *performed by this process*,
    and ``oversize_rejects`` counts payloads no budget-sized store could
    ever hold.  All are surfaced by :meth:`stats` for ``/healthz``.
    """

    def __init__(
        self, directory: str | Path | None = None, budget: StoreBudget | None = None
    ) -> None:
        if budget is not None and not isinstance(budget, StoreBudget):
            raise ConfigError(
                f"budget must be a StoreBudget, got {type(budget).__name__}"
            )
        self._directory = Path(directory) if directory is not None else None
        self._budget = budget
        self._memory: OrderedDict[str, bytes] = OrderedDict()
        self._memory_bytes = 0
        self._tlock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.oversize_rejects = 0
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._flock = FileLock(self._directory / _LOCK)
            # Materialize (or adopt) the shared index and enforce the budget
            # immediately: a replica opening with a smaller budget shrinks
            # the directory before serving its first request.
            with self._flock:
                index = self._read_index()
                self._evict_locked(index, keep=None)
                self._write_index(index)

    @staticmethod
    def key_digest(document: object) -> str:
        """The store key of one request document (canonical-JSON sha256)."""
        try:
            return canonical_digest(document)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"store key is not canonical JSON: {exc}") from exc

    # -- paths and index ------------------------------------------------------

    def _path(self, digest: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{digest}.json"

    @staticmethod
    def _is_entry(path: Path) -> bool:
        stem = path.name[: -len(".json")]
        return (
            path.name.endswith(".json")
            and path.name != _INDEX
            and len(stem) == 64
            and set(stem) <= _HEX
        )

    def _read_index(self) -> dict:
        """The shared index document (rebuilt from the directory if unusable).

        Must be called with the advisory lock held.  A missing or corrupt
        index — a pre-budget store directory, a crash mid-adoption — is
        rebuilt by scanning the entry files, oldest-modified first, so
        recency degrades gracefully instead of failing the store.
        """
        path = self._directory / _INDEX
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            entries = {
                str(digest): {"size": int(entry["size"]), "used": int(entry["used"])}
                for digest, entry in document["entries"].items()
            }
            return {"version": 1, "clock": int(document["clock"]), "entries": entries}
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
        entries: dict[str, dict[str, int]] = {}
        clock = 0
        files = [p for p in self._directory.iterdir() if self._is_entry(p)]
        for entry_path in sorted(files, key=lambda p: p.stat().st_mtime):
            clock += 1
            entries[entry_path.name[: -len(".json")]] = {
                "size": entry_path.stat().st_size,
                "used": clock,
            }
        return {"version": 1, "clock": clock, "entries": entries}

    def _write_index(self, index: dict) -> None:
        """Atomically persist the index (lock held): tmp + fsync + rename."""
        path = self._directory / _INDEX
        tmp = self._directory / (_INDEX + ".tmp")
        payload = (json.dumps(index, separators=(",", ":")) + "\n").encode("utf-8")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _evict_locked(self, index: dict, keep: str | None) -> None:
        """Evict least-recently-used entries until the budget holds.

        Called with the advisory lock held, so no concurrent ``get`` can be
        mid-read of a file this removes.  ``keep`` (the entry being written)
        is never evicted — :meth:`StoreBudget.admits` already guaranteed it
        fits on its own.
        """
        if self._budget is None:
            return
        entries = index["entries"]
        while self._budget.exceeded(
            len(entries), sum(entry["size"] for entry in entries.values())
        ):
            candidates = [digest for digest in entries if digest != keep]
            if not candidates:
                break
            victim = min(candidates, key=lambda digest: entries[digest]["used"])
            size = entries[victim]["size"]
            self._path(victim).unlink(missing_ok=True)
            del entries[victim]
            self.evictions += 1
            self.evicted_bytes += size

    # -- in-memory map --------------------------------------------------------

    def _remember(self, digest: str, payload: bytes, count_evictions: bool) -> None:
        """Insert into the in-memory map and trim it to the budget (tlock held).

        For the memory-only store the trim *is* budget eviction and counts;
        for a persistent store the map is just this process's warm cache and
        trimming it is invisible (the entry is still on disk).
        """
        if digest not in self._memory:
            self._memory_bytes += len(payload)
        self._memory[digest] = payload
        self._memory.move_to_end(digest)
        if self._budget is None:
            return
        while self._budget.exceeded(len(self._memory), self._memory_bytes):
            victim = next(iter(self._memory))
            if victim == digest:
                break
            evicted = self._memory.pop(victim)
            self._memory_bytes -= len(evicted)
            if count_evictions:
                self.evictions += 1
                self.evicted_bytes += len(evicted)

    # -- public API -----------------------------------------------------------

    def get(self, digest: str) -> bytes | None:
        """The stored bytes for ``digest``, or ``None`` on a miss.

        Persistent mode refreshes the entry's recency in the shared index
        (under the advisory lock), so cross-process LRU eviction spares hot
        entries; hits served from this process's warm map skip the lock and
        leave the shared recency untouched — an acceptable approximation,
        since a wrongly-evicted entry only costs a deterministic recompute.
        """
        with self._tlock:
            payload = self._memory.get(digest)
            if payload is not None:
                self._memory.move_to_end(digest)
                self.hits += 1
                return payload
        if self._directory is None:
            with self._tlock:
                self.misses += 1
            return None
        with self._flock:
            index = self._read_index()
            entries = index["entries"]
            path = self._path(digest)
            if digest not in entries and path.exists():
                # Adopt a write this index never saw (legacy directory or a
                # file dropped in by hand).
                entries[digest] = {"size": path.stat().st_size, "used": 0}
            if digest not in entries or not path.exists():
                if digest in entries:
                    # The index outlived its file (crash between unlink and
                    # index write elsewhere); heal it.
                    del entries[digest]
                    self._write_index(index)
                with self._tlock:
                    self.misses += 1
                return None
            payload = path.read_bytes()
            index["clock"] += 1
            entries[digest]["used"] = index["clock"]
            entries[digest]["size"] = len(payload)
            self._write_index(index)
            with self._tlock:
                self._remember(digest, payload, count_evictions=False)
                self.hits += 1
        return payload

    def put(self, digest: str, payload: bytes) -> bool:
        """Store ``payload`` under ``digest``; ``True`` if this call stored it.

        Idempotent, first write wins — across threads *and* processes (the
        existence check and the write happen under the advisory lock).
        Content addressing makes a second write of the same digest carry
        the same bytes by construction, so re-puts are dropped rather than
        rewritten — a concurrent duplicate job can never tear an entry a
        reader is streaming.  A payload larger than the budget's byte cap
        is rejected (counted in ``oversize_rejects``) instead of evicting
        the whole store to make room.
        """
        if not isinstance(payload, bytes):
            raise ConfigError(
                f"result store payloads must be bytes, got {type(payload).__name__}"
            )
        if self._budget is not None and not self._budget.admits(len(payload)):
            with self._tlock:
                self.oversize_rejects += 1
            return False
        if self._directory is None:
            with self._tlock:
                if digest in self._memory:
                    return False
                self.writes += 1
                self._remember(digest, payload, count_evictions=True)
            return True
        stored = False
        with self._flock:
            index = self._read_index()
            entries = index["entries"]
            path = self._path(digest)
            dirty = False
            if digest not in entries and path.exists():
                entries[digest] = {"size": path.stat().st_size, "used": 0}
                dirty = True
            if digest not in entries:
                # Checkpoint-style atomicity: a crash mid-write leaves a
                # tmp file, never a half-written blessed entry.
                tmp = path.with_suffix(".json.tmp")
                with open(tmp, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                index["clock"] += 1
                entries[digest] = {"size": len(payload), "used": index["clock"]}
                self._evict_locked(index, keep=digest)
                stored = True
                dirty = True
            if dirty:
                self._write_index(index)
            if stored:
                # Warm only what this call actually stored: on a lost
                # first-write-wins race the on-disk bytes are the truth and
                # the next get() warms them.
                with self._tlock:
                    self.writes += 1
                    self._remember(digest, payload, count_evictions=False)
        return stored

    def __contains__(self, digest: str) -> bool:
        with self._tlock:
            if digest in self._memory:
                return True
        if self._directory is None:
            return False
        with self._flock:
            return self._path(digest).exists()

    def __len__(self) -> int:
        if self._directory is None:
            with self._tlock:
                return len(self._memory)
        with self._flock:
            return len(self._read_index()["entries"])

    def stats(self) -> dict[str, object]:
        """Observable store state: size, budget, persistence mode, counters.

        ``entries``/``bytes`` describe the shared truth (the directory for
        a persistent store, the map otherwise); the counters are this
        process's lifetime totals.
        """
        if self._directory is not None:
            with self._flock:
                entries = self._read_index()["entries"]
                count = len(entries)
                total = sum(entry["size"] for entry in entries.values())
        else:
            with self._tlock:
                count = len(self._memory)
                total = self._memory_bytes
        return {
            "entries": count,
            "bytes": total,
            "persistent": self._directory is not None,
            "budget": self._budget.to_document() if self._budget is not None else None,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "oversize_rejects": self.oversize_rejects,
        }
