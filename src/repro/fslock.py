"""Cross-process advisory file locking shared by the on-disk subsystems.

Both the serving layer's persistent :class:`~repro.serve.store.ResultStore`
and the checkpoint journal (:mod:`repro.scenario.checkpoint`) are
directories that several *processes* — serve replicas, CLI runs, CI smoke
jobs — mutate concurrently.  Their individual files are already safe via
the write-then-rename discipline; what needs a lock is the *read-modify-
write* of shared metadata (the store index, the checkpoint manifest), so
two writers cannot interleave a load and a save and silently drop each
other's entries.

:class:`FileLock` combines an in-process re-entrant lock (threads of one
replica serialize cheaply, and nesting is safe) with an ``fcntl.flock``
advisory lock on a dedicated lock file (processes serialize).  Each
outermost acquisition opens a fresh file descriptor, so the flock is held
exactly as long as the context manager.  On platforms without ``fcntl``
the lock degrades to the in-process lock alone — single-process use stays
correct, multi-replica deployments are documented as POSIX-only.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["FileLock"]


class FileLock:
    """A re-entrant advisory lock backed by ``flock`` on a lock file.

    Args:
        path: the lock file; created (with parents) on first acquisition.
            The file exists only to carry the lock — it stays empty.

    Use as a context manager::

        lock = FileLock(directory / ".lock")
        with lock:
            ...  # read-modify-write shared state
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._thread_lock = threading.RLock()
        self._fd: int | None = None
        self._depth = 0

    def __enter__(self) -> "FileLock":
        self._thread_lock.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:  # pragma: no cover - exotic filesystems
                os.close(fd)
                self._depth -= 1
                self._thread_lock.release()
                raise
            self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
        self._thread_lock.release()
