"""Canonical-JSON SHA-256 digests, single-sourced.

Three subsystems identify work by hashing a JSON document — the checkpoint
journal (:mod:`repro.scenario.checkpoint` keys a directory to its run), run
packages (:mod:`repro.runpkg` derives the ``run_id``) and the serving
layer's content-addressed result store (:mod:`repro.serve.store`).  They
must all agree on what "the digest of a document" means, or a store entry
written under one discipline can never be found under another.  This module
is that single source:

* :func:`canonical_json` — ``json.dumps`` with ``sort_keys=True`` so the
  text is independent of dict insertion order, and ``allow_nan=False`` so a
  non-finite float fails loudly instead of producing a ``NaN`` literal two
  parsers may disagree on.  Python's ``repr``-based float serialization
  round-trips every finite float exactly, so equal documents always produce
  equal text.
* :func:`canonical_digest` — the SHA-256 hex digest of that text.

The byte-level output is pinned by ``tests/test_digest.py``: the digests
recorded in existing checkpoint chunk headers and run packages must never
change under a refactor.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

__all__ = ["canonical_json", "canonical_digest", "sha256_hex"]


def canonical_json(document: object, default: Callable[[object], object] | None = None) -> str:
    """The canonical JSON text of ``document``.

    Args:
        document: any JSON-serializable value (mappings serialize with
            sorted keys at every level).
        default: optional fallback serializer for non-JSON types, forwarded
            to :func:`json.dumps` (the run-package manifest uses ``str``).

    Raises:
        ValueError: the document holds a non-finite float or (without
            ``default``) a non-serializable value — ``TypeError`` from
            ``json.dumps`` is re-raised as-is.
    """
    return json.dumps(document, sort_keys=True, allow_nan=False, default=default)


def sha256_hex(data: bytes | str) -> str:
    """SHA-256 hex digest of raw bytes (text is encoded as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical_digest(document: object, default: Callable[[object], object] | None = None) -> str:
    """SHA-256 hex digest of the canonical JSON text of ``document``."""
    return sha256_hex(canonical_json(document, default=default))
