"""The generic named-factory registry backing every declarative namespace.

Scenario components (architectures, power databases, scavengers, storage,
drive cycles — :mod:`repro.scenario.registry`) and population distributions
(:mod:`repro.fleet.distributions`) all resolve "name plus parameters"
references through instances of the :class:`Registry` defined here.  The
class lives in its own dependency-free module so any subsystem can host a
registry without importing another subsystem's package.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterator, TypeVar

from repro.errors import ConfigError

_T = TypeVar("_T", bound=Callable[..., object])


class Registry:
    """A named mapping from component names to factory callables.

    Factories are invoked with the scenario's keyword parameters; a factory
    that rejects its parameters (``TypeError``) is reported as a
    :class:`~repro.errors.ConfigError` naming the component, so malformed
    scenario documents fail with a readable message instead of a traceback
    from deep inside a constructor.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., object]] = {}
        #: Per-name memo of the factory signature ``create`` binds against
        #: (``None`` for callables without one); dropped on ``unregister``.
        self._signatures: dict[str, inspect.Signature | None] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, factory: Callable[..., object] | None = None):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering an existing name raises :class:`ConfigError`; use
        :meth:`unregister` first to replace a seeded component.
        """
        if not name or not isinstance(name, str):
            raise ConfigError(f"{self.kind} name must be a non-empty string")

        def _store(target: _T) -> _T:
            if name in self._factories:
                raise ConfigError(
                    f"{self.kind} {name!r} is already registered; "
                    "unregister it first to replace it"
                )
            self._factories[name] = target
            return target

        if factory is None:
            return _store
        return _store(factory)

    def unregister(self, name: str) -> None:
        """Remove a registered component (no-op safety net not provided)."""
        if name not in self._factories:
            raise ConfigError(f"no {self.kind} named {name!r} to unregister")
        del self._factories[name]
        self._signatures.pop(name, None)

    # -- lookup -------------------------------------------------------------

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def factory(self, name: str) -> Callable[..., object]:
        """The factory registered under ``name``."""
        self.validate(name)
        return self._factories[name]

    def validate(self, name: str) -> None:
        """Raise a helpful :class:`ConfigError` when ``name`` is unknown."""
        if name not in self._factories:
            raise ConfigError(f"unknown {self.kind} {name!r}; available: {self.names()}")

    def create(self, name: str, **params: object) -> object:
        """Instantiate the component ``name`` with keyword ``params``.

        Parameters are validated against the factory signature *before* the
        call, so a malformed scenario document becomes a one-line
        :class:`ConfigError` while a genuine bug inside a factory still
        surfaces as its own traceback.
        """
        factory = self.factory(name)
        try:
            signature = self._signatures[name]
        except KeyError:
            try:
                signature = inspect.signature(factory)
            except (TypeError, ValueError):  # pragma: no cover - C callables
                signature = None
            self._signatures[name] = signature
        if signature is not None:
            try:
                signature.bind(**params)
            except TypeError as exc:
                raise ConfigError(
                    f"invalid parameters {sorted(params)} for {self.kind} "
                    f"{name!r}: {exc}"
                ) from exc
        return factory(**params)
