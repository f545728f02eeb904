"""User-extensible distribution registry for population sampling.

Fleet simulation (and the Monte-Carlo study kind) describe *populations*:
per-vehicle speed scales, correlated ambient temperatures, manufacturing
tolerances, drive-cycle mixes.  A :class:`DistributionSpec` names one such
distribution declaratively — kind plus parameters, JSON-round-trippable
exactly like a :class:`~repro.scenario.spec.ComponentRef` — and the
:data:`DISTRIBUTIONS` registry maps kinds to sampler factories, so fleet
documents stay plain data and third parties can register their own kinds::

    from repro.fleet import register_distribution

    @register_distribution("bimodal")
    def bimodal(low: float, high: float, weight: float = 0.5):
        return MyBimodalSampler(low, high, weight)

Samplers are deterministic pure functions of ``(rng, count)``: every random
number they consume comes from the generator they are handed, never from
global state, which is what keeps fleet materialization a pure function of
``(seed, fleet document)`` — independent of execution order.

The built-in kinds fold in (and extend) the ad-hoc samplers that
:mod:`repro.scenario.montecarlo` used to hard-code: ``normal`` and
``uniform`` reproduce its clipped speed/temperature/activity draws
rng-call-for-rng-call, while ``lognormal`` (drive-style speed scales),
``correlated-normal`` (fleet-wide climate plus per-vehicle weather) and
``gaussian-tolerance`` (manufacturing spread) serve the fleet axes the
ROADMAP flags.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ConfigError
from repro.registry import Registry


def _canonical_param(value: object) -> object:
    """Normalize a parameter value so JSON round trips compare equal.

    JSON has no tuple, so ``("urban", "nedc")`` comes back as a list;
    canonicalizing every sequence to a tuple keeps
    ``DistributionSpec.coerce(spec.to_dict()) == spec`` regardless of which
    side of a serialization boundary built the spec.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_param(item) for item in value)
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """A reference to a registered distribution: a kind plus parameters.

    Parameters are stored as a sorted tuple of ``(key, value)`` pairs so two
    specs built from differently-ordered documents compare equal, mirroring
    :class:`~repro.scenario.spec.ComponentRef`.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigError("distribution kind must be a non-empty string")
        normalized = tuple(sorted((str(k), _canonical_param(v)) for k, v in self.params))
        object.__setattr__(self, "params", normalized)

    @classmethod
    def coerce(cls, value: object, field_name: str) -> "DistributionSpec":
        """Accept a ``DistributionSpec``, a bare kind, or a ``{kind, params}`` mapping."""
        if isinstance(value, DistributionSpec):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"kind", "params"}
            if unknown:
                raise ConfigError(
                    f"distribution {field_name!r} has unknown keys {sorted(unknown)}; "
                    "expected 'kind' and optional 'params'"
                )
            if "kind" not in value:
                raise ConfigError(f"distribution {field_name!r} needs a 'kind'")
            params = value.get("params", {})
            if not isinstance(params, Mapping):
                raise ConfigError(f"distribution {field_name!r}: 'params' must be a mapping")
            return cls(kind=value["kind"], params=tuple(params.items()))
        raise ConfigError(
            f"distribution {field_name!r} must be a kind name or a "
            f"{{'kind', 'params'}} mapping, got {type(value).__name__}"
        )

    def to_dict(self) -> object:
        """Compact serialized form: the bare kind when there are no params."""
        if not self.params:
            return self.kind
        return {"kind": self.kind, "params": dict(self.params)}

    def build(self) -> "Distribution":
        """Instantiate the referenced sampler from :data:`DISTRIBUTIONS`."""
        sampler = DISTRIBUTIONS.create(self.kind, **dict(self.params))
        if not isinstance(sampler, Distribution):
            raise ConfigError(f"distribution kind {self.kind!r} did not produce a Distribution")
        return sampler

    def describe(self) -> str:
        """Short human-readable form used in labels and tables."""
        if not self.params:
            return self.kind
        inner = ", ".join(f"{key}={value}" for key, value in self.params)
        return f"{self.kind}({inner})"


class Distribution(ABC):
    """One population-sampling distribution.

    Subclasses draw ``count`` values from ``rng`` and nothing else; drawing
    must consume a deterministic number of generator calls for a given
    ``count`` so downstream draws stay aligned whichever kinds a document
    mixes.

    Chunked materialization splits a population into independently
    reproducible chunks, each sampled from its own generator.  Kinds with a
    population-wide component (the fleet-shared climate draw of
    ``correlated-normal``) override :meth:`shared_state` to pull that
    component from the *fleet* generator once, and :meth:`sample_with_shared`
    to fold it into every chunk — so correlation spans chunk boundaries
    while each chunk stays a pure function of (seed, document, chunk index).
    """

    @abstractmethod
    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` values from ``rng``."""

    def shared_state(self, rng: np.random.Generator) -> object | None:
        """Draw the population-wide component of this distribution, if any.

        Called once per materialization with the fleet-level generator,
        *before* any chunk is sampled.  The default has no shared component
        and consumes **no** generator draws (so kinds without one never
        perturb the fleet stream).
        """
        return None

    def sample_with_shared(
        self, rng: np.random.Generator, count: int, shared: object | None = None
    ) -> np.ndarray:
        """Draw ``count`` values from ``rng`` given a :meth:`shared_state`.

        The default ignores ``shared`` (there is none) and delegates to
        :meth:`sample`, so existing third-party kinds work on the chunked
        path unchanged.
        """
        return self.sample(rng, count)


def _require_finite(name: str, value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"distribution parameter {name!r} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NormalDistribution(Distribution):
    """Gaussian draw — the Monte-Carlo speed/temperature default."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        _require_finite("mean", self.mean)
        if _require_finite("std", self.std) < 0.0:
            raise ConfigError("normal std must be non-negative")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, count)


@dataclass(frozen=True)
class ClippedNormalDistribution(Distribution):
    """Gaussian draw clipped into ``[low, high]`` (one rng call, then clip)."""

    mean: float
    std: float
    low: float = -math.inf
    high: float = math.inf

    def __post_init__(self) -> None:
        _require_finite("mean", self.mean)
        if _require_finite("std", self.std) < 0.0:
            raise ConfigError("clipped-normal std must be non-negative")
        if not self.low < self.high:
            raise ConfigError("clipped-normal needs low < high")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.clip(rng.normal(self.mean, self.std, count), self.low, self.high)


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform draw on ``[low, high)`` — the Monte-Carlo activity default."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not _require_finite("low", self.low) <= _require_finite("high", self.high):
            raise ConfigError("uniform needs low <= high")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, count)


@dataclass(frozen=True)
class LogNormalDistribution(Distribution):
    """Multiplicative (log-normal) spread around ``median`` — speed scales.

    ``sigma`` is the standard deviation of the underlying normal; optional
    ``low``/``high`` clip the tail (a fleet's fastest driver still keeps the
    drive cycle inside the node's feasible speed range).
    """

    sigma: float
    median: float = 1.0
    low: float = -math.inf
    high: float = math.inf

    def __post_init__(self) -> None:
        if _require_finite("sigma", self.sigma) < 0.0:
            raise ConfigError("lognormal sigma must be non-negative")
        if _require_finite("median", self.median) <= 0.0:
            raise ConfigError("lognormal median must be positive")
        if not self.low < self.high:
            raise ConfigError("lognormal needs low < high")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.clip(self.median * rng.lognormal(0.0, self.sigma, count), self.low, self.high)


@dataclass(frozen=True)
class CorrelatedNormalDistribution(Distribution):
    """Gaussian draw with one fleet-shared component — ambient temperature.

    A fleet does not sample its climate independently per vehicle: a cold
    snap hits everyone.  ``correlation`` in ``[0, 1]`` splits the variance
    into one shared draw (the season) plus per-vehicle noise (parking, trip
    timing)::

        value_i = mean + std * (sqrt(c) * shared + sqrt(1 - c) * noise_i)

    so pairwise correlation between vehicles is exactly ``c`` while each
    marginal stays N(mean, std).

    ``mean`` defaults to zero: the fleet's ``ambient_offset_c`` axis
    distributes *offsets around the base scenario's ambient*, where a
    zero-centered draw is the natural parameterization (the absolute
    ``temperature_c`` axis keeps passing an explicit mean).
    """

    std: float
    mean: float = 0.0
    correlation: float = 0.5

    def __post_init__(self) -> None:
        _require_finite("mean", self.mean)
        if _require_finite("std", self.std) < 0.0:
            raise ConfigError("correlated-normal std must be non-negative")
        if not 0.0 <= _require_finite("correlation", self.correlation) <= 1.0:
            raise ConfigError("correlated-normal correlation must lie in [0, 1]")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.sample_with_shared(rng, count)

    def shared_state(self, rng: np.random.Generator) -> float:
        """The season: one fleet-wide standard-normal draw shared by every chunk."""
        return float(rng.normal())

    def sample_with_shared(
        self, rng: np.random.Generator, count: int, shared: object | None = None
    ) -> np.ndarray:
        if shared is None:
            # Single-stream path (eager sampling, Monte-Carlo): the shared
            # component rides the same generator, one draw ahead of the noise.
            shared = rng.normal()
        noise = rng.normal(size=count)
        mix = math.sqrt(self.correlation) * float(shared) + (
            math.sqrt(1.0 - self.correlation) * noise
        )
        return self.mean + self.std * mix


@dataclass(frozen=True)
class GaussianToleranceDistribution(Distribution):
    """Manufacturing tolerance: a Gaussian factor around ``nominal``.

    ``rel_std`` is the relative standard deviation; the draw is clipped to
    ``[low, high]`` (default ±3 sigma, floored away from zero) so a tail
    sample can never produce a non-physical negative size or capacity.
    """

    rel_std: float
    nominal: float = 1.0
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if _require_finite("rel_std", self.rel_std) < 0.0:
            raise ConfigError("gaussian-tolerance rel_std must be non-negative")
        if _require_finite("nominal", self.nominal) <= 0.0:
            raise ConfigError("gaussian-tolerance nominal must be positive")
        spread = 3.0 * self.rel_std * self.nominal
        if self.low is None:
            object.__setattr__(self, "low", max(self.nominal - spread, 0.05 * self.nominal))
        if self.high is None:
            object.__setattr__(self, "high", self.nominal + spread)
        if not _require_finite("low", self.low) < _require_finite("high", self.high):
            raise ConfigError("gaussian-tolerance needs low < high")
        if self.low <= 0.0:
            raise ConfigError("gaussian-tolerance low bound must be positive")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        draws = rng.normal(self.nominal, self.rel_std * self.nominal, count)
        return np.clip(draws, self.low, self.high)


@dataclass(frozen=True)
class CategoricalDistribution(Distribution):
    """Weighted choice over a fixed list — the drive-cycle mix.

    ``choices`` may hold any JSON values (bare component names or
    ``{name, params}`` mappings); :meth:`sample` returns an object array of
    the chosen values.
    """

    choices: tuple
    weights: tuple | None = None

    def __post_init__(self) -> None:
        choices = tuple(self.choices) if not isinstance(self.choices, tuple) else self.choices
        object.__setattr__(self, "choices", choices)
        if not choices:
            raise ConfigError("categorical needs at least one choice")
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            object.__setattr__(self, "weights", weights)
            if len(weights) != len(choices):
                raise ConfigError("categorical weights must match the choices")
            if any(w < 0.0 or not math.isfinite(w) for w in weights) or sum(weights) <= 0.0:
                raise ConfigError("categorical weights must be non-negative with a positive sum")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        probabilities = None
        if self.weights is not None:
            total = sum(self.weights)
            probabilities = [w / total for w in self.weights]
        indices = rng.choice(len(self.choices), size=count, p=probabilities)
        values = np.empty(count, dtype=object)
        for position, index in enumerate(indices):
            values[position] = self.choices[int(index)]
        return values


@dataclass(frozen=True)
class ConstantDistribution(Distribution):
    """Degenerate distribution: every vehicle gets ``value`` (no rng draw)."""

    value: Any

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        values = np.empty(count, dtype=object)
        values[:] = [self.value] * count
        return values


#: Population-sampling distributions (see the module docstring).
DISTRIBUTIONS = Registry("distribution")


def register_distribution(name: str, factory: Callable[..., object] | None = None):
    """Register a distribution factory (decorator-friendly)."""
    return DISTRIBUTIONS.register(name, factory)


DISTRIBUTIONS.register("normal", NormalDistribution)
DISTRIBUTIONS.register("clipped-normal", ClippedNormalDistribution)
DISTRIBUTIONS.register("uniform", UniformDistribution)
DISTRIBUTIONS.register("lognormal", LogNormalDistribution)
DISTRIBUTIONS.register("correlated-normal", CorrelatedNormalDistribution)
DISTRIBUTIONS.register("gaussian-tolerance", GaussianToleranceDistribution)
DISTRIBUTIONS.register("categorical", CategoricalDistribution)
DISTRIBUTIONS.register("constant", ConstantDistribution)
