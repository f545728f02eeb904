"""The :class:`FleetSpec` — a frozen, declarative description of a vehicle population.

A fleet is a base :class:`~repro.scenario.spec.ScenarioSpec` plus named
per-vehicle *distributions*: how drive styles scale the cycle speeds, how
ambient temperature varies (correlated across the fleet), which drive cycles
the population mixes, and how manufacturing tolerance spreads the scavenger
size and storage capacity.  Like a scenario, a fleet spec is plain data — it
round-trips through :meth:`FleetSpec.to_dict` / :meth:`FleetSpec.from_dict`
exactly (``from_dict(to_dict()) == spec``, property-tested) — and
materializing the population is a pure function of ``(seed, fleet
document)``: the same document always draws the same vehicles.

A minimal JSON document::

    {
        "name": "winter-fleet",
        "vehicles": 500,
        "seed": 42,
        "base": {"name": "base", "drive_cycle": {"name": "urban",
                                                 "params": {"repetitions": 2}}},
        "distributions": {
            "speed_scale": {"kind": "lognormal", "params": {"sigma": 0.1}},
            "temperature_c": {"kind": "correlated-normal",
                              "params": {"mean": -5.0, "std": 8.0,
                                         "correlation": 0.6}}
        }
    }
"""

from __future__ import annotations

import contextlib
import json
import math
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.conditions.operating_point import TEMPERATURE_RANGE_C
from repro.conditions.temperature import TyreThermalModel
from repro.core.quantize import AMBIENT_QUANTUM_C, ambient_bin_center_c
from repro.errors import ConfigError
from repro.fleet.distributions import DistributionSpec
from repro.scenario.registry import DRIVE_CYCLES
from repro.scenario.spec import ComponentRef, ScenarioSpec

#: The per-vehicle axes a fleet may distribute.  ``speed_scale`` multiplies
#: the drive-cycle speeds and the cruising speed, ``temperature_c`` replaces
#: the ambient temperature (clipped to the modelled range),
#: ``drive_cycle`` draws each vehicle's cycle from a categorical mix,
#: ``scavenger_size`` / ``storage_capacity`` are multiplicative tolerance
#: factors on the base scavenger size and storage capacity, and
#: ``ambient_offset_c`` adds a per-vehicle offset to the *base* scenario's
#: ambient temperature (mutually exclusive with ``temperature_c``; the
#: natural axis for zero-mean climate spreads around one deployment site).
#: New targets are appended, never inserted: chunks sample targets in this
#: fixed order, so appending can never perturb the draws of earlier targets.
FLEET_TARGETS = (
    "speed_scale",
    "temperature_c",
    "drive_cycle",
    "scavenger_size",
    "storage_capacity",
    "ambient_offset_c",
)


def default_fleet_distributions(base: ScenarioSpec) -> dict[str, DistributionSpec]:
    """The default population around ``base`` (the ROADMAP's open item).

    Log-normal drive-style speed scales, fleet-correlated ambient
    temperature around the base scenario's temperature, and 5% Gaussian
    manufacturing tolerance on the scavenger size and storage capacity.
    The drive cycle stays the base scenario's cycle for every vehicle;
    add a ``categorical`` ``drive_cycle`` distribution for a mix.
    """
    low_t, high_t = TEMPERATURE_RANGE_C
    std_c = 8.0
    return {
        "speed_scale": DistributionSpec(
            "lognormal", (("sigma", 0.1), ("low", 0.6), ("high", 1.4))
        ),
        "temperature_c": DistributionSpec(
            "correlated-normal",
            (
                ("mean", float(np.clip(base.temperature_c, low_t + 3 * std_c, high_t - 3 * std_c))),
                ("std", std_c),
                ("correlation", 0.6),
            ),
        ),
        "scavenger_size": DistributionSpec("gaussian-tolerance", (("rel_std", 0.05),)),
        "storage_capacity": DistributionSpec("gaussian-tolerance", (("rel_std", 0.05),)),
    }


@dataclass(frozen=True)
class ThermalSpec:
    """Declarative in-tyre thermal model of a thermal fleet (plain data).

    Names the :class:`~repro.conditions.temperature.TyreThermalModel`
    parameters *without* the ambient: the ambient is per vehicle (the
    ``temperature_c`` / ``ambient_offset_c`` axes), and :meth:`build`
    instantiates the stateful model for one vehicle's ambient.

    Setting a thermal spec on a fleet changes its materialization contract:
    sampled ambients are snapped to the shared ambient-bin centers
    (:func:`repro.core.quantize.ambient_bin`), because a thermal trajectory
    is a function of its exact ambient — only vehicles sharing the *same*
    float ambient can share one replayed trajectory bitwise.
    """

    rise_coefficient: float = 0.045
    max_rise_c: float = 55.0
    time_constant_s: float = 600.0

    def __post_init__(self) -> None:
        for name in ("rise_coefficient", "max_rise_c", "time_constant_s"):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise ConfigError(f"thermal {name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.rise_coefficient < 0.0:
            raise ConfigError("thermal rise_coefficient must be non-negative")
        if self.max_rise_c < 0.0:
            raise ConfigError("thermal max_rise_c must be non-negative")
        if self.time_constant_s <= 0.0:
            raise ConfigError("thermal time_constant_s must be positive")

    @classmethod
    def coerce(cls, value: object) -> "ThermalSpec":
        """Accept a ``ThermalSpec`` or its ``to_dict`` document."""
        if isinstance(value, ThermalSpec):
            return value
        if isinstance(value, Mapping):
            known = {"rise_coefficient", "max_rise_c", "time_constant_s"}
            unknown = set(value) - known
            if unknown:
                raise ConfigError(
                    f"fleet thermal has unknown field(s) {sorted(unknown)}; "
                    f"known fields: {sorted(known)}"
                )
            return cls(**value)
        raise ConfigError(
            f"fleet thermal must be a ThermalSpec or its document, "
            f"got {type(value).__name__}"
        )

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form, JSON-serializable and accepted by :meth:`coerce`."""
        return {
            "rise_coefficient": self.rise_coefficient,
            "max_rise_c": self.max_rise_c,
            "time_constant_s": self.time_constant_s,
        }

    def build(self, ambient_celsius: float) -> TyreThermalModel:
        """A fresh stateful thermal model at one vehicle's ambient."""
        return TyreThermalModel(
            ambient_celsius=ambient_celsius,
            rise_coefficient=self.rise_coefficient,
            max_rise_c=self.max_rise_c,
            time_constant_s=self.time_constant_s,
        )


@dataclass(frozen=True)
class FleetVehicle:
    """One materialized vehicle: the sampled axes plus its derived scenario.

    Attributes:
        index: position in the population (stable across runs).
        speed_scale: drive-style factor applied to the cycle speeds (already
            quantized to the fleet's ``scale_quantum``).
        temperature_c: the vehicle's ambient temperature (clipped to the
            modelled range).
        storage_scale: capacity tolerance factor applied to the storage
            element (capacity, initial charge and thresholds all scale).
        scenario: the derived :class:`ScenarioSpec` of this vehicle — it
            encodes the sampled temperature, cruising speed and scavenger
            size, but NOT the two axes a scenario cannot express: the
            runner additionally plays ``build_drive_cycle().scaled(speed_scale)``
            and ``scaled_storage(build_storage(), storage_scale)``.  Apply
            both to reproduce a fleet vehicle with the per-scenario tools.
    """

    index: int
    speed_scale: float
    temperature_c: float
    storage_scale: float
    scenario: ScenarioSpec


@dataclass(frozen=True, eq=False)
class FleetChunk:
    """One chunk of the population as per-vehicle columns.

    What :meth:`FleetSpec.iter_chunks` yields and the fleet runner runs.
    ``FleetSpec._columns`` computes and validates every column, and the
    reference view (iterating a chunk, :meth:`vehicles`) is built from these
    same columns, so the two cannot drift.  ``temperature_c`` is clipped to
    the modelled range (snapped to ambient-bin centers on thermal fleets),
    ``scavenger_size`` is the base size times the sampled factor, and
    ``cycle_code`` indexes ``cycles``.
    """

    fleet: FleetSpec
    index: np.ndarray
    speed_scale: np.ndarray
    temperature_c: np.ndarray
    scavenger_size: np.ndarray
    storage_scale: np.ndarray
    cycle_code: np.ndarray
    cycles: tuple[ComponentRef, ...]

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return iter(self.vehicles())

    def records(self) -> list[tuple]:
        """Per-vehicle tuples of Python values, one field per column.

        ``(index, speed_scale, temperature_c, scavenger_size, storage_scale,
        cycle_code)``, typed as the scalar arithmetic types them: an integer
        ``scale_quantum`` gives integer scales, and a fleet that neither
        distributes nor heats the ambient keeps the base scenario's
        temperature value.
        """
        fleet = self.fleet
        scales = self.speed_scale.tolist()
        if isinstance(fleet.scale_quantum, int) and fleet.scale_quantum > 0:
            scales = [int(scale) for scale in scales]
        temperatures = self.temperature_c.tolist()
        ambients = {"temperature_c", "ambient_offset_c"} & set(dict(fleet.distributions))
        if fleet.thermal is None and not ambients:
            temperatures = [fleet.base.temperature_c] * len(self)
        columns = (self.scavenger_size, self.storage_scale, self.cycle_code)
        return list(zip(self.index.tolist(), scales, temperatures, *(c.tolist() for c in columns)))

    def vehicles(self) -> list[FleetVehicle]:
        """The reference view: one :class:`FleetVehicle` per vehicle."""
        vehicles = []
        for index, scale, temperature, size, storage, code in self.records():
            spec = self.fleet._scenario(index, scale, temperature, size, self.cycles[code])
            vehicles.append(FleetVehicle(index, scale, temperature, storage, spec))
        return vehicles


#: Messages of the column checks, formatted ``(target, value, scale_quantum)``.
_NOT_A_NUMBER = "fleet {0} distribution produced {1!r}, which is not a number"
_NOT_POSITIVE_SCALE = "fleet {0} distribution produced {1!r}; scales must be positive"
_UNQUANTIZABLE = "fleet {0} distribution produced {1!r}, which scale_quantum {2!r} cannot quantize"
_NOT_POSITIVE_FACTOR = "fleet tolerance distributions must produce positive factors"
_NOT_FINITE_FACTOR = "fleet {0} distribution produced {1!r}; factors must be finite"


def _sample_array(target: str, values, count: int) -> np.ndarray:
    """One sampled target as an array of exactly one value per vehicle."""
    array = np.asarray(values)
    if array.shape != (count,):
        raise ConfigError(
            f"fleet {target} distribution produced an array of shape "
            f"{array.shape} for {count} vehicles"
        )
    return array


def _number_column(target: str, values, count: int) -> tuple[np.ndarray, np.ndarray]:
    """One sampled target as float64, and the mask of its non-numbers.

    Ints and floats (not bools) convert as ``float()`` converts them; any
    other entry reads NaN and is flagged.
    """
    array = _sample_array(target, values, count)
    if array.dtype.kind in "iuf":
        return array.astype(np.float64), np.zeros(count, dtype=bool)
    floats, invalid = np.full(count, np.nan), np.ones(count, dtype=bool)
    for offset, value in enumerate(array.tolist()):
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):
                floats[offset], invalid[offset] = value, False
    return floats, invalid


def _cycle_codes(values: np.ndarray) -> tuple[tuple[ComponentRef, ...], np.ndarray]:
    """The distinct drive-cycle references of a sampled column, and codes.

    References are told apart by ``repr`` (params may hold unhashable JSON
    values); a vehicle's code is its index into them, or -1 where its value
    names no registered drive cycle.
    """
    refs: dict[str, tuple[int, ComponentRef]] = {}
    codes = []
    for value in values.tolist():
        try:
            ref = ComponentRef.coerce(value, "drive_cycle")
            DRIVE_CYCLES.validate(ref.name)
        except ConfigError:
            codes.append(-1)
        else:
            codes.append(refs.setdefault(repr(ref), (len(refs), ref))[0])
    return tuple(ref for _code, ref in refs.values()), np.array(codes, dtype=np.intp)


@dataclass(frozen=True)
class FleetSpec:
    """A frozen, validated description of one fleet-simulation experiment.

    Attributes:
        name: fleet label used in result rows and reports.
        base: the scenario every vehicle derives from; must name a storage
            element, and a drive cycle unless a ``drive_cycle`` distribution
            supplies one per vehicle.
        vehicles: population size.
        seed: base seed of the deterministic materialization stream.
        scale_quantum: granularity the sampled ``speed_scale`` is rounded
            to.  Vehicles sharing a (cycle, quantized scale) pair share one
            materialized cycle — the fleet runner's cohort axis — so the
            quantum trades resolution of the drive-style axis against
            fleet-level throughput; ``0`` keeps the exact draws.
        chunk_vehicles: vehicles per materialization chunk.  Part of the
            document (it shapes the per-chunk sample draws), so chunked
            materialization stays a pure function of (seed, document, chunk
            index); it also bounds the runner's resident vehicle buffer and
            sets the checkpoint granularity.
        distributions: mapping of :data:`FLEET_TARGETS` entries to
            :class:`~repro.fleet.distributions.DistributionSpec` references
            (stored as a sorted tuple of pairs so equal documents compare
            equal).
        thermal: optional :class:`ThermalSpec`.  When set, every vehicle
            drives a :class:`~repro.conditions.temperature.TyreThermalModel`
            at its ambient instead of a constant temperature, and sampled
            ambients are snapped to the shared ambient-bin centers
            (:func:`repro.core.quantize.ambient_bin`) so vehicles in one
            ambient bin share one replayed trajectory — the fleet runner's
            thermal cohort axis.  Omitted from the document when ``None``,
            so pre-thermal fleet documents (and their digests, which seed
            the materialization streams) are byte-for-byte unchanged.
    """

    name: str = "fleet"
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    vehicles: int = 200
    seed: int = 2011
    scale_quantum: float = 0.05
    chunk_vehicles: int = 64
    distributions: tuple[tuple[str, DistributionSpec], ...] = ()
    thermal: ThermalSpec | None = None

    # -- validation ---------------------------------------------------------

    def __post_init__(self) -> None:
        set_attr = object.__setattr__
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("fleet name must be a non-empty string")
        if isinstance(self.base, Mapping):
            set_attr(self, "base", ScenarioSpec.from_dict(self.base))
        if not isinstance(self.base, ScenarioSpec):
            raise ConfigError(
                f"fleet base must be a ScenarioSpec (or its document), "
                f"got {type(self.base).__name__}"
            )
        if (
            not isinstance(self.vehicles, int)
            or isinstance(self.vehicles, bool)
            or self.vehicles < 1
        ):
            raise ConfigError("fleet vehicles must be a positive integer")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError("fleet seed must be a non-negative integer")
        if (
            not isinstance(self.scale_quantum, (int, float))
            or isinstance(self.scale_quantum, bool)
            or not math.isfinite(self.scale_quantum)
            or self.scale_quantum < 0.0
        ):
            raise ConfigError("fleet scale_quantum must be a non-negative finite number")
        if (
            not isinstance(self.chunk_vehicles, int)
            or isinstance(self.chunk_vehicles, bool)
            or self.chunk_vehicles < 1
        ):
            raise ConfigError("fleet chunk_vehicles must be a positive integer")

        entries = self.distributions
        if isinstance(entries, Mapping):
            entries = tuple(entries.items())
        try:
            entries = tuple(entries)
        except TypeError:
            raise ConfigError(
                "fleet distributions must be a mapping of target -> distribution"
            ) from None
        normalized: dict[str, DistributionSpec] = {}
        for entry in entries:
            try:
                target, value = entry
            except (TypeError, ValueError):
                raise ConfigError(
                    "fleet distributions must be a mapping of target -> distribution"
                ) from None
            if target not in FLEET_TARGETS:
                raise ConfigError(
                    f"unknown fleet distribution target {target!r}; "
                    f"known targets: {list(FLEET_TARGETS)}"
                )
            if target in normalized:
                raise ConfigError(f"fleet distribution target {target!r} given twice")
            normalized[target] = DistributionSpec.coerce(value, target)
        set_attr(
            self,
            "distributions",
            tuple(sorted(normalized.items())),
        )
        if "ambient_offset_c" in normalized and "temperature_c" in normalized:
            raise ConfigError(
                "fleet distributions 'ambient_offset_c' and 'temperature_c' are "
                "mutually exclusive: distribute offsets around the base ambient "
                "OR absolute ambients, not both"
            )

        if self.thermal is not None:
            set_attr(self, "thermal", ThermalSpec.coerce(self.thermal))

        if self.base.storage is None:
            raise ConfigError("fleet base scenario must name a storage element")
        if self.base.drive_cycle is None and "drive_cycle" not in dict(self.distributions):
            raise ConfigError(
                "fleet base scenario must name a drive_cycle (or the fleet must "
                "distribute one)"
            )

    # -- convenience constructors -------------------------------------------

    @classmethod
    def from_base(
        cls,
        base: ScenarioSpec,
        vehicles: int = 200,
        seed: int = 2011,
        name: str | None = None,
        chunk_vehicles: int = 64,
        thermal: ThermalSpec | None = None,
    ) -> "FleetSpec":
        """A fleet around ``base`` with the default population distributions."""
        return cls(
            name=name or f"{base.name}-fleet",
            base=base,
            vehicles=vehicles,
            seed=seed,
            chunk_vehicles=chunk_vehicles,
            distributions=tuple(default_fleet_distributions(base).items()),
            thermal=thermal,
        )

    def distribution_for(self, target: str) -> DistributionSpec | None:
        """The distribution of one target, or ``None`` when not distributed."""
        if target not in FLEET_TARGETS:
            raise ConfigError(
                f"unknown fleet distribution target {target!r}; "
                f"known targets: {list(FLEET_TARGETS)}"
            )
        return dict(self.distributions).get(target)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form, JSON-serializable and accepted by :meth:`from_dict`.

        ``thermal`` is OMITTED when unset (not serialized as ``null``): the
        document digest seeds every materialization stream, so adding an
        always-present key would silently redraw every existing fleet.
        """
        document: dict[str, object] = {
            "name": self.name,
            "vehicles": self.vehicles,
            "seed": self.seed,
            "scale_quantum": self.scale_quantum,
            "chunk_vehicles": self.chunk_vehicles,
            "base": self.base.to_dict(),
            "distributions": {
                target: spec.to_dict() for target, spec in self.distributions
            },
        }
        if self.thermal is not None:
            document["thermal"] = self.thermal.to_dict()
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "FleetSpec":
        """Build a validated fleet spec from a plain dict (e.g. parsed JSON)."""
        if not isinstance(document, Mapping):
            raise ConfigError(f"a fleet document must be a mapping, got {type(document).__name__}")
        known = {
            "name",
            "vehicles",
            "seed",
            "scale_quantum",
            "chunk_vehicles",
            "base",
            "distributions",
            "thermal",
        }
        unknown = set(document) - known
        if unknown:
            raise ConfigError(
                f"unknown fleet field(s) {sorted(unknown)}; known fields: {sorted(known)}"
            )
        kwargs: dict[str, object] = {
            key: document[key] for key in known if key in document
        }
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The fleet spec as a JSON document string."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> Path:
        """Write the fleet spec as a JSON file and return the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    def with_population(
        self,
        vehicles: int | None = None,
        seed: int | None = None,
        chunk_vehicles: int | None = None,
    ) -> "FleetSpec":
        """A copy with the population size, seed and/or chunk size overridden."""
        changes: dict[str, object] = {}
        if vehicles is not None:
            changes["vehicles"] = vehicles
        if seed is not None:
            changes["seed"] = seed
        if chunk_vehicles is not None:
            changes["chunk_vehicles"] = chunk_vehicles
        return replace(self, **changes) if changes else self

    # -- materialization ----------------------------------------------------
    #
    # The population is sampled chunk by chunk: chunk ``c`` (of
    # ``chunk_vehicles`` vehicles) draws from its own generator seeded
    # ``(seed, document digest, c)``, while distribution kinds with a
    # population-wide component (the correlated-normal climate draw) pull it
    # once from the fleet-level generator ``(seed, document digest)``.  Every
    # chunk is therefore a pure function of (seed, fleet document, chunk
    # index) — reproducible in isolation, which is what checkpointed resume
    # and the streaming runner rest on — and the concatenation of all chunks
    # IS the population (``materialize()`` is that concatenation, kept as the
    # eager reference the chunking property tests compare against).

    def document_digest(self) -> int:
        """CRC digest of the fleet document, the seed-stream discriminator."""
        return self._document_digest

    @cached_property
    def _document_digest(self) -> int:
        # Every chunk generator is seeded with it: encode the (frozen)
        # document once, not once per chunk.
        return zlib.crc32(self.to_json().encode("utf-8"))

    def rng(self) -> np.random.Generator:
        """The fleet-level deterministic generator.

        Seeded from the fleet seed plus a digest of the fleet document
        (mirroring the Monte-Carlo ``(seed, scenario document)`` stream
        derivation), so materialization is a pure function of the document —
        independent of execution order.  Chunk
        generators extend the same seed tuple with the chunk index; this
        fleet-level stream only feeds the population-wide shared draws.
        """
        return np.random.default_rng((self.seed, self.document_digest()))

    def chunk_rng(self, chunk_index: int) -> np.random.Generator:
        """The generator of one chunk: seeded (seed, document digest, chunk)."""
        return np.random.default_rng((self.seed, self.document_digest(), chunk_index))

    def chunk_count(self) -> int:
        """Number of materialization chunks (the last one may be short)."""
        return -(-self.vehicles // self.chunk_vehicles)

    def chunk_bounds(self, chunk_index: int) -> tuple[int, int]:
        """The ``(first vehicle index, vehicle count)`` of one chunk."""
        total = self.chunk_count()
        if (
            not isinstance(chunk_index, int)
            or isinstance(chunk_index, bool)
            or not 0 <= chunk_index < total
        ):
            raise ConfigError(
                f"chunk index must be an integer in [0, {total}), got {chunk_index!r}"
            )
        start = chunk_index * self.chunk_vehicles
        return start, min(self.chunk_vehicles, self.vehicles - start)

    def _samplers(self) -> dict[str, object]:
        """Built distribution samplers of the configured targets."""
        configured = dict(self.distributions)
        return {
            target: configured[target].build()
            for target in FLEET_TARGETS
            if target in configured
        }

    def _shared_states(self, samplers: Mapping[str, object]) -> dict[str, object]:
        """Population-wide components, drawn once in fixed target order."""
        rng = self.rng()
        return {
            target: samplers[target].shared_state(rng)
            for target in FLEET_TARGETS
            if target in samplers
        }

    def _sample_chunk(
        self,
        samplers: Mapping[str, object],
        shared: Mapping[str, object],
        chunk_index: int,
        count: int,
    ) -> dict[str, np.ndarray]:
        """Draw one chunk's target arrays from the chunk's own generator.

        Targets are sampled in the fixed :data:`FLEET_TARGETS` order (absent
        targets draw nothing), so adding a distribution never perturbs the
        draws of the targets before it.
        """
        rng = self.chunk_rng(chunk_index)
        samples: dict[str, np.ndarray] = {}
        for target in FLEET_TARGETS:
            sampler = samplers.get(target)
            if sampler is not None:
                samples[target] = sampler.sample_with_shared(rng, count, shared.get(target))
        return samples

    def vehicle_name(self, index: int) -> str:
        """The scenario name of vehicle ``index``, zero-padded to the population."""
        return f"{self.name}-{index:0{len(str(self.vehicles - 1))}d}"

    def _scenario(self, index, scale, temperature, size, cycle) -> ScenarioSpec:
        """The derived scenario of one vehicle from its column values."""
        return self.base.with_axes(
            name=self.vehicle_name(index),
            temperature=temperature,
            speed=self.base.speed_kmh * scale,
            size=size,
            drive_cycle=cycle,
        )

    def _columns(self, start: int, count: int, samples: Mapping[str, np.ndarray]) -> FleetChunk:
        """One chunk's columns from its sampled target arrays, validated.

        The one place the per-vehicle arithmetic lives, elementwise in the
        scalar operation order (``np.rint`` rounds half to even like
        ``round``).  An invalid chunk raises the first failing check of its
        first failing vehicle, in this order: speed scale (a number,
        positive, quantizable), ambient (a number), tolerance factors
        (numbers, positive, a finite storage factor), then the vehicle's
        :class:`ScenarioSpec` checks (drive cycle, size, speed, temperature
        range), which that scenario raises itself.
        """
        base, quantum = self.base, self.scale_quantum
        low_t, high_t = TEMPERATURE_RANGE_C
        numbers = {
            target: _number_column(target, values, count)
            for target, values in samples.items()
            if target != "drive_cycle"
        }
        ones = np.ones(count)
        raw_scale = numbers.get("speed_scale", (ones,))[0]
        size_factor = numbers.get("scavenger_size", (ones,))[0]
        storage_scale = numbers.get("storage_capacity", (ones,))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            scale = raw_scale
            if quantum > 0.0:
                scale = np.maximum(np.rint(raw_scale / quantum) * quantum, quantum)
            if "temperature_c" in numbers:
                temperature = np.clip(numbers["temperature_c"][0], low_t, high_t)
            elif "ambient_offset_c" in numbers:
                offset_c = numbers["ambient_offset_c"][0]
                temperature = np.clip(base.temperature_c + offset_c, low_t, high_t)
            else:
                temperature = np.full(count, float(base.temperature_c))
            if self.thermal is not None:
                # Thermal fleets snap the ambient to its bin center: a
                # replayed trajectory is a function of its exact float
                # ambient, so only bin-centered ambients let one
                # per-(cohort, ambient-bin) replay be bitwise identical to
                # every member vehicle's own emulate().  The bounds of the
                # modelled range are themselves bin centers, so the snap
                # never leaves the range.  ``+ 0.0`` turns the -0.0 that
                # ``np.rint`` keeps into the 0 that ``round`` returns.
                temperature = ambient_bin_center_c(np.rint(temperature / AMBIENT_QUANTUM_C) + 0.0)
            size = base.scavenger_size * size_factor
            speed = base.speed_kmh * scale
        if "drive_cycle" in samples:
            cycles, code = _cycle_codes(_sample_array("drive_cycle", samples["drive_cycle"], count))
        else:
            cycles, code = (base.drive_cycle,), np.zeros(count, dtype=np.intp)
        nan = {target: invalid for target, (_values, invalid) in numbers.items()}
        no = np.zeros(count, dtype=bool)
        checks = [  # (failing vehicles, target, message, values shown), in check order
            (nan.get("speed_scale", no), "speed_scale", _NOT_A_NUMBER, None),
            (raw_scale <= 0.0, "speed_scale", _NOT_POSITIVE_SCALE, raw_scale),
            ((quantum > 0.0) & ~np.isfinite(scale), "speed_scale", _UNQUANTIZABLE, raw_scale),
            (nan.get("temperature_c", no), "temperature_c", _NOT_A_NUMBER, None),
            (nan.get("ambient_offset_c", no), "ambient_offset_c", _NOT_A_NUMBER, None),
            (nan.get("scavenger_size", no), "scavenger_size", _NOT_A_NUMBER, None),
            (nan.get("storage_capacity", no), "storage_capacity", _NOT_A_NUMBER, None),
            ((size_factor <= 0.0) | (storage_scale <= 0.0), "", _NOT_POSITIVE_FACTOR, ones),
            (~np.isfinite(storage_scale), "storage_capacity", _NOT_FINITE_FACTOR, storage_scale),
        ]
        bad = (
            (code < 0)
            | ~((size > 0.0) & (size < np.inf))
            | ~((speed > 0.0) & (speed < np.inf))
            | ~((temperature >= low_t) & (temperature <= high_t))
        )
        for failing, _target, _message, _shown in checks:
            bad |= failing
        if bad.any():
            i = int(np.argmax(bad))
            for failing, target, message, shown in checks:
                if failing[i]:
                    value = samples[target][i] if shown is None else shown[i]
                    value = value.item() if isinstance(value, np.generic) else value
                    raise ConfigError(message.format(target, value, quantum))
            cycle = samples["drive_cycle"][i] if "drive_cycle" in samples else base.drive_cycle
            # What is left is the vehicle's scenario's own check: it raises.
            self._scenario(start + i, scale[i].item(), temperature[i].item(), size[i].item(), cycle)
        index = np.arange(start, start + count)
        return FleetChunk(self, index, scale, temperature, size, storage_scale, code, cycles)

    def _chunk(self, samplers, shared, chunk_index: int) -> FleetChunk:
        """Draw and compute the columns of one chunk."""
        start, count = self.chunk_bounds(chunk_index)
        samples = self._sample_chunk(samplers, shared, chunk_index, count)
        return self._columns(start, count, samples)

    def materialize_chunk(self, chunk_index: int) -> list[FleetVehicle]:
        """Draw ONE chunk of the population, reproducible in isolation.

        A pure function of ``(seed, fleet document, chunk_index)``: a resumed
        run (or a remote worker handed only the document and a chunk index)
        rebuilds exactly the vehicles an uninterrupted run would have drawn
        for that chunk, without sampling any other chunk.  The vehicles are
        the reference view of the chunk's columns (:meth:`FleetChunk.vehicles`).
        """
        samplers = self._samplers()
        return self._chunk(samplers, self._shared_states(samplers), chunk_index).vehicles()

    def iter_chunks(self):
        """Stream the population as :class:`FleetChunk` columns of ≤ ``chunk_vehicles``.

        The generator the fleet runner consumes: at most one chunk is
        resident at a time, and iterating the yielded chunks gives
        :meth:`materialize` vehicle for vehicle (samplers and shared states
        are built once and reused, which cannot change the draws — each
        chunk still samples from its own generator).
        """
        samplers = self._samplers()
        shared = self._shared_states(samplers)
        for chunk_index in range(self.chunk_count()):
            yield self._chunk(samplers, shared, chunk_index)

    def materialize(self) -> list[FleetVehicle]:
        """Draw the whole population: one :class:`FleetVehicle` per vehicle.

        The eager reference view: every chunk is drawn independently through
        :meth:`materialize_chunk` and concatenated, so this is by
        construction what the streaming/chunked paths must reproduce
        (property-tested).  Prefer :meth:`iter_chunks` at fleet scale — this
        buffer is O(population).
        """
        vehicles: list[FleetVehicle] = []
        for chunk_index in range(self.chunk_count()):
            vehicles.extend(self.materialize_chunk(chunk_index))
        return vehicles

    def describe(self) -> str:
        """One-line summary used by reports and the CLI."""
        distributed = ", ".join(
            f"{target}={spec.describe()}" for target, spec in self.distributions
        )
        thermal = (
            f"; thermal(tau={self.thermal.time_constant_s:g}s, "
            f"rise<={self.thermal.max_rise_c:g}C)"
            if self.thermal is not None
            else ""
        )
        return (
            f"{self.vehicles} vehicles around [{self.base.describe()}]"
            + (f"; {distributed}" if distributed else "")
            + thermal
        )


def load_fleet(path: str | Path) -> FleetSpec:
    """Read a fleet JSON file into a validated :class:`FleetSpec`.

    Raises:
        ConfigError: when the file is missing, is not valid JSON, or the
            document fails fleet validation.
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read fleet file {target}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"fleet file {target} is not valid JSON: {exc}") from exc
    return FleetSpec.from_dict(document)
