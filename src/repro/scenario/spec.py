"""The :class:`ScenarioSpec` — a frozen, declarative description of one experiment.

A scenario names everything one run of the toolkit needs — architecture,
power characterization, scavenger and its sizing, storage element, drive
cycle, environment (temperature / process / supply / speed) and workload
overrides — by *registry name plus parameters*.  Being plain data, a spec
can be built from Python kwargs or from a dict/JSON document, round-trips
through :meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`, and is
the unit the :class:`~repro.scenario.study.Study` runner grid-expands.

A minimal JSON document::

    {
        "name": "quickstart",
        "architecture": "baseline",
        "scavenger": "piezoelectric",
        "storage": "supercapacitor",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 2}},
        "environment": {"temperature_c": 25.0, "speed_kmh": 60.0}
    }

Every malformed document fails with a :class:`~repro.errors.ConfigError`
naming the offending field — never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.blocks.node import SensorNode
from repro.conditions.operating_point import TEMPERATURE_RANGE_C, OperatingPoint
from repro.conditions.process import ProcessCorner, ProcessVariation
from repro.conditions.supply import CORE_RAIL, SupplyCondition
from repro.errors import ConfigError
from repro.power.database import PowerDatabase
from repro.scavenger.base import EnergyScavenger
from repro.scavenger.storage import StorageElement
from repro.scenario.registry import (
    ARCHITECTURES,
    DRIVE_CYCLES,
    POWER_DATABASES,
    SCAVENGERS,
    STORAGE_ELEMENTS,
    Registry,
)
from repro.vehicle.drive_cycle import DriveCycle

_SUPPLY_CORNERS = ("min", "nom", "max")


def _is_positive_finite(value: object) -> bool:
    """True for int/float scalars that are finite and strictly positive."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return math.isfinite(value) and value > 0.0


@dataclass(frozen=True)
class ComponentRef:
    """A reference to a registered component: a name plus keyword parameters.

    Parameters are stored as a sorted tuple of ``(key, value)`` pairs so two
    references built from differently-ordered documents compare equal (and
    the reference is hashable whenever its parameter values are).
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("component name must be a non-empty string")
        normalized = tuple(sorted((str(k), v) for k, v in self.params))
        object.__setattr__(self, "params", normalized)

    @classmethod
    def coerce(cls, value: object, field_name: str) -> "ComponentRef":
        """Accept a ``ComponentRef``, a bare name, or a ``{name, params}`` mapping."""
        if isinstance(value, ComponentRef):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"name", "params"}
            if unknown:
                raise ConfigError(
                    f"scenario field {field_name!r} has unknown keys {sorted(unknown)}; "
                    "expected 'name' and optional 'params'"
                )
            if "name" not in value:
                raise ConfigError(f"scenario field {field_name!r} needs a 'name'")
            params = value.get("params", {})
            if not isinstance(params, Mapping):
                raise ConfigError(f"scenario field {field_name!r}: 'params' must be a mapping")
            return cls(name=value["name"], params=tuple(params.items()))
        raise ConfigError(
            f"scenario field {field_name!r} must be a component name or a "
            f"{{'name', 'params'}} mapping, got {type(value).__name__}"
        )

    def to_dict(self) -> object:
        """Compact serialized form: the bare name when there are no params."""
        if not self.params:
            return self.name
        return {"name": self.name, "params": dict(self.params)}

    def build(self, registry: Registry) -> object:
        """Instantiate the referenced component from ``registry``."""
        return registry.create(self.name, **dict(self.params))

    def describe(self) -> str:
        """Short human-readable form used in labels and tables."""
        if not self.params:
            return self.name
        inner = ", ".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({inner})"


def _ref(name: str) -> ComponentRef:
    return ComponentRef(name=name)


@dataclass(frozen=True)
class ScenarioSpec:
    """A frozen, validated description of one energy-analysis experiment.

    Attributes:
        name: scenario label used in study rows and reports.
        architecture: Sensor Node architecture reference
            (:data:`~repro.scenario.registry.ARCHITECTURES`).
        power_database: characterization library reference
            (:data:`~repro.scenario.registry.POWER_DATABASES`).
        scavenger: harvester reference
            (:data:`~repro.scenario.registry.SCAVENGERS`).
        scavenger_size: size factor applied on top of the scavenger's own
            parameters (the paper's device-size knob).
        storage: storage-element reference, or ``None`` to skip emulation.
        drive_cycle: drive-cycle reference, or ``None`` for point analyses.
        temperature_c: junction temperature of the evaluation.
        speed_kmh: cruising speed of the point analyses (must be positive).
        supply_corner: core-rail supply corner, one of ``min``/``nom``/``max``.
        process_corner: process corner name (``typical``, ``fast``, ``slow``...).
        tx_interval_revs: workload override — transmit every N revolutions
            (``None`` keeps the architecture's own setting).
        payload_bits: workload override — radio payload size in bits.
    """

    name: str = "scenario"
    architecture: ComponentRef = field(default_factory=lambda: _ref("baseline"))
    power_database: ComponentRef = field(default_factory=lambda: _ref("reference"))
    scavenger: ComponentRef = field(default_factory=lambda: _ref("piezoelectric"))
    scavenger_size: float = 1.0
    storage: ComponentRef | None = field(default_factory=lambda: _ref("supercapacitor"))
    drive_cycle: ComponentRef | None = None
    temperature_c: float = 25.0
    speed_kmh: float = 60.0
    supply_corner: str = "nom"
    process_corner: str = "typical"
    tx_interval_revs: int | None = None
    payload_bits: int | None = None

    # -- validation ---------------------------------------------------------

    def __post_init__(self) -> None:
        set_attr = object.__setattr__
        set_attr(self, "architecture", ComponentRef.coerce(self.architecture, "architecture"))
        set_attr(self, "power_database", ComponentRef.coerce(self.power_database, "power_database"))
        set_attr(self, "scavenger", ComponentRef.coerce(self.scavenger, "scavenger"))
        if self.storage is not None:
            set_attr(self, "storage", ComponentRef.coerce(self.storage, "storage"))
        if self.drive_cycle is not None:
            set_attr(self, "drive_cycle", ComponentRef.coerce(self.drive_cycle, "drive_cycle"))

        if not self.name or not isinstance(self.name, str):
            raise ConfigError("scenario name must be a non-empty string")
        ARCHITECTURES.validate(self.architecture.name)
        POWER_DATABASES.validate(self.power_database.name)
        SCAVENGERS.validate(self.scavenger.name)
        if self.storage is not None:
            STORAGE_ELEMENTS.validate(self.storage.name)
        if self.drive_cycle is not None:
            DRIVE_CYCLES.validate(self.drive_cycle.name)

        if not _is_positive_finite(self.scavenger_size):
            raise ConfigError("scenario scavenger_size must be a positive finite number")
        if not _is_positive_finite(self.speed_kmh):
            raise ConfigError("scenario speed_kmh must be a positive finite number")
        low, high = TEMPERATURE_RANGE_C
        if not isinstance(self.temperature_c, (int, float)) or not (
            low <= self.temperature_c <= high
        ):
            raise ConfigError(
                f"scenario temperature_c must lie in [{low}, {high}] degC, "
                f"got {self.temperature_c!r}"
            )
        if self.supply_corner not in _SUPPLY_CORNERS:
            raise ConfigError(
                f"scenario supply_corner must be one of {_SUPPLY_CORNERS}, "
                f"got {self.supply_corner!r}"
            )
        try:
            ProcessCorner.from_name(self.process_corner)
        except Exception as exc:
            raise ConfigError(f"unknown scenario process_corner {self.process_corner!r}") from exc
        if self.tx_interval_revs is not None and (
            not isinstance(self.tx_interval_revs, int) or self.tx_interval_revs < 1
        ):
            raise ConfigError("scenario tx_interval_revs must be a positive integer")
        if self.payload_bits is not None and (
            not isinstance(self.payload_bits, int) or self.payload_bits < 1
        ):
            raise ConfigError("scenario payload_bits must be a positive integer")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form, JSON-serializable and accepted by :meth:`from_dict`."""
        document: dict[str, object] = {
            "name": self.name,
            "architecture": self.architecture.to_dict(),
            "power_database": self.power_database.to_dict(),
            "scavenger": self.scavenger.to_dict(),
            "scavenger_size": self.scavenger_size,
            "storage": self.storage.to_dict() if self.storage is not None else None,
            "drive_cycle": (
                self.drive_cycle.to_dict() if self.drive_cycle is not None else None
            ),
            "environment": {
                "temperature_c": self.temperature_c,
                "speed_kmh": self.speed_kmh,
                "supply_corner": self.supply_corner,
                "process_corner": self.process_corner,
            },
        }
        workload: dict[str, object] = {}
        if self.tx_interval_revs is not None:
            workload["tx_interval_revs"] = self.tx_interval_revs
        if self.payload_bits is not None:
            workload["payload_bits"] = self.payload_bits
        if workload:
            document["workload"] = workload
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "ScenarioSpec":
        """Build a validated spec from a plain dict (e.g. parsed JSON).

        Unknown top-level, ``environment`` or ``workload`` keys raise
        :class:`~repro.errors.ConfigError` so typos never pass silently.
        """
        if not isinstance(document, Mapping):
            raise ConfigError(
                f"a scenario document must be a mapping, got {type(document).__name__}"
            )
        known = {
            "name",
            "architecture",
            "power_database",
            "scavenger",
            "scavenger_size",
            "storage",
            "drive_cycle",
            "environment",
            "workload",
        }
        unknown = set(document) - known
        if unknown:
            raise ConfigError(
                f"unknown scenario field(s) {sorted(unknown)}; known fields: {sorted(known)}"
            )

        environment = document.get("environment", {})
        if not isinstance(environment, Mapping):
            raise ConfigError("scenario 'environment' must be a mapping")
        env_known = {"temperature_c", "speed_kmh", "supply_corner", "process_corner"}
        env_unknown = set(environment) - env_known
        if env_unknown:
            raise ConfigError(
                f"unknown environment field(s) {sorted(env_unknown)}; "
                f"known fields: {sorted(env_known)}"
            )

        workload = document.get("workload", {})
        if not isinstance(workload, Mapping):
            raise ConfigError("scenario 'workload' must be a mapping")
        load_known = {"tx_interval_revs", "payload_bits"}
        load_unknown = set(workload) - load_known
        if load_unknown:
            raise ConfigError(
                f"unknown workload field(s) {sorted(load_unknown)}; "
                f"known fields: {sorted(load_known)}"
            )

        kwargs: dict[str, object] = {}
        for key in ("name", "scavenger_size"):
            if key in document:
                kwargs[key] = document[key]
        for key in ("architecture", "power_database", "scavenger"):
            if key in document:
                kwargs[key] = ComponentRef.coerce(document[key], key)
        for key in ("storage", "drive_cycle"):
            if key in document and document[key] is not None:
                kwargs[key] = ComponentRef.coerce(document[key], key)
            elif key in document:
                kwargs[key] = None
        kwargs.update({key: environment[key] for key in environment})
        kwargs.update({key: workload[key] for key in workload})
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document string."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> Path:
        """Write the spec as a JSON file and return the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    # -- grid axes ----------------------------------------------------------

    #: Accepted axis names (plus aliases) for :meth:`with_axis` / study grids.
    _AXIS_ALIASES = {
        "architecture": "architecture",
        "power_database": "power_database",
        "database": "power_database",
        "scavenger": "scavenger",
        "scavenger_size": "scavenger_size",
        "size": "scavenger_size",
        "storage": "storage",
        "drive_cycle": "drive_cycle",
        "cycle": "drive_cycle",
        "temperature": "temperature_c",
        "temperature_c": "temperature_c",
        "speed": "speed_kmh",
        "speed_kmh": "speed_kmh",
        "supply_corner": "supply_corner",
        "process_corner": "process_corner",
        "tx_interval_revs": "tx_interval_revs",
        "payload_bits": "payload_bits",
        "name": "name",
    }

    @classmethod
    def axis_names(cls) -> list[str]:
        """Every accepted grid-axis name (including aliases), sorted."""
        return sorted(cls._AXIS_ALIASES)

    def with_axis(self, axis: str, value: object) -> "ScenarioSpec":
        """Return a copy of the spec with one grid axis overridden.

        ``axis`` accepts the canonical field names plus the short aliases
        used by the CLI (``temperature``, ``speed``, ``cycle``, ``size``,
        ``database``).  Component axes accept a bare name or a
        ``{name, params}`` mapping.
        """
        if axis not in self._AXIS_ALIASES:
            raise ConfigError(f"unknown scenario axis {axis!r}; known axes: {self.axis_names()}")
        field_name = self._AXIS_ALIASES[axis]
        if field_name in ("architecture", "power_database", "scavenger"):
            value = ComponentRef.coerce(value, field_name)
        elif field_name in ("storage", "drive_cycle") and value is not None:
            value = ComponentRef.coerce(value, field_name)
        return replace(self, **{field_name: value})

    def with_axes(self, **axes: object) -> "ScenarioSpec":
        """Apply several :meth:`with_axis` overrides at once."""
        spec = self
        for axis, value in axes.items():
            spec = spec.with_axis(axis, value)
        return spec

    # -- component construction ---------------------------------------------

    def build_node(self) -> SensorNode:
        """Instantiate the architecture and apply the workload overrides."""
        node = self.architecture.build(ARCHITECTURES)
        if not isinstance(node, SensorNode):
            raise ConfigError(
                f"architecture {self.architecture.name!r} did not produce a SensorNode"
            )
        if self.tx_interval_revs is not None or self.payload_bits is not None:
            radio = node.radio
            if self.tx_interval_revs is not None:
                radio = replace(radio, tx_interval_revs=self.tx_interval_revs)
            if self.payload_bits is not None:
                radio = replace(radio, payload_bits=self.payload_bits)
            node = node.with_radio(radio)
        return node

    def build_database(self) -> PowerDatabase:
        """Instantiate the power characterization library."""
        database = self.power_database.build(POWER_DATABASES)
        if not isinstance(database, PowerDatabase):
            raise ConfigError(
                f"power database {self.power_database.name!r} did not produce "
                "a PowerDatabase"
            )
        return database

    def build_scavenger(self) -> EnergyScavenger:
        """Instantiate the scavenger, scaled by :attr:`scavenger_size`."""
        scavenger = self.scavenger.build(SCAVENGERS)
        if not isinstance(scavenger, EnergyScavenger):
            raise ConfigError(
                f"scavenger {self.scavenger.name!r} did not produce an EnergyScavenger"
            )
        if self.scavenger_size != 1.0:
            scavenger = scavenger.scaled(self.scavenger_size)
        return scavenger

    def build_storage(self) -> StorageElement | None:
        """Instantiate the storage element (``None`` when the spec has none)."""
        if self.storage is None:
            return None
        storage = self.storage.build(STORAGE_ELEMENTS)
        if not isinstance(storage, StorageElement):
            raise ConfigError(
                f"storage element {self.storage.name!r} did not produce a StorageElement"
            )
        return storage

    def build_drive_cycle(self) -> DriveCycle | None:
        """Instantiate the drive cycle (``None`` when the spec has none)."""
        if self.drive_cycle is None:
            return None
        cycle = self.drive_cycle.build(DRIVE_CYCLES)
        if not isinstance(cycle, DriveCycle):
            raise ConfigError(f"drive cycle {self.drive_cycle.name!r} did not produce a DriveCycle")
        return cycle

    def evaluator_group_key(self) -> str:
        """Cache key under which scenarios share one evaluator/compiled table.

        Scenarios agreeing on architecture, workload overrides and power
        database evaluate identically per operating condition, so study grid
        points and fleet vehicles with equal keys share one
        :class:`~repro.core.evaluator.EnergyEvaluator`.  Repr-keyed rather
        than hashed: component params may hold unhashable JSON values
        (lists, dicts), and dataclass reprs of equal refs match.  Every
        sharing consumer derives its key HERE — if a new spec field ever
        affects the compiled table, extending this tuple fixes them all.
        """
        return repr(
            (
                self.architecture,
                self.tx_interval_revs,
                self.payload_bits,
                self.power_database,
            )
        )

    def build_components(self) -> tuple:
        """Build the ``(node, database, evaluator)`` triple of this scenario.

        The shareable unit behind :meth:`evaluator_group_key`: callers memo
        the result under that key (study evaluator cache, process-worker
        memos, fleet groups).
        """
        from repro.core.evaluator import EnergyEvaluator

        node = self.build_node()
        database = self.build_database()
        return node, database, EnergyEvaluator(node, database)

    def operating_point(self) -> OperatingPoint:
        """The :class:`OperatingPoint` described by the environment fields."""
        return OperatingPoint(
            temperature_c=float(self.temperature_c),
            speed_kmh=float(self.speed_kmh),
            supply=SupplyCondition(rail=CORE_RAIL, corner=self.supply_corner),
            process=ProcessVariation(corner=ProcessCorner.from_name(self.process_corner)),
        )

    def describe(self) -> str:
        """One-line summary used by study rows and the CLI."""
        parts = [
            self.architecture.describe(),
            f"db={self.power_database.describe()}",
            f"scavenger={self.scavenger.describe()} x{self.scavenger_size:g}",
            f"{self.temperature_c:g} degC",
            f"{self.speed_kmh:g} km/h",
        ]
        if self.drive_cycle is not None:
            parts.append(f"cycle={self.drive_cycle.describe()}")
        return ", ".join(parts)


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario JSON file into a validated :class:`ScenarioSpec`.

    Raises:
        ConfigError: when the file is missing, is not valid JSON, or the
            document fails spec validation.
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {target}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {target} is not valid JSON: {exc}") from exc
    return ScenarioSpec.from_dict(document)
