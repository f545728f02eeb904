"""Fleet-scale population simulation: spec → distributions → runner → aggregates.

The :mod:`repro.scenario` package answers "what happens to ONE configured
node"; this package scales the question to a *population*: a frozen,
JSON-round-trippable :class:`FleetSpec` (base scenario plus named
per-vehicle distributions — drive-style speed scales, correlated ambient
temperature, drive-cycle mix, manufacturing tolerances), a
:class:`FleetRunner` that streams N vehicles as column chunks, shares compiled
tables and quantized energy bins across them (one cross-vehicle sweep before
emulation) and runs the per-vehicle ledgers chunk by chunk through the
chunked execution engine, and an aggregation layer (survival fraction vs time,
brown-out-rate percentiles, energy-margin distribution) exposed through
``StudyResult``-compatible rows.

Quickstart::

    from repro.fleet import FleetSpec, FleetRunner
    from repro.scenario import ScenarioSpec

    base = ScenarioSpec(drive_cycle={"name": "urban", "params": {"repetitions": 2}})
    fleet = FleetSpec.from_base(base, vehicles=200, seed=7)
    result = FleetRunner(fleet).run()
    print(result.as_table())
"""

from repro.fleet.distributions import (
    DISTRIBUTIONS,
    Distribution,
    DistributionSpec,
    register_distribution,
)
from repro.fleet.spec import (
    FLEET_TARGETS,
    FleetSpec,
    ThermalSpec,
    default_fleet_distributions,
    load_fleet,
)
from repro.fleet.aggregate import FleetResult
from repro.fleet.runner import FleetRunner, run_fleet

__all__ = [
    "DISTRIBUTIONS",
    "Distribution",
    "DistributionSpec",
    "register_distribution",
    "FLEET_TARGETS",
    "FleetSpec",
    "ThermalSpec",
    "default_fleet_distributions",
    "load_fleet",
    "FleetResult",
    "FleetRunner",
    "run_fleet",
]
