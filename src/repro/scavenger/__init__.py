"""Energy-scavenging substrate: harvesters, power conditioning, storage.

The Sensor Node cannot be battery powered for the tyre lifetime, so it
harvests energy from the wheel rotation.  The available energy *"depends
almost on the size of such a scavenging device and mostly on the tyre
rotation speed"*; every harvester model here therefore exposes the
energy-per-revolution-versus-speed profile the balance analysis of Fig. 2
consumes, plus a ``scaled`` operation representing the device size.
"""

from repro.scavenger.base import EnergyScavenger
from repro.scavenger.conditioning import PowerConditioning
from repro.scavenger.electromagnetic import ElectromagneticScavenger
from repro.scavenger.electrostatic import ElectrostaticScavenger
from repro.scavenger.piezoelectric import PiezoelectricScavenger
from repro.scavenger.profiles import TabulatedScavenger
from repro.scavenger.storage import (
    LedgerDemand,
    StorageElement,
    StorageTrajectory,
    ledger_demand,
    supercapacitor,
    thin_film_battery,
    trajectory,
)

__all__ = [
    "EnergyScavenger",
    "PiezoelectricScavenger",
    "ElectromagneticScavenger",
    "ElectrostaticScavenger",
    "TabulatedScavenger",
    "PowerConditioning",
    "LedgerDemand",
    "StorageElement",
    "StorageTrajectory",
    "ledger_demand",
    "supercapacitor",
    "thin_film_battery",
    "trajectory",
]
