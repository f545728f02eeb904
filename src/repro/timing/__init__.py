"""Timing substrate: the wheel round, intra-revolution schedules, duty cycles.

The paper makes the *wheel round* the basic timing unit: every block's
behaviour is described by what it does within one revolution (its phases and
duty cycle), and the energy evaluation integrates power over that unit.
"""

from repro.timing.duty_cycle import BlockDutyCycle, DutyCycleReport, duty_cycle_report
from repro.timing.schedule import Phase, PhaseStructure, RevolutionSchedule, ScheduleTable
from repro.timing.wheel_round import (
    IdleInterval,
    WheelRound,
    iter_wheel_rounds,
    wheel_round_arrays,
)

__all__ = [
    "Phase",
    "RevolutionSchedule",
    "PhaseStructure",
    "ScheduleTable",
    "WheelRound",
    "IdleInterval",
    "iter_wheel_rounds",
    "wheel_round_arrays",
    "BlockDutyCycle",
    "DutyCycleReport",
    "duty_cycle_report",
]
