"""Intra-revolution activity schedules.

A :class:`RevolutionSchedule` describes what every functional block does
during one wheel round: an ordered list of :class:`Phase` items, each with a
duration and a mode assignment for the blocks that are *not* in their resting
mode.  The evaluator integrates power over the phases to get energy per
revolution; the emulator plays the phases back in time to produce the
instant-power trace of the paper's Fig. 3.

A :class:`ScheduleTable` holds the same timing for many wheel rounds at once
as arrays: one :class:`PhaseStructure` (the phases' names, mode overrides
and activities) per distinct layout plus per-point durations, which is what
the batch energy kernel consumes instead of one schedule object per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, ScheduleError

#: Relative slack of the feasibility test: busy phases may exceed the
#: wheel-round period by this fraction before a schedule is infeasible.
FEASIBILITY_SLACK = 1e-9


def infeasible_message(busy_s: float, period_s: float) -> str:
    """The error text of a schedule whose busy phases overrun the period."""
    return (
        f"busy phases ({busy_s:.6f} s) exceed the wheel-round period "
        f"({period_s:.6f} s); the schedule is infeasible at this speed"
    )


def resting_durations(period_s: np.ndarray, busy_s: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, period - busy)`` with Python's ``max`` semantics.

    ``np.maximum(0.0, x)`` returns ``-0.0`` for ``x = -0.0`` and NaN for NaN,
    where ``max(0.0, x)`` returns ``0.0`` for both, so the comparison is
    spelled out.
    """
    remainder = period_s - busy_s
    return np.where(remainder > 0.0, remainder, 0.0)


@dataclass(frozen=True)
class Phase:
    """One phase of the revolution schedule.

    Attributes:
        name: phase label, e.g. ``"acquire"``, ``"compute"``, ``"transmit"``,
            ``"sleep"``.
        duration_s: phase duration in seconds.
        block_modes: mode assignment for the blocks that are not in their
            resting mode during this phase.  Blocks missing from the mapping
            stay in the resting mode the schedule was built with.
        activities: optional per-block activity factors for this phase.
    """

    name: str
    duration_s: float
    block_modes: Mapping[str, str] = field(default_factory=dict)
    activities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScheduleError("phase name must not be empty")
        if self.duration_s < 0.0:
            raise ScheduleError(f"phase {self.name!r} has a negative duration")

    def mode_of(self, block: str, resting_mode: str) -> str:
        """Mode of ``block`` during this phase, falling back to the resting mode."""
        return self.block_modes.get(block, resting_mode)

    def activity_of(self, block: str) -> float:
        """Activity factor of ``block`` during this phase (1.0 by default)."""
        return self.activities.get(block, 1.0)


@dataclass(frozen=True)
class RevolutionSchedule:
    """The ordered phases of one wheel round.

    Attributes:
        period_s: total duration of the wheel round the schedule describes.
        phases: the busy phases (acquisition, computation, transmission...).
            Their summed duration must not exceed ``period_s``; the remaining
            time is an implicit resting phase appended automatically.
        blocks: every block of the architecture, mapped to the resting mode it
            occupies whenever a phase does not override it.
        resting_phase_name: label of the implicit remainder phase.
    """

    period_s: float
    phases: tuple[Phase, ...]
    blocks: Mapping[str, str]
    resting_phase_name: str = "sleep"

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ScheduleError("schedule period must be positive")
        if not self.blocks:
            raise ScheduleError("a schedule needs at least one block")
        busy = sum(phase.duration_s for phase in self.phases)
        if busy > self.period_s * (1.0 + FEASIBILITY_SLACK):
            raise ScheduleError(infeasible_message(busy, self.period_s))

    @property
    def busy_duration_s(self) -> float:
        """Total duration of the explicit (busy) phases."""
        return sum(phase.duration_s for phase in self.phases)

    @property
    def resting_duration_s(self) -> float:
        """Duration of the implicit resting remainder."""
        return max(0.0, self.period_s - self.busy_duration_s)

    def iter_phases(self) -> Iterator[Phase]:
        """Iterate every phase including the implicit resting remainder."""
        yield from self.phases
        rest = self.resting_duration_s
        if rest > 0.0:
            yield Phase(name=self.resting_phase_name, duration_s=rest, block_modes={})

    def modes_during(self, phase: Phase) -> dict[str, str]:
        """Full block -> mode assignment during ``phase``."""
        return {
            block: phase.mode_of(block, resting)
            for block, resting in self.blocks.items()
        }

    def active_time_of(self, block: str, active_modes: frozenset[str] | set[str]) -> float:
        """Total time ``block`` spends in one of ``active_modes`` during the round."""
        if block not in self.blocks:
            raise ScheduleError(f"block {block!r} is not part of this schedule")
        total = 0.0
        for phase in self.iter_phases():
            if phase.mode_of(block, self.blocks[block]) in active_modes:
                total += phase.duration_s
        return total

    def duty_cycle_of(self, block: str, active_modes: frozenset[str] | set[str]) -> float:
        """Active-time over wheel-round-period ratio for ``block``.

        This is exactly the paper's definition of the duty cycle: *"active
        time over idle time in a single wheel round"* is described loosely in
        the text; the quantity the selection policy needs is the active
        fraction of the round, which is what we compute.
        """
        return self.active_time_of(block, active_modes) / self.period_s

    def phase_named(self, name: str) -> Phase:
        """Look a busy phase up by name."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise ScheduleError(f"no phase named {name!r} in this schedule")

    def has_phase(self, name: str) -> bool:
        """True if a busy phase with this name exists."""
        return any(phase.name == name for phase in self.phases)

    def scaled_to_period(self, new_period_s: float) -> "RevolutionSchedule":
        """Re-target the schedule to a different wheel-round period.

        Busy-phase durations are kept (they are set by the hardware, not by
        the speed); only the resting remainder stretches or shrinks.  Raises
        if the busy phases no longer fit.
        """
        return RevolutionSchedule(
            period_s=new_period_s,
            phases=self.phases,
            blocks=self.blocks,
            resting_phase_name=self.resting_phase_name,
        )

    def describe(self) -> str:
        """Multi-line human-readable dump used by the examples."""
        lines = [f"wheel round {self.period_s * 1e3:.2f} ms"]
        for phase in self.iter_phases():
            overrides = ", ".join(
                f"{block}={mode}" for block, mode in sorted(phase.block_modes.items())
            )
            lines.append(
                f"  {phase.name:<10s} {phase.duration_s * 1e3:8.3f} ms"
                + (f"  [{overrides}]" if overrides else "")
            )
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class PhaseStructure:
    """The speed-independent layout of a schedule's busy phases.

    Attributes:
        names: phase labels, in schedule order.
        block_modes: per phase, the mode overrides (see :class:`Phase`).
        activities: per phase, the activity factors (see :class:`Phase`).
        resting_phase_name: label of the implicit remainder phase.
    """

    names: tuple[str, ...]
    block_modes: tuple[Mapping[str, str], ...]
    activities: tuple[Mapping[str, float], ...]
    resting_phase_name: str = "sleep"

    @classmethod
    def of(cls, phases: Sequence[Phase], resting_phase_name: str = "sleep") -> "PhaseStructure":
        """The structure of ``phases`` (their durations are ignored)."""
        return cls(
            names=tuple(phase.name for phase in phases),
            block_modes=tuple(phase.block_modes for phase in phases),
            activities=tuple(phase.activities for phase in phases),
            resting_phase_name=resting_phase_name,
        )

    @property
    def signature(self) -> tuple:
        """Hashable value of the structure: equal signatures, equal energies."""
        return (
            self.resting_phase_name,
            tuple(
                (name, tuple(sorted(modes.items())), tuple(sorted(activities.items())))
                for name, modes, activities in zip(
                    self.names, self.block_modes, self.activities
                )
            ),
        )


@dataclass(frozen=True, eq=False)
class ScheduleTable:
    """The schedules of N wheel rounds as arrays.

    Point ``i`` of the table is the schedule a :class:`RevolutionSchedule`
    would describe for the same round, bit for bit: ``period_s[i]``,
    ``busy_s[i]`` (``0 + d0 + d1 + ...`` in phase order, like ``sum``),
    ``rest_s[i]`` (the resting remainder) and, in the one group whose
    ``indices`` contain ``i``, its busy-phase durations.  ``feasible[i]``
    is false where building that schedule would raise;
    :meth:`raise_for` raises exactly that error.

    Attributes:
        speeds_kmh: the ``(N,)`` speeds the table was built for.
        period_s: ``(N,)`` wheel-round periods.
        busy_s: ``(N,)`` summed busy-phase durations.
        rest_s: ``(N,)`` resting remainders.
        feasible: ``(N,)`` bool, true where the schedule can be built.
        groups: one ``(structure, indices, durations)`` triple per distinct
            :class:`PhaseStructure`: the ascending point indices sharing it
            and their ``(phases, len(indices))`` durations.
    """

    speeds_kmh: np.ndarray
    period_s: np.ndarray
    busy_s: np.ndarray
    rest_s: np.ndarray
    feasible: np.ndarray
    groups: tuple[tuple[PhaseStructure, np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.period_s)

    @classmethod
    def from_schedule(cls, schedule: RevolutionSchedule) -> "ScheduleTable":
        """The one-point table of an already built (so feasible) schedule.

        A schedule does not know its speed, so ``speeds_kmh`` is NaN.
        """
        durations = np.array([phase.duration_s for phase in schedule.phases], dtype=float)
        structure = PhaseStructure.of(schedule.phases, schedule.resting_phase_name)
        return cls(
            speeds_kmh=np.full(1, np.nan),
            period_s=np.array([schedule.period_s]),
            busy_s=np.array([schedule.busy_duration_s]),
            rest_s=np.array([schedule.resting_duration_s]),
            feasible=np.ones(1, dtype=bool),
            groups=((structure, np.zeros(1, dtype=np.intp), durations.reshape(-1, 1)),),
        )

    def raise_for(self, index: int) -> None:
        """Raise the error building point ``index``'s schedule raises."""
        speed = float(self.speeds_kmh[index])
        if speed <= 0.0:
            raise ConfigurationError("a revolution schedule requires a positive speed")
        period = float(self.period_s[index])
        if period <= 0.0:
            raise ScheduleError("schedule period must be positive")
        raise ScheduleError(infeasible_message(float(self.busy_s[index]), period))

    def require_feasible(self) -> None:
        """Raise the first infeasible point's error, if there is one."""
        if not self.feasible.all():
            self.raise_for(int(np.argmin(self.feasible)))
