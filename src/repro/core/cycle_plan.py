"""The cycle plan: one walk of a drive cycle, kept as arrays.

``NodeEmulator.emulate()`` and the fleet runner consume a drive cycle as
per-unit arrays.  A :class:`CyclePlan` holds everything about that walk that
depends only on the cycle, the node (its wheel and phase patterns) and the
two step sizes:

* the per-unit arrays of :func:`~repro.timing.wheel_round.wheel_round_arrays`,
  which walks each constant-speed or idle stretch as one validated
  ``np.add.accumulate`` window and only the ramps one unit at a time;
* each wheel round's quantized speed bin and conditional-phase pattern,
  grouped into unique (speed bin, pattern) keys plus the per-round index
  into them — so the emulator classifies a few hundred keys, not every
  round;
* the state-log sampling walk: the record times and the unit each one falls
  in;
* the totals every run over the walk shares: its revolution count and
  moving time.

What depends on the emulator's state — the thermal trajectory, the speed-key
classification sets, the standstill powers — is resolved per run on top of
the plan, which is why an emulator can memoize plans across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocks.node import PATTERN_WEIGHTS
from repro.core.quantize import speed_bins
from repro.errors import EmulationError
from repro.timing.wheel_round import wheel_round_arrays


@dataclass(frozen=True, eq=False)
class CyclePlan:
    """The thermal-independent walk of one drive cycle (read-only arrays).

    Attributes:
        is_round, starts, durations, speeds, ends, indices: the per-unit
            arrays of the walk (``indices`` is ``-1`` and ``speeds`` is 0 on
            idle units).
        round_indices: positions of the wheel rounds among the units.
        groups: the unique ``(bin, transmits, refreshes_slow, writes_nvm)``
            keys of the rounds, in first-appearance order, as Python values.
        group_codes: per group, its key as ``bin * 8 + pattern code`` (the
            code is the pattern's flags times ``PATTERN_WEIGHTS``).
        round_groups: per wheel round, its index into ``groups``.
        sample_times: the state-log record times.
        sample_units: per record time, the unit it falls in.
        revolutions, moving_time_s: the wheel-round count and the summed
            round durations.
    """

    is_round: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    speeds: np.ndarray
    ends: np.ndarray
    indices: np.ndarray
    round_indices: np.ndarray
    groups: tuple
    group_codes: np.ndarray
    round_groups: np.ndarray
    sample_times: np.ndarray
    sample_units: np.ndarray
    revolutions: int
    moving_time_s: float

    def __len__(self) -> int:
        return len(self.is_round)


def first_appearance_unique(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` of ``codes`` in first-appearance order.

    Returns ``(unique, first, inverse)``: the distinct codes ordered by
    where they first occur, that first position, and each element's index
    into ``unique``.
    """
    unique, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return unique[order], first[order], rank[inverse]


def sample_walk(ends: np.ndarray, record_interval_s: float) -> tuple[np.ndarray, np.ndarray]:
    """The state-log record times and the unit each falls in.

    Times are ``0, r, r + r, ...`` accumulated one addition at a time
    (``np.add.accumulate`` is sequential, so bitwise the ``+=`` loop), up to
    the last unit's end; a time belongs to the first unit ending at or after
    it.
    """
    if not ends.size:
        return np.empty(0), np.empty(0, dtype=np.intp)
    last = ends[-1]
    count = int(last / record_interval_s) + 2
    while True:
        steps = np.full(count, record_interval_s, dtype=float)
        steps[0] = 0.0
        times = np.add.accumulate(steps)
        if times[-1] > last:
            break
        count *= 2
    times = times[: np.searchsorted(times, last, side="right")]
    return times, np.searchsorted(ends, times, side="left")


def build_cycle_plan(cycle, node, idle_step_s: float, record_interval_s: float) -> CyclePlan:
    """Walk ``cycle`` once for ``node`` and key its rounds (see :class:`CyclePlan`)."""
    walk = wheel_round_arrays(cycle, node.wheel, idle_step_s=idle_step_s)
    round_indices = np.flatnonzero(walk.is_round)
    patterns = node.phase_patterns(walk.indices[round_indices])
    bins = speed_bins(walk.speeds[round_indices])
    codes = bins * 8 + patterns @ PATTERN_WEIGHTS
    group_codes, first, round_groups = first_appearance_unique(codes)
    groups = tuple(
        (bin_index, *pattern)
        for bin_index, pattern in zip(bins[first].tolist(), patterns[first].tolist())
    )
    sample_times, sample_units = sample_walk(walk.ends, record_interval_s)
    arrays = (*walk, round_indices, group_codes, round_groups, sample_times, sample_units)
    for array in arrays:
        array.setflags(write=False)
    totals = int(walk.is_round.sum()), float(walk.durations[walk.is_round].sum())
    return CyclePlan(
        *walk, round_indices, groups, group_codes, round_groups, sample_times, sample_units, *totals
    )


def round_harvest(scavenger, plan: CyclePlan) -> np.ndarray:
    """Per-unit harvested energy: every wheel round from ONE ``energy_sweep_j`` call."""
    harvest = np.zeros(len(plan))
    harvest[plan.round_indices] = scavenger.energy_sweep_j(plan.speeds[plan.round_indices])
    if np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    return harvest


def unit_loads(pmu, plan: CyclePlan, round_loads, value_index, sleep_power_w) -> np.ndarray:
    """Per-unit load energies at the storage element of R runs over ``plan``, ``(R, units)``.

    Each unit reads ``round_loads`` (revolution energies referred through
    the PMU, and a trailing 0.0 that index ``-1`` reads) at its
    ``value_index``; idle units then draw the sleep power (``(R, units)`` or
    ``(R, 1)``) over their duration, referred through the PMU.
    """
    load = round_loads[value_index]
    idle = ~plan.is_round
    sleep_j = np.broadcast_to(sleep_power_w, load.shape)[:, idle] * plan.durations[idle]
    load[:, idle] = pmu.referred_to_storage(sleep_j)
    return load
