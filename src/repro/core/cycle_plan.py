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
  in.

What depends on the emulator's state — the thermal trajectory, the speed-key
classification sets, the energy cache — is resolved per run on top of the
plan, which is why an emulator can memoize plans across runs.
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
        groups: per unique (speed bin, pattern) key of the rounds, in
            first-appearance order, ``(key, speed, unit)``: the ``(bin,
            transmits, refreshes_slow, writes_nvm)`` key, and the speed and
            unit index of its first round, as Python values.
        round_groups: per wheel round, its index into ``groups``.
        sample_times: the state-log record times.
        sample_units: per record time, the unit it falls in.
    """

    is_round: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    speeds: np.ndarray
    ends: np.ndarray
    indices: np.ndarray
    round_indices: np.ndarray
    groups: tuple
    round_groups: np.ndarray
    sample_times: np.ndarray
    sample_units: np.ndarray

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
    _unique, first, round_groups = first_appearance_unique(bins * 8 + patterns @ PATTERN_WEIGHTS)
    units = round_indices[first]
    groups = tuple(
        ((bin_index, *pattern), speed, unit)
        for bin_index, pattern, speed, unit in zip(
            bins[first].tolist(),
            patterns[first].tolist(),
            walk.speeds[units].tolist(),
            units.tolist(),
        )
    )
    sample_times, sample_units = sample_walk(walk.ends, record_interval_s)
    arrays = (*walk, round_indices, round_groups, sample_times, sample_units)
    for array in arrays:
        array.setflags(write=False)
    return CyclePlan(*walk, round_indices, groups, round_groups, sample_times, sample_units)


def energy_keys(
    slots: list, round_slot: np.ndarray, round_temp_bins: np.ndarray
) -> tuple[list, list, np.ndarray]:
    """The unique revolution-energy cache keys of a run's wheel rounds.

    ``slots`` are the run's resolved ``(speed key, pattern, evaluation
    speed, unit)`` entries and ``round_slot`` each round's index into them;
    ``round_temp_bins`` are the rounds' quantized temperatures.  Returns
    ``(keys, key_slots, inverse)``: the distinct ``(speed key, temperature
    bin, *pattern)`` cache keys in first-appearance order, each key's slot,
    and each round's index into ``keys``.
    """
    if not round_slot.size:
        return [], [], np.empty(0, dtype=np.intp)
    temp_bins = round_temp_bins.astype(np.int64)
    low = int(temp_bins.min())
    width = int(temp_bins.max()) - low + 1
    unique, _first, inverse = first_appearance_unique(round_slot * width + (temp_bins - low))
    keys, key_slots = [], []
    for code in unique.tolist():
        slot, offset = divmod(code, width)
        speed_key, pattern = slots[slot][:2]
        keys.append((speed_key, offset + low, *pattern))
        key_slots.append(slot)
    return keys, key_slots, inverse


def round_harvest(scavenger, plan: CyclePlan) -> np.ndarray:
    """Per-unit harvested energy: every wheel round from ONE ``energy_sweep_j`` call."""
    harvest = np.zeros(len(plan))
    harvest[plan.round_indices] = scavenger.energy_sweep_j(plan.speeds[plan.round_indices])
    if np.any(harvest < 0.0):
        raise EmulationError("cannot deposit negative energy")
    return harvest


def unit_load(pmu, plan: CyclePlan, round_energies: np.ndarray, sleep_power_w) -> np.ndarray:
    """Per-unit load energy at the storage element.

    Wheel rounds draw their revolution energy, idle units the sleep power
    over their duration, both referred through the PMU.  ``sleep_power_w``
    is a per-unit array or one value for every unit.
    """
    load = np.zeros(len(plan))
    load[plan.round_indices] = pmu.referred_to_storage(round_energies)
    idle = ~plan.is_round
    if np.ndim(sleep_power_w):
        sleep_power_w = sleep_power_w[idle]
    load[idle] = pmu.referred_to_storage(sleep_power_w * plan.durations[idle])
    return load
