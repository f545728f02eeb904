"""Energy-storage elements buffering the harvested energy.

The scavenger output is bursty (one impulse per revolution) and the node
load is bursty too (acquisition/transmission bursts), so a storage element —
a supercapacitor or a thin-film rechargeable cell — sits between them.  The
long-window emulation charges and discharges this element and declares the
node inactive whenever the state of charge falls below the operating
threshold, which is exactly how the paper identifies operating windows.

The ledger replay over a whole drive cycle is :func:`trajectory`.  It runs
:func:`run_length_scan`, which advances event-free stretches of the ledger
(free, pinned at the capacity, browned out) with one numpy accumulate each
and steps the rare events through :func:`reference_scan`, the per-step
recurrence; both are bitwise identical to stepping a
:class:`StorageElement`.  ``emulate()`` and every fleet vehicle, on any
execution backend, go through this one scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError, EmulationError

# ---------------------------------------------------------------------------
# Ledger step primitives
#
# The charge/discharge/leak arithmetic is defined ONCE here and shared by
# three consumers: the mutating :class:`StorageElement` methods (the scalar,
# authoritative reference), :func:`reference_scan` behind the pure
# :func:`trajectory` kernel, and the emulator's stepwise integration loop;
# :func:`run_length_scan` applies the same comparisons and operations
# elementwise over whole stretches.  Keeping them single-sourced is
# what makes the emulator's byte-identity contract cheap to maintain — a
# change to the ledger semantics cannot desynchronize the paths.
# ---------------------------------------------------------------------------


def deposit_step(
    charge_j: float, stored_j: float, capacity_j: float
) -> tuple[float, float]:
    """One deposit: bank ``stored_j`` (already after charging losses).

    Returns ``(new_charge, banked)`` where ``banked`` is clipped to the
    remaining headroom (the conditioning circuit shunts the excess once the
    storage is full).
    """
    headroom = capacity_j - charge_j
    banked = min(stored_j, headroom)
    return charge_j + banked, banked


def withdraw_step(charge_j: float, required_j: float) -> tuple[float, bool]:
    """One withdrawal: drain ``required_j`` (already including discharge losses).

    Returns ``(new_charge, success)``; a shortfall drains the element to zero
    and reports failure — the brown-out semantics of the emulation.
    """
    if required_j > charge_j:
        return 0.0, False
    return charge_j - required_j, True


def leak_step(charge_j: float, leak_j: float) -> tuple[float, float]:
    """One self-discharge step; returns ``(new_charge, loss)``."""
    loss = min(charge_j, leak_j)
    return charge_j - loss, loss


@dataclass
class StorageElement:
    """A lossy, bounded energy reservoir.

    Attributes:
        capacity_j: usable energy capacity in joules.
        initial_charge_j: energy stored at the start of the emulation.
        charge_efficiency: fraction of the banked energy that ends up stored.
        discharge_efficiency: fraction of the stored energy that reaches the
            load (the complement is lost in the output regulator).
        self_discharge_w: constant self-discharge (leakage) power.
        minimum_operating_j: below this level the node brown-outs and must
            stop operating until the storage recovers above
            ``restart_level_j``.
        restart_level_j: hysteresis threshold for restarting after a
            brown-out; must be at least ``minimum_operating_j``.
        name: label used in reports.
    """

    capacity_j: float = 0.25
    initial_charge_j: float = 0.10
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.90
    self_discharge_w: float = 0.3e-6
    minimum_operating_j: float = 0.01
    restart_level_j: float = 0.02
    name: str = "storage"
    _charge_j: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0:
            raise ConfigurationError("storage capacity must be positive")
        if not 0.0 <= self.initial_charge_j <= self.capacity_j:
            raise ConfigurationError("initial charge must lie within the capacity")
        for label, value in (
            ("charge_efficiency", self.charge_efficiency),
            ("discharge_efficiency", self.discharge_efficiency),
        ):
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{label} must be in (0, 1]")
        if self.self_discharge_w < 0.0:
            raise ConfigurationError("self-discharge must be non-negative")
        if self.minimum_operating_j < 0.0:
            raise ConfigurationError("minimum operating level must be non-negative")
        if self.restart_level_j < self.minimum_operating_j:
            raise ConfigurationError(
                "restart level must be at least the minimum operating level"
            )
        if self.restart_level_j > self.capacity_j:
            raise ConfigurationError("restart level cannot exceed the capacity")
        self._charge_j = self.initial_charge_j

    # -- state ------------------------------------------------------------------

    @property
    def charge_j(self) -> float:
        """Current stored energy in joules."""
        return self._charge_j

    @property
    def state_of_charge(self) -> float:
        """Stored energy as a fraction of the capacity."""
        return self._charge_j / self.capacity_j

    @property
    def is_depleted(self) -> bool:
        """True when the node must stop operating (below the brown-out level)."""
        return self._charge_j < self.minimum_operating_j

    @property
    def can_restart(self) -> bool:
        """True when a browned-out node may restart (hysteresis threshold)."""
        return self._charge_j >= self.restart_level_j

    def reset(self) -> None:
        """Return the element to its initial charge."""
        self._charge_j = self.initial_charge_j

    # -- energy flow --------------------------------------------------------------

    def deposit(self, energy_j: float) -> float:
        """Bank harvested energy; returns the amount actually stored.

        Charging losses and the capacity ceiling both reduce the stored
        amount; excess energy is discarded (the conditioning circuit shunts
        it once the storage is full).
        """
        if energy_j < 0.0:
            raise EmulationError("cannot deposit negative energy")
        self._charge_j, stored = deposit_step(
            self._charge_j, energy_j * self.charge_efficiency, self.capacity_j
        )
        return stored

    def withdraw(self, energy_j: float) -> bool:
        """Draw load energy; returns False (and drains what it can) on shortfall.

        ``energy_j`` is the energy delivered *to the load*; the element loses
        additionally through the discharge efficiency.
        """
        if energy_j < 0.0:
            raise EmulationError("cannot withdraw negative energy")
        self._charge_j, success = withdraw_step(
            self._charge_j, energy_j / self.discharge_efficiency
        )
        return success

    def leak(self, duration_s: float) -> float:
        """Apply self-discharge over ``duration_s`` seconds; returns the loss."""
        if duration_s < 0.0:
            raise EmulationError("duration must be non-negative")
        self._charge_j, loss = leak_step(
            self._charge_j, self.self_discharge_w * duration_s
        )
        return loss


def scaled_storage(storage: StorageElement, capacity_factor: float) -> StorageElement:
    """A copy of ``storage`` with its capacity scaled by ``capacity_factor``.

    Capacity, initial charge, brown-out threshold and restart level all
    scale together, so every validity invariant (initial charge within
    capacity, restart above minimum) is preserved by construction.  This is
    the fleet runner's manufacturing-tolerance axis on storage capacity.
    """
    if capacity_factor <= 0.0:
        raise ConfigurationError("storage capacity factor must be positive")
    if capacity_factor == 1.0:
        return replace(storage)
    return replace(
        storage,
        capacity_j=storage.capacity_j * capacity_factor,
        initial_charge_j=storage.initial_charge_j * capacity_factor,
        minimum_operating_j=storage.minimum_operating_j * capacity_factor,
        restart_level_j=storage.restart_level_j * capacity_factor,
    )


def supercapacitor(capacity_j: float = 0.25, initial_fraction: float = 0.4) -> StorageElement:
    """A small supercapacitor buffer (fast, efficient, leaky).

    The default 0.25 J corresponds to roughly a 100 uF-class ceramic bank or
    a small supercap at the node operating voltage — enough to ride through a
    few seconds of full activity.
    """
    if not 0.0 <= initial_fraction <= 1.0:
        raise ConfigurationError("initial fraction must be in [0, 1]")
    return StorageElement(
        capacity_j=capacity_j,
        initial_charge_j=capacity_j * initial_fraction,
        charge_efficiency=0.97,
        discharge_efficiency=0.92,
        self_discharge_w=0.8e-6,
        minimum_operating_j=capacity_j * 0.05,
        restart_level_j=capacity_j * 0.10,
        name="supercapacitor",
    )


def thin_film_battery(capacity_j: float = 2.5, initial_fraction: float = 0.5) -> StorageElement:
    """A thin-film rechargeable cell (larger, less leaky, less efficient)."""
    if not 0.0 <= initial_fraction <= 1.0:
        raise ConfigurationError("initial fraction must be in [0, 1]")
    return StorageElement(
        capacity_j=capacity_j,
        initial_charge_j=capacity_j * initial_fraction,
        charge_efficiency=0.90,
        discharge_efficiency=0.88,
        self_discharge_w=0.1e-6,
        minimum_operating_j=capacity_j * 0.04,
        restart_level_j=capacity_j * 0.08,
        name="thin-film battery",
    )


# ---------------------------------------------------------------------------
# Vectorized trajectory kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StorageTrajectory:
    """State-of-charge trajectory of one integration window.

    All arrays share the step axis of the inputs; the recorded values are the
    state *after* each step completed (deposit, conditional withdrawal,
    leak), which is exactly what the emulator samples into its log.

    Attributes:
        charge_j: stored energy after each step.
        active: node-active flag after each step (restart hysteresis and
            brown-outs applied).
        banked_j: energy actually stored per step (post-efficiency, clipped
            to the capacity headroom).
        drawn_j: load energy actually delivered per step (the requested load
            where the withdrawal succeeded, zero where the node was inactive
            or browned out).
        attempted: True where the node was active and a withdrawal was
            attempted (whether or not it succeeded).
        withdrew: True where an attempted withdrawal succeeded.
        brownout_events: number of failed withdrawals.
        final_charge_j: stored energy after the last step (``charge_j[-1]``,
            or the initial charge for an empty window).
    """

    charge_j: np.ndarray
    active: np.ndarray
    banked_j: np.ndarray
    drawn_j: np.ndarray
    attempted: np.ndarray
    withdrew: np.ndarray
    brownout_events: int
    final_charge_j: float

    def __len__(self) -> int:
        return len(self.charge_j)


def reference_scan(
    stored,
    required,
    load,
    leak_amounts,
    charge,
    active: bool,
    capacity: float,
    restart: float,
):
    """The authoritative storage ledger recurrence (the ONE copy of the math).

    Inputs are the hoisted per-step quantities prepared by
    :func:`trajectory`; every step applies the shared module-level step
    primitives in the exact order of the mutating :class:`StorageElement`
    replay, so the scan is bitwise identical to stepping the element
    (property-tested).

    Returns ``(charge_out, active_out, banked_out, drawn_out, attempted,
    withdrew, brownout_events, final_charge)``.
    """
    count = len(stored)
    charge_out = np.empty(count)
    active_out = np.empty(count, dtype=bool)
    banked_out = np.empty(count)
    drawn_out = np.zeros(count)
    attempted = np.zeros(count, dtype=bool)
    withdrew = np.zeros(count, dtype=bool)
    brownouts = 0
    for i in range(count):
        if not active and charge >= restart:
            active = True
        charge, banked_out[i] = deposit_step(charge, stored[i], capacity)
        if active:
            attempted[i] = True
            charge, success = withdraw_step(charge, required[i])
            if success:
                withdrew[i] = True
                drawn_out[i] = load[i]
            else:
                active = False
                brownouts += 1
        charge, _loss = leak_step(charge, leak_amounts[i])
        charge_out[i] = charge
        active_out[i] = active
    return (
        charge_out,
        active_out,
        banked_out,
        drawn_out,
        attempted,
        withdrew,
        brownouts,
        charge,
    )


#: First speculative window of a run, in steps; it doubles (up to four
#: times this, which keeps a window's arrays in cache) while whole windows
#: commit, and starts over after a break.
_WINDOW = 1024
#: A window committing fewer steps than this did more numpy work than
#: stepping them would have; two in a row mark an event-dense stretch.
_SHORT_RUN = 16
#: Steps an event-dense stretch hands to :func:`reference_scan` at once.
_DENSE_STEPS = 256


def _first_failure(ok) -> int:
    """Length of the valid prefix of a window's ``ok`` mask."""
    index = int(np.argmin(ok))
    return len(ok) if ok[index] else index


def run_length_scan(
    stored,
    required,
    load,
    leak_amounts,
    charge,
    active: bool,
    capacity: float,
    restart: float,
):
    """:func:`reference_scan`'s recurrence, advanced by stretches.

    Ledger *events* — a deposit clipped at the capacity that does not land
    on it exactly, a failed withdrawal, a leak clipped at the charge, a
    restart — are rare or clustered, and between them the recurrence has a
    closed form per regime:

    * **free** (active, nothing clipped): the charge is a running sum, ONE
      ``np.add.accumulate`` over the interleaved ``[c, s0, -r0, -l0, s1,
      ...]``.  ``accumulate`` adds in sequence and ``x - y`` is ``x + (-y)``
      in IEEE 754, so every partial sum is bitwise the scalar step's;
    * **pinned** (active, every deposit clipped at the capacity): once
      ``pre + (cap - pre) == cap`` is checked the deposit lands exactly on
      the capacity, so each step's charge is ``(cap - r) - l`` on its own;
    * **browned out** (inactive below the restart level): an accumulate of
      ``[c, s, -l]``, until the charge reaches the restart level.

    Each stretch is computed speculatively over a window, checked
    elementwise against the exact comparisons of the step primitives, and
    only its valid prefix is committed.  An event steps through
    :func:`reference_scan` on a one-step slice; after two short windows in
    a row the next :data:`_DENSE_STEPS` steps go to :func:`reference_scan`
    whole, so event-dense ledgers cost about what the plain loop costs.
    The outputs are bitwise those of :func:`reference_scan`
    (property-tested) for a positive capacity, as every
    :class:`StorageElement` has, with the same signature and return tuple.
    """
    # Contiguous copies first: numpy 2.4.6's AVX-512 loops misread a
    # strided input written into a strided output -- np.negative(col,
    # out=buf[::2]) on a column of an (n, 8) float array (64-byte stride)
    # reads the column as if it were contiguous -- and the interleaving
    # below writes into strided outputs.
    stored, required, load, leak_amounts = (
        np.ascontiguousarray(values, dtype=float)
        for values in (stored, required, load, leak_amounts)
    )
    count = len(stored)
    charge_out, banked_out, drawn_out = np.empty(count), np.empty(count), np.zeros(count)
    active_out, attempted, withdrew = (np.zeros(count, dtype=bool) for _ in range(3))
    outputs = (charge_out, active_out, banked_out, drawn_out, attempted, withdrew)
    brownouts = 0
    window = _WINDOW
    short_before = False
    i = 0
    while i < count:
        if not active and charge >= restart:
            active = True
        stop = min(i + window, count)
        s = stored[i:stop]
        leak = leak_amounts[i:stop]
        if not active:
            # Browned out: accumulate [c, s0, -l0, s1, ...] below the restart level.
            x = np.empty(2 * len(s) + 1)
            x[0] = charge
            x[1::2] = s
            np.negative(leak, out=x[2::2])
            np.add.accumulate(x, out=x)
            before = x[0:-1:2]
            ok = before < restart
            ok &= capacity - before >= s
            ok &= leak < x[1::2]
            run = _first_failure(ok)
            after = x[2::2]
            banked_out[i : i + run] = s[:run]
        elif capacity - charge < s[0]:
            # Pinned: every deposit clipped onto the capacity exactly.
            r = required[i:stop]
            drained = capacity - r
            after = drained - leak
            before = np.empty(len(s))
            before[0] = charge
            before[1:] = after[:-1]
            headroom = capacity - before
            ok = headroom < s
            ok &= before + headroom == capacity
            ok &= r <= capacity
            ok &= leak < drained
            run = _first_failure(ok)
            banked_out[i : i + run] = headroom[:run]
        else:
            # Free: accumulate [c, s0, -r0, -l0, s1, ...], nothing clipped.
            r = required[i:stop]
            x = np.empty(3 * len(s) + 1)
            x[0] = charge
            x[1::3] = s
            np.negative(r, out=x[2::3])
            np.negative(leak, out=x[3::3])
            np.add.accumulate(x, out=x)
            ok = capacity - x[0:-1:3] >= s
            ok &= r <= x[1::3]
            ok &= leak < x[2::3]
            run = _first_failure(ok)
            after = x[3::3]
            banked_out[i : i + run] = s[:run]
        if run:
            end = i + run
            charge_out[i:end] = after[:run]
            charge = after[run - 1]
            if active:
                active_out[i:end] = True
                attempted[i:end] = True
                withdrew[i:end] = True
                drawn_out[i:end] = load[i:end]
            i = end
        if run == len(s):
            window = min(2 * window, 4 * _WINDOW)
            continue
        window = _WINDOW
        short = run < _SHORT_RUN
        if short and short_before:
            span = _DENSE_STEPS
            # Probe for the end of the dense stretch with a small window.
            window = _SHORT_RUN
        elif run == 0:
            span = 1
        else:
            span = 0
        short_before = short
        if span:
            end = min(i + span, count)
            *stepped, events, charge = reference_scan(
                *(values[i:end] for values in (stored, required, load, leak_amounts)),
                charge,
                active,
                capacity,
                restart,
            )
            for output, values in zip(outputs, stepped):
                output[i:end] = values
            brownouts += events
            active = bool(active_out[end - 1])
            i = end
    return (*outputs, brownouts, charge)


def trajectory(
    storage: StorageElement,
    harvest_j,
    load_j,
    leak_s,
    initial_charge_j: float | None = None,
    initially_active: bool | None = None,
) -> StorageTrajectory:
    """Pure, array-based replay of the storage ledger over N steps.

    The vectorized counterpart of stepping a :class:`StorageElement` through
    ``deposit(harvest_j[i])`` / ``withdraw(load_j[i])`` / ``leak(leak_s[i])``
    with the emulator's restart-threshold hysteresis: at each step a
    browned-out node restarts when the charge has recovered to
    ``restart_level_j``, an active node draws its load (a shortfall drains
    the element and counts one brown-out), and an inactive node draws
    nothing.  ``storage`` provides the parameters only — its state is
    neither read (beyond defaults) nor mutated.

    The per-step efficiencies are hoisted with the exact expressions the
    mutating methods apply, and the ledger is replayed by
    :func:`run_length_scan`, whose outputs are those of the step primitives
    applied in order, so the trajectory is bitwise identical to the scalar
    replay (property-tested).

    Args:
        storage: parameter source (capacity, efficiencies, thresholds).
        harvest_j: per-step harvested energy at the storage input, ``(N,)``.
        load_j: per-step load energy the node *wants* delivered, ``(N,)``;
            only drawn while the node is active.
        leak_s: per-step self-discharge duration in seconds, ``(N,)`` or a
            scalar broadcast over the window.
        initial_charge_j: starting charge; defaults to the element's
            ``initial_charge_j``.  Only an *explicitly passed* value is
            range-checked here — the default is already validated by
            :meth:`StorageElement.__post_init__`, so tight fleet loops that
            replay the element's own initial charge skip the redundant
            check by passing ``None``.
        initially_active: starting activity; defaults to the brown-out test
            on the starting charge (``charge >= minimum_operating_j``).

    Returns:
        A :class:`StorageTrajectory` with per-step charge/activity/flows.
    """
    harvest = np.asarray(harvest_j, dtype=float)
    load = np.asarray(load_j, dtype=float)
    count = len(harvest)
    leak = np.broadcast_to(np.asarray(leak_s, dtype=float), (count,))
    if len(load) != count:
        raise EmulationError("harvest and load arrays must have the same length")
    if (harvest < 0.0).any():
        raise EmulationError("cannot deposit negative energy")
    if (load < 0.0).any():
        raise EmulationError("cannot withdraw negative energy")
    if (leak < 0.0).any():
        raise EmulationError("duration must be non-negative")

    if initial_charge_j is None:
        # Validated once at element construction; revalidating per call
        # would charge every vehicle of a fleet loop for the same check.
        charge = storage.initial_charge_j
    else:
        charge = float(initial_charge_j)
        if not 0.0 <= charge <= storage.capacity_j:
            raise EmulationError(
                "the initial charge must lie within the storage capacity"
            )
    active = (
        charge >= storage.minimum_operating_j
        if initially_active is None
        else bool(initially_active)
    )
    capacity = storage.capacity_j
    restart = storage.restart_level_j
    # Hoist the per-step conversions out of the scan: these are the exact
    # expressions the scalar methods apply per call, evaluated elementwise.
    stored = harvest * storage.charge_efficiency
    required = load / storage.discharge_efficiency
    leak_amounts = storage.self_discharge_w * leak

    (
        charge_out,
        active_out,
        banked_out,
        drawn_out,
        attempted,
        withdrew,
        brownouts,
        final_charge,
    ) = run_length_scan(
        stored, required, load, leak_amounts, charge, active, capacity, restart
    )
    return StorageTrajectory(
        charge_j=charge_out,
        active=active_out,
        banked_j=banked_out,
        drawn_j=drawn_out,
        attempted=attempted,
        withdrew=withdrew,
        brownout_events=int(brownouts),
        final_charge_j=float(final_charge),
    )
