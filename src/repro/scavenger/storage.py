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
:class:`StorageElement`.  ``emulate()`` and every fleet vehicle go
through this one scan.  The load and leak side of a
ledger (:class:`LedgerDemand`) is computed once by :func:`ledger_demand`
and may be shared by many scans, such as a fleet cohort's vehicles; a scan
that commits every step through the free branch says so (``free``), so
its caller can take the ledger's totals from constants.
:func:`certify_free` decides the same without a scan, from prefix sums of
the harvest and the demand and a margin that covers the scan's rounding;
the fleet tries it before scanning a vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError, EmulationError

# ---------------------------------------------------------------------------
# Ledger step primitives
#
# The charge/discharge/leak arithmetic is defined ONCE here and shared by
# two consumers: the mutating :class:`StorageElement` methods (the scalar,
# authoritative reference) and :func:`reference_scan` behind the pure
# :func:`trajectory` kernel, the one integrator of ``emulate()`` and the
# fleet; :func:`run_length_scan` applies the same comparisons and
# operations elementwise over whole stretches.  Keeping them single-sourced
# is what makes the emulator's byte-identity contract cheap to maintain — a
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


def scaled_levels(
    storage: StorageElement, capacity_factor: float
) -> tuple[float, float, float, float]:
    """``storage``'s capacity, initial charge, minimum and restart level, scaled.

    The four levels :func:`scaled_storage` gives its copy, for callers that
    need the levels without an element (a fleet vehicle whose ledger is
    certified free is never scanned).  Raises what :func:`scaled_storage`
    raises for a factor that is not positive, or that scales the capacity
    down to zero.
    """
    if capacity_factor <= 0.0:
        raise ConfigurationError("storage capacity factor must be positive")
    levels = (
        storage.capacity_j,
        storage.initial_charge_j,
        storage.minimum_operating_j,
        storage.restart_level_j,
    )
    if capacity_factor == 1.0:
        return levels
    capacity, initial, minimum, restart = (level * capacity_factor for level in levels)
    if capacity <= 0.0:
        raise ConfigurationError("storage capacity must be positive")
    return capacity, initial, minimum, restart


def scaled_storage(storage: StorageElement, capacity_factor: float) -> StorageElement:
    """A copy of ``storage`` with its capacity scaled by ``capacity_factor``.

    Capacity, initial charge, brown-out threshold and restart level all
    scale together (:func:`scaled_levels`), so every validity invariant
    (initial charge within capacity, restart above minimum) is preserved by
    construction.  This is the fleet runner's manufacturing-tolerance axis
    on storage capacity.
    """
    capacity, initial, minimum, restart = scaled_levels(storage, capacity_factor)
    return replace(
        storage,
        capacity_j=capacity,
        initial_charge_j=initial,
        minimum_operating_j=minimum,
        restart_level_j=restart,
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
        free: True when the node was active from the start and no step had
            an event (a clipped deposit, a failed withdrawal, a leak that
            took the whole charge): every step banked its stored energy and
            drew its load.  ``banked_j`` and ``drawn_j`` are then the scan's
            stored-energy and load arrays and the three flag arrays are one
            shared read-only all-true array.
    """

    charge_j: np.ndarray
    active: np.ndarray
    banked_j: np.ndarray
    drawn_j: np.ndarray
    attempted: np.ndarray
    withdrew: np.ndarray
    brownout_events: int
    final_charge_j: float
    free: bool

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
#: The float64 machine epsilon, twice the unit roundoff ``u``.
_EPS = float(np.finfo(float).eps)


def _first_failure(ok) -> int:
    """Length of the valid prefix of a window's ``ok`` mask."""
    index = int(np.argmin(ok))
    return len(ok) if ok[index] else index


def _free_prefix(charge_out, stored, load, steps: int) -> tuple:
    """A scan's six outputs, the first ``steps`` committed through the free branch.

    Those steps were active, banked their stored energy and drew their load.
    """
    count = len(stored)
    banked_out, drawn_out = np.empty(count), np.zeros(count)
    banked_out[:steps] = stored[:steps]
    drawn_out[:steps] = load[:steps]
    active_out, attempted, withdrew = (np.zeros(count, dtype=bool) for _ in range(3))
    for flags in (active_out, attempted, withdrew):
        flags[:steps] = True
    return charge_out, active_out, banked_out, drawn_out, attempted, withdrew


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
    :class:`StorageElement` has, with the same signature; a ninth value,
    ``free``, certifies a ledger that was active from the start and
    committed every step through the free branch.  Such a scan fills only
    the charge: its banked and drawn outputs are the (contiguous) ``stored``
    and ``load`` inputs, and its three flag outputs one read-only all-true
    array.  A ledger that leaves the free branch fills the other outputs
    from there on, after writing what the free prefix committed.
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
    charge_out = np.empty(count)
    # The other five outputs exist only once the ledger leaves the free branch.
    free = bool(active)
    outputs = None if free else _free_prefix(charge_out, stored, load, 0)
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
        pinned = active and capacity - charge < s[0]
        if free and pinned:
            outputs = _free_prefix(charge_out, stored, load, i)
            free = False
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
            banked = s
        elif pinned:
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
            banked = headroom
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
            banked = s
        if run:
            end = i + run
            charge_out[i:end] = after[:run]
            charge = after[run - 1]
            if outputs is not None:
                _charge_out, active_out, banked_out, drawn_out, attempted, withdrew = outputs
                banked_out[i:end] = banked[:run]
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
            if free:
                outputs = _free_prefix(charge_out, stored, load, i)
                free = False
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
            active = bool(stepped[1][-1])
            i = end
    if free:
        flags = np.ones(count, dtype=bool)
        flags.setflags(write=False)
        return charge_out, flags, stored, load, flags, flags, 0, charge, True
    return (*outputs, brownouts, charge, False)


def certify_free(
    harvest_prefix,
    gain: float,
    demand_prefix,
    charge: float,
    active: bool,
    capacity: float,
) -> bool:
    """Decide, without scanning, that :func:`run_length_scan` would return ``free``.

    The ledger is the one :func:`trajectory` scans when the stored energy
    is ``(factor * unit) * charge_efficiency`` per step, with ``gain =
    factor * charge_efficiency``: ``harvest_prefix`` is the inclusive prefix
    sum ``U`` of the per-step ``unit`` harvest (``n`` steps),
    ``demand_prefix`` the exclusive prefix sum ``D`` of ``required + leak``
    (``n + 1`` values, ``D[0] == 0``), ``charge`` the initial charge and
    ``active`` whether the ledger starts active.  Every term must be
    non-negative.  ``True`` means the scan takes no event: it starts
    active, clips no deposit, fails no withdrawal and no leak takes the
    whole charge.  ``False`` decides nothing; the caller scans.

    **The bound.**  In exact arithmetic over the scan's own inputs the
    charge before step ``k``'s deposit is ``P_k = c + S_k - D[k]`` (``S_k``
    the stored energies before ``k``).  The scan forms it by recursive
    summation of ``3k + 1`` non-negative-magnitude terms, so its float
    charges before the deposit, after it and after the withdrawal are all
    within ``gamma_{3n} * T`` of the exact ones (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 4.2; ``gamma_m = m
    u / (1 - m u)``, ``T`` the sum of the terms' magnitudes).  The
    certificate's ``fl(gain * U[k])`` is within ``gamma_{k+4}`` (relative)
    of the stored energies' exact sum up to ``k`` (the two roundings of each
    stored energy, the prefix's ``k`` and the gain's and product's), and
    ``D`` within ``gamma_{k+1}`` of the exact demand sum.  The comparisons
    below add a few roundings of magnitude at most ``u * M``, ``M = capacity
    + c + gain * U[-1] + D[-1]``, which also bounds ``T`` up to ``1 +
    gamma_{n+4}``.  All told the certificate's expressions are within
    ``(4n + 8) u * M`` of the scan's, and ``delta = kappa * M`` with
    ``kappa = (4n + 64) eps = (8n + 128) u`` covers that twice.
    With that margin, every step ``k``:

    * ``c + max_k(gain * U[k] - D[k]) + delta <= capacity`` puts the scan's
      charge after each deposit at or below the capacity in exact
      arithmetic, so its float headroom ``capacity - charge`` is at least
      the stored energy: rounding is monotone and the stored energy is a
      float.  No deposit clips;
    * ``c - delta > max_k(D[k + 1] - gain * U[k])`` puts the scan's float
      charge after each withdrawal strictly above that step's leak: no leak
      takes the whole charge, and since the leak is non-negative that
      charge is positive, so no withdrawal failed either.

    Starting active, a ledger with no failed withdrawal never browns out, so
    it never restarts.  NaN or infinite inputs fail a comparison and decide
    nothing.  The cost is a handful of elementwise passes with no
    loop-carried dependency, where the scan's accumulate is one chain.
    """
    if not active:
        return False
    count = len(harvest_prefix)
    if count == 0:
        return True
    banked = harvest_prefix * gain
    scale = capacity + charge + float(banked[-1]) + float(demand_prefix[-1])
    delta = (4 * count + 64) * _EPS * scale
    margin = banked - demand_prefix[:-1]
    if not charge + float(np.maximum.reduce(margin)) + delta <= capacity:
        return False
    np.subtract(demand_prefix[1:], banked, out=margin)
    return charge - delta > float(np.maximum.reduce(margin))


@dataclass(frozen=True, eq=False)
class LedgerLeak:
    """The self-discharge side of a ledger over fixed step durations.

    It depends only on the durations and the element's self-discharge
    power, so every ledger over one drive-cycle walk shares it.  ``amounts``
    is ``self_discharge_w * durations`` (read-only); ``valid_steps`` counts
    the steps before the first negative duration, which a scan that
    reaches it rejects.
    """

    self_discharge_w: float
    amounts: np.ndarray
    valid_steps: int

    def __len__(self) -> int:
        return len(self.amounts)


@dataclass(frozen=True, eq=False)
class LedgerDemand:
    """The harvest-independent side of a ledger: its load and its leak.

    Everything :func:`trajectory` derives from the load and the step
    durations, hoisted with the exact expressions the mutating methods
    apply: ``required`` is ``load / discharge_efficiency``.  It is shared by
    every ledger with the same load, durations and element efficiencies,
    such as a fleet cohort's vehicles, whose scaled storage elements differ
    in capacity and thresholds only.  ``negative_load`` records the check
    that :func:`trajectory` raises on, so a hoisted demand raises at the
    scan, as an unhoisted one would.  Arrays are read-only.
    """

    discharge_efficiency: float
    load: np.ndarray
    required: np.ndarray
    negative_load: bool
    leak: LedgerLeak

    def __len__(self) -> int:
        return len(self.load)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def ledger_leak(storage: StorageElement, durations_s) -> LedgerLeak:
    """The leak side of ``storage``'s ledgers over per-step ``durations_s``."""
    durations = np.asarray(durations_s, dtype=float)
    negative = durations < 0.0
    return LedgerLeak(
        storage.self_discharge_w,
        _read_only(storage.self_discharge_w * durations),
        int(np.argmax(negative)) if negative.any() else len(durations),
    )


def ledger_demand(storage: StorageElement, load_j, leak_s) -> LedgerDemand:
    """The demand side of ``storage``'s ledgers over the per-step ``load_j``.

    ``leak_s`` is the per-step self-discharge duration in seconds, ``(N,)``
    or a scalar broadcast over the steps, or a :class:`LedgerLeak` of at
    least ``N`` steps (its first ``N`` are used), which lets ledgers that
    share their durations share their leak side.
    """
    load = np.ascontiguousarray(load_j, dtype=float)
    count = len(load)
    if isinstance(leak_s, LedgerLeak):
        if leak_s.self_discharge_w != storage.self_discharge_w:
            raise EmulationError("the leak was computed for another self-discharge power")
        if len(leak_s) < count:
            raise EmulationError("the leak covers fewer steps than the load")
        leak = leak_s
        if len(leak) > count:
            leak = LedgerLeak(
                leak.self_discharge_w, leak.amounts[:count], min(leak.valid_steps, count)
            )
    else:
        leak = ledger_leak(storage, np.broadcast_to(np.asarray(leak_s, dtype=float), (count,)))
    return LedgerDemand(
        storage.discharge_efficiency,
        _read_only(load.view()),
        _read_only(load / storage.discharge_efficiency),
        bool((load < 0.0).any()),
        leak,
    )


def trajectory(
    storage: StorageElement,
    harvest_j,
    demand: LedgerDemand,
) -> StorageTrajectory:
    """Pure, array-based replay of the storage ledger over N steps.

    The vectorized counterpart of stepping a :class:`StorageElement` through
    ``deposit(harvest_j[i])`` / ``withdraw(load_j[i])`` / ``leak(leak_s[i])``
    with the emulator's restart-threshold hysteresis: at each step a
    browned-out node restarts when the charge has recovered to
    ``restart_level_j``, an active node draws its load (a shortfall drains
    the element and counts one brown-out), and an inactive node draws
    nothing.  ``storage`` provides the parameters and the starting point
    only — the replay starts from its (construction-validated)
    ``initial_charge_j``, active unless that is below
    ``minimum_operating_j`` — and its state is neither read nor mutated.

    The load and leak come hoisted in ``demand`` (:func:`ledger_demand`),
    which many ledgers may share; the harvest's charge efficiency is applied
    here.  Both use the exact expressions the mutating methods apply, and
    the ledger is replayed by :func:`run_length_scan`, whose outputs are
    those of the step primitives applied in order, so the trajectory is
    bitwise identical to the scalar replay (property-tested).  A ledger
    the scan certifies free comes back with ``free`` set; its ``drawn_j``
    is then ``demand.load`` itself.

    Args:
        storage: parameter source (capacity, efficiencies, thresholds); its
            discharge efficiency and self-discharge power must be those
            ``demand`` was built with.
        harvest_j: per-step harvested energy at the storage input, ``(N,)``.
        demand: the per-step load the node *wants* delivered (only drawn
            while the node is active) and the self-discharge, ``N`` steps.

    Returns:
        A :class:`StorageTrajectory` with per-step charge/activity/flows.
    """
    harvest = np.asarray(harvest_j, dtype=float)
    if len(demand) != len(harvest):
        raise EmulationError("harvest and load arrays must have the same length")
    if (
        demand.discharge_efficiency != storage.discharge_efficiency
        or demand.leak.self_discharge_w != storage.self_discharge_w
    ):
        raise EmulationError("the ledger demand was hoisted for another storage element")
    if (harvest < 0.0).any():
        raise EmulationError("cannot deposit negative energy")
    if demand.negative_load:
        raise EmulationError("cannot withdraw negative energy")
    if demand.leak.valid_steps < len(harvest):
        raise EmulationError("duration must be non-negative")

    (
        charge_out,
        active_out,
        banked_out,
        drawn_out,
        attempted,
        withdrew,
        brownouts,
        final_charge,
        free,
    ) = run_length_scan(
        harvest * storage.charge_efficiency,
        demand.required,
        demand.load,
        demand.leak.amounts,
        storage.initial_charge_j,
        storage.initial_charge_j >= storage.minimum_operating_j,
        storage.capacity_j,
        storage.restart_level_j,
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
        free=free,
    )
