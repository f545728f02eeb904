"""Property-based tests (hypothesis) for the storage ledger.

The mutating :class:`StorageElement` is the scalar reference for the energy
bookkeeping; the pure :func:`repro.scavenger.storage.trajectory` kernel must
replay it bit for bit.  Properties covered: the charge never leaves
``[0, capacity]``, ``deposit`` reports exactly what fit (the overflow is the
exact complement), ``withdraw`` is atomic (full success, or a drain-to-zero
brown-out — never a partial withdrawal that reports success), the
trajectory kernel equals a step-by-step scalar replay including the restart
hysteresis, and the run-length scan behind the kernel equals
``reference_scan`` and the stepped element on long, regime-rich ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scavenger.storage as storage_module
from repro.scavenger.storage import (
    StorageElement,
    certify_free,
    deposit_step,
    leak_step,
    ledger_demand,
    reference_scan,
    run_length_scan,
    scaled_levels,
    scaled_storage,
    trajectory,
    withdraw_step,
)

energies = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def hoisted_trajectory(storage, harvest_j, load_j, leak_s):
    """``trajectory`` over the demand hoisted from ``load_j`` and ``leak_s``."""
    return trajectory(storage, harvest_j, ledger_demand(storage, load_j, leak_s))
durations = st.floats(min_value=0.0, max_value=3600.0, allow_nan=False)


def make_storage(initial_fraction: float = 0.5) -> StorageElement:
    return StorageElement(
        capacity_j=0.5,
        initial_charge_j=0.5 * initial_fraction,
        charge_efficiency=0.95,
        discharge_efficiency=0.90,
        self_discharge_w=1e-5,
        minimum_operating_j=0.02,
        restart_level_j=0.05,
    )


# Mixed op streams: (kind, amount) with kind 0=deposit, 1=withdraw, 2=leak.
operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), energies), max_size=60
)


class TestLedgerInvariants:
    @given(ops=operations)
    @settings(max_examples=200)
    def test_charge_always_within_bounds(self, ops):
        storage = make_storage()
        for kind, amount in ops:
            if kind == 0:
                storage.deposit(amount)
            elif kind == 1:
                storage.withdraw(amount)
            else:
                storage.leak(amount * 100.0)
            assert 0.0 <= storage.charge_j <= storage.capacity_j

    @given(initial=st.floats(min_value=0.0, max_value=1.0), energy=energies)
    def test_deposit_returns_exactly_what_fit(self, initial, energy):
        storage = make_storage(initial_fraction=initial)
        before = storage.charge_j
        banked = storage.deposit(energy)
        # The banked amount is exactly the post-efficiency energy clipped to
        # the headroom, and the charge moves by exactly that amount — so the
        # overflow (what the deposit did NOT return) is exact by
        # construction.
        assert banked == min(energy * storage.charge_efficiency, 0.5 - before)
        assert storage.charge_j == before + banked
        assert energy * storage.charge_efficiency - banked >= 0.0

    @given(initial=st.floats(min_value=0.0, max_value=1.0), energy=energies)
    def test_withdraw_is_atomic(self, initial, energy):
        storage = make_storage(initial_fraction=initial)
        before = storage.charge_j
        required = energy / storage.discharge_efficiency
        success = storage.withdraw(energy)
        if success:
            # Full withdrawal: the charge drops by exactly the required
            # amount, never by part of it.
            assert required <= before
            assert storage.charge_j == before - required
        else:
            # Shortfall: brown-out semantics, the element drains to zero.
            assert required > before
            assert storage.charge_j == 0.0

    @given(initial=st.floats(min_value=0.0, max_value=1.0), duration=durations)
    def test_leak_never_overdraws(self, initial, duration):
        storage = make_storage(initial_fraction=initial)
        before = storage.charge_j
        loss = storage.leak(duration)
        assert loss == min(before, storage.self_discharge_w * duration)
        assert storage.charge_j == before - loss


harvest_arrays = st.lists(
    st.floats(min_value=0.0, max_value=5e-4), min_size=0, max_size=80
)
load_arrays = st.lists(st.floats(min_value=0.0, max_value=5e-4), min_size=0, max_size=80)


class TestTrajectoryEqualsScalarReplay:
    @given(
        harvest=harvest_arrays,
        load=load_arrays,
        leak_s=st.floats(min_value=0.0, max_value=10.0),
        initial=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_trajectory_replays_the_mutating_element_bit_for_bit(
        self, harvest, load, leak_s, initial
    ):
        count = min(len(harvest), len(load))
        harvest, load = harvest[:count], load[:count]
        storage = make_storage(initial_fraction=initial)
        traj = hoisted_trajectory(storage, harvest, load, leak_s)

        # Scalar replay: the emulator's step semantics spelled out with the
        # reference StorageElement methods.
        replay = make_storage(initial_fraction=initial)
        active = not replay.is_depleted
        brownouts = 0
        for i in range(count):
            if not active and replay.can_restart:
                active = True
            banked = replay.deposit(harvest[i])
            assert banked == traj.banked_j[i]
            if active:
                assert traj.attempted[i]
                if replay.withdraw(load[i]):
                    assert traj.withdrew[i]
                    assert traj.drawn_j[i] == load[i]
                else:
                    active = False
                    brownouts += 1
                    assert not traj.withdrew[i]
                    assert traj.drawn_j[i] == 0.0
            else:
                assert not traj.attempted[i]
            replay.leak(leak_s)
            assert traj.charge_j[i] == replay.charge_j
            assert bool(traj.active[i]) == active
        assert traj.brownout_events == brownouts
        assert traj.final_charge_j == replay.charge_j
        assert len(traj) == count

    @given(harvest=harvest_arrays)
    def test_trajectory_charge_stays_within_bounds(self, harvest):
        storage = make_storage()
        traj = hoisted_trajectory(storage, harvest, np.zeros(len(harvest)), 1.0)
        assert np.all(traj.charge_j >= 0.0)
        assert np.all(traj.charge_j <= storage.capacity_j)

    def test_mismatched_lengths_rejected(self):
        import pytest

        from repro.errors import EmulationError

        with pytest.raises(EmulationError):
            hoisted_trajectory(make_storage(), [1e-6, 1e-6], [1e-6], 1.0)

    def test_negative_inputs_rejected(self):
        import pytest

        from repro.errors import EmulationError

        storage = make_storage()
        with pytest.raises(EmulationError):
            hoisted_trajectory(storage, [-1e-9], [0.0], 1.0)
        with pytest.raises(EmulationError):
            hoisted_trajectory(storage, [0.0], [-1e-9], 1.0)
        with pytest.raises(EmulationError):
            hoisted_trajectory(storage, [0.0], [0.0], -1.0)

    def test_element_state_is_untouched(self):
        storage = make_storage()
        before = storage.charge_j
        hoisted_trajectory(storage, [1e-4] * 5, [2e-4] * 5, 1.0)
        assert storage.charge_j == before

    def test_a_depleted_element_starts_inactive(self):
        storage = make_storage(initial_fraction=0.02)  # below the operating minimum
        small = np.full(5, 1e-6)
        traj = hoisted_trajectory(storage, small, small, small)
        assert not traj.active.any() and not traj.attempted.any()
        assert not traj.free and traj.brownout_events == 0
        expected = reference_scan(*hoisted_scan(storage, small, small, small, False))
        for got, want in zip((traj.charge_j, traj.active, traj.banked_j), expected[:3]):
            assert _bits(got) == _bits(want)

    def test_starts_from_the_initial_charge_not_the_current_one(self):
        storage = make_storage()
        harvest, load = np.full(5, 1e-4), np.full(5, 2e-4)
        before = hoisted_trajectory(storage, harvest, load, 1.0)
        storage.withdraw(storage.capacity_j)  # a brown-out drains the element
        assert storage.is_depleted
        after = hoisted_trajectory(storage, harvest, load, 1.0)
        assert after.active.all()
        assert _bits(after.charge_j) == _bits(before.charge_j)
        assert after.final_charge_j == before.final_charge_j


# ---------------------------------------------------------------------------
# run_length_scan == reference_scan == the stepped element, bit for bit, on
# ledgers built from runs of the regimes the scan advances by stretches.
# ---------------------------------------------------------------------------

STRETCHES = ("free", "pinned", "browned-out", "drained", "restart")


def _build_ledger(storage, stretches, rng, negative_zero):
    """Per-step harvest, load and leak durations realizing ``stretches``.

    Each step's amounts are chosen against the ledger state a scalar model
    (the step primitives) tracks while building, so every stretch lands in
    its regime: free steps, deposits clipped at the capacity, brown-outs
    and recovery below the restart level, a drained element whose leak is
    clipped on every step, and a deposit of exactly the restart level onto
    an empty element.  Ties are planted on purpose: ``headroom == stored``,
    ``leak == charge`` and ``-0.0`` harvest (exact when the efficiencies
    and the self-discharge power are 1).
    """
    cap = storage.capacity_j
    restart = storage.restart_level_j
    charge_eff = storage.charge_efficiency
    discharge_eff = storage.discharge_efficiency
    leak_w = storage.self_discharge_w
    charge = storage.initial_charge_j
    active = charge >= storage.minimum_operating_j
    harvest, load, durations = [], [], []
    for kind, length in stretches:
        for step in range(length):
            headroom = cap - charge
            leak = 1e-6 * cap * rng.random()
            if kind == "free":
                stored = min(0.002 * cap * rng.random(), headroom)
                if rng.random() < 0.05:
                    stored = headroom
                required = (charge + stored) * rng.random() * 0.01
                if rng.random() < 0.02:  # drained exactly, or short
                    required = (charge + stored) * rng.choice([1.0, 1.5])
            elif kind == "pinned":
                stored = headroom + 0.05 * cap * rng.random()
                required = 0.01 * cap * rng.random()
                if rng.random() < 0.02:  # drained to zero from the capacity
                    required = cap
            elif kind == "browned-out":
                stored = 1e-4 * cap * rng.random()
                required = 2.0 * cap if step == 0 else 0.01 * cap * rng.random()
            elif kind == "drained":
                stored = 1e-6 * cap * rng.random()
                required = 2.0 * cap
                leak = stored + 1e-6 * cap * rng.random()
                if rng.random() < 0.3:
                    leak = charge + stored
            else:  # restart: drain to exactly zero, deposit the restart level
                stored = (0.0, restart)[step] if step < 2 else 0.001 * cap * rng.random()
                required = 2.0 * cap if step == 0 else 0.001 * cap * rng.random()
                leak = 0.0 if step == 1 else leak
            if step == 0 and kind == "restart":
                leak = cap  # clipped at the charge: the element empties
            if negative_zero and stored == 0.0:
                stored = -0.0
            harvest_j = stored / charge_eff if charge_eff != 1.0 else stored
            load_j = required * discharge_eff if discharge_eff != 1.0 else required
            duration = leak / leak_w if leak_w != 1.0 else leak
            harvest.append(harvest_j)
            load.append(load_j)
            durations.append(duration)
            # Advance the model on the hoisted amounts the kernel will see.
            if not active and charge >= restart:
                active = True
            charge, _banked = deposit_step(charge, harvest_j * charge_eff, cap)
            if active:
                charge, active = withdraw_step(charge, load_j / discharge_eff)
            charge, _loss = leak_step(charge, leak_w * duration)
    return np.array(harvest), np.array(load), np.array(durations)


@st.composite
def regime_ledgers(draw, max_length=400):
    # Arbitrary capacities too: a clip from a low charge then misses the
    # capacity by an ulp now and again (pre + (cap - pre) != cap).
    capacity = draw(st.sampled_from([0.05, 0.25, 1.0]) | st.floats(0.01, 3.0))
    restart = capacity * draw(st.sampled_from([0.0, 0.1, 0.4]) | st.floats(0.0, 1.0))
    unit = draw(st.booleans())
    storage = StorageElement(
        capacity_j=capacity,
        initial_charge_j=capacity
        * draw(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)),
        charge_efficiency=1.0 if unit else 0.95,
        discharge_efficiency=1.0 if unit else 0.9,
        self_discharge_w=1.0 if unit else 0.8e-6,
        minimum_operating_j=restart * draw(st.sampled_from([0.0, 0.5, 1.0])),
        restart_level_j=restart,
    )
    stretches = draw(
        st.lists(
            st.tuples(st.sampled_from(STRETCHES), st.integers(1, max_length)),
            min_size=1,
            max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    harvest, load, durations = _build_ledger(storage, stretches, rng, draw(st.booleans()))
    return storage, harvest, load, durations, draw(st.none() | st.booleans())


def _bits(value) -> bytes:
    return np.ascontiguousarray(value).tobytes()


def _element_replay(storage, harvest, load, durations, initially_active):
    """The 8 scan outputs from stepping a fresh copy of the element."""
    element = StorageElement(
        capacity_j=storage.capacity_j,
        initial_charge_j=storage.initial_charge_j,
        charge_efficiency=storage.charge_efficiency,
        discharge_efficiency=storage.discharge_efficiency,
        self_discharge_w=storage.self_discharge_w,
        minimum_operating_j=storage.minimum_operating_j,
        restart_level_j=storage.restart_level_j,
    )
    count = len(harvest)
    outputs = (
        np.empty(count),
        np.empty(count, dtype=bool),
        np.empty(count),
        np.zeros(count),
        np.zeros(count, dtype=bool),
        np.zeros(count, dtype=bool),
    )
    charge_out, active_out, banked_out, drawn_out, attempted, withdrew = outputs
    active = not element.is_depleted if initially_active is None else initially_active
    brownouts = 0
    for i in range(count):
        if not active and element.can_restart:
            active = True
        banked_out[i] = element.deposit(harvest[i])
        if active:
            attempted[i] = True
            if element.withdraw(load[i]):
                withdrew[i] = True
                drawn_out[i] = load[i]
            else:
                active = False
                brownouts += 1
        element.leak(durations[i])
        charge_out[i] = element.charge_j
        active_out[i] = active
    return (*outputs, brownouts, element.charge_j)


def _takes_no_event(stored, required, leak, charge, active, capacity) -> bool:
    """True when the recurrence from an active start clips nothing and never fails.

    An event is a deposit past the headroom, a withdrawal past the charge or
    a leak that takes the whole charge (``leak >= charge``); with none, the
    node stays active, so it never restarts.
    """
    if not active:
        return False
    for s, r, leak_j in zip(stored.tolist(), required.tolist(), leak.tolist()):
        if s > capacity - charge:
            return False
        charge += s
        if r > charge:
            return False
        charge -= r
        if leak_j >= charge:
            return False
        charge -= leak_j
    return True


def hoisted_scan(storage, harvest, load, durations, initially_active) -> tuple:
    """The scan inputs of ``storage``'s ledger, from its initial charge.

    ``initially_active`` overrides the starting activity, which
    :func:`trajectory` always takes from the brown-out test on the initial
    charge (``None``).
    """
    return (
        harvest * storage.charge_efficiency,
        load / storage.discharge_efficiency,
        load,
        storage.self_discharge_w * durations,
        storage.initial_charge_j,
        storage.initial_charge_j >= storage.minimum_operating_j
        if initially_active is None
        else initially_active,
        storage.capacity_j,
        storage.restart_level_j,
    )


def assert_scans_agree(storage, harvest, load, durations, initially_active) -> bool:
    """Every scan's outputs are ``reference_scan``'s; the free flag is "no event".

    The :func:`trajectory` kernel joins the comparison when the ledger
    starts at the element's own activity (always when ``initially_active``
    is ``None``).  Returns whether the ledger is free.
    """
    hoisted = hoisted_scan(storage, harvest, load, durations, initially_active)
    expected = reference_scan(*hoisted)
    stored, required, _load, leak, charge, active, capacity, _restart = hoisted
    free = _takes_no_event(stored, required, leak, charge, active, capacity)
    scanned = run_length_scan(*hoisted)
    stepped = _element_replay(storage, harvest, load, durations, initially_active)
    compared = [scanned, stepped]
    if active == (charge >= storage.minimum_operating_j):
        demand = ledger_demand(storage, load, durations)
        traj = trajectory(storage, harvest, demand)
        compared.append(
            (
                traj.charge_j,
                traj.active,
                traj.banked_j,
                traj.drawn_j,
                traj.attempted,
                traj.withdrew,
                traj.brownout_events,
                traj.final_charge_j,
            )
        )
        assert traj.free is free
        if free:
            assert traj.drawn_j is demand.load
            assert not traj.withdrew.flags.writeable
    for outputs in compared:
        for got, want in zip(outputs[:6], expected[:6]):
            assert _bits(got) == _bits(want)
        assert outputs[6] == expected[6]
        assert _bits(np.float64(outputs[7])) == _bits(np.float64(expected[7]))
    assert scanned[8] is free
    return free


class TestRunLengthScanEqualsReference:
    @given(ledger=regime_ledgers())
    @settings(max_examples=120, deadline=None)
    def test_regime_rich_ledgers(self, ledger):
        assert_scans_agree(*ledger)

    @given(ledger=regime_ledgers(max_length=40))
    @settings(max_examples=120, deadline=None)
    def test_every_transition_with_small_windows(self, ledger):
        # Windows, short runs and dense stretches of a few steps, so every
        # regime change, window break and hand-over happens many times.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage_module, "_WINDOW", 2)
            patch.setattr(storage_module, "_SHORT_RUN", 2)
            patch.setattr(storage_module, "_DENSE_STEPS", 3)
            assert_scans_agree(*ledger)

    def test_zero_steps(self):
        outputs = run_length_scan(
            np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), 0.1, True, 0.25, 0.05
        )
        assert [len(output) for output in outputs[:6]] == [0] * 6
        assert outputs[6] == 0
        assert outputs[7] == 0.1

    def test_planted_ties(self):
        # headroom == stored, leak == charge, -0.0 harvest and a zero restart
        # level, one after the other on a unit-efficiency element.
        storage = StorageElement(
            capacity_j=0.25,
            initial_charge_j=0.2,
            charge_efficiency=1.0,
            discharge_efficiency=1.0,
            self_discharge_w=1.0,
            minimum_operating_j=0.0,
            restart_level_j=0.0,
        )
        headroom = 0.25 - 0.2
        harvest = np.array([headroom, 0.0, -0.0, -0.0, 0.01, 0.0])
        load = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        after_first = 0.2 + headroom
        durations = np.array([0.0, after_first, 0.0, 0.0, 0.01, 0.0])
        assert_scans_agree(storage, harvest, load, durations, None)
        traj = hoisted_trajectory(storage, harvest, load, durations)
        assert traj.banked_j[0] == headroom
        assert traj.charge_j[1] == 0.0
        assert traj.brownout_events == 1
        assert traj.active[3]

    def test_leak_equal_to_a_negative_zero_charge(self):
        # -0.0 + -0.0 - 0.0 leaves -0.0; the leak then equals the charge and
        # the clipped step yields +0.0, where -0.0 - 0.0 would keep -0.0.
        storage = StorageElement(
            capacity_j=0.25,
            initial_charge_j=-0.0,
            charge_efficiency=1.0,
            discharge_efficiency=1.0,
            self_discharge_w=1.0,
            minimum_operating_j=0.0,
            restart_level_j=0.0,
        )
        zeros = np.zeros(3)
        assert_scans_agree(storage, -zeros, zeros, zeros, True)
        assert not np.signbit(hoisted_trajectory(storage, -zeros, zeros, zeros).charge_j).any()

    def test_clip_that_misses_the_capacity_by_an_ulp(self):
        # From this charge, pre + (cap - pre) rounds one ulp below the
        # capacity: the deposit is an event, not a pinned step.
        capacity, charge = 1.5403466578537677, 0.4186433186567379
        assert charge + (capacity - charge) != capacity
        storage = StorageElement(
            capacity_j=capacity,
            initial_charge_j=charge,
            charge_efficiency=1.0,
            discharge_efficiency=1.0,
            self_discharge_w=1.0,
            minimum_operating_j=0.0,
            restart_level_j=0.0,
        )
        harvest = np.full(4, 2.0)
        small = np.full(4, 1e-3)
        assert_scans_agree(storage, harvest, small, small, True)
        traj = hoisted_trajectory(storage, harvest, small, small)
        assert traj.charge_j[0] == ((charge + (capacity - charge)) - 1e-3) - 1e-3


class TestStridedColumnInputs:
    """numpy 2.4's AVX-512 loops misread strided columns written into strided
    outputs (a column of an ``(n, 8)`` array); the scan copies its inputs."""

    @pytest.mark.parametrize("width", [2, 8, 16, 64])
    def test_column_views_match_reference_scan(self, width):
        rng = np.random.default_rng(width)
        steps = 600
        stored = rng.uniform(0.0, 4e-4, (steps, width)) * (rng.random((steps, width)) < 0.6)
        load = rng.uniform(0.0, 3e-4, (steps, width))
        required = load / 0.92
        leak = 0.8e-6 * rng.uniform(0.05, 1.0, (steps, width))
        for column in range(width):
            views = (stored[:, column], required[:, column], load[:, column], leak[:, column])
            expected = reference_scan(
                *(np.array(view) for view in views), 0.1, column % 2 == 0, 0.25, 0.02
            )
            outputs = run_length_scan(*views, 0.1, column % 2 == 0, 0.25, 0.02)
            for got, want in zip(outputs[:6], expected[:6]):
                assert _bits(got) == _bits(want)
            assert outputs[6] == expected[6]
            assert _bits(np.float64(outputs[7])) == _bits(np.float64(expected[7]))

    def test_trajectory_accepts_column_views(self):
        storage = make_storage()
        rng = np.random.default_rng(3)
        table = rng.uniform(0.0, 1e-4, (300, 8))
        traj = hoisted_trajectory(storage, table[:, 1], table[:, 2], table[:, 3] * 10.0)
        copy = hoisted_trajectory(
            storage, np.array(table[:, 1]), np.array(table[:, 2]), np.array(table[:, 3]) * 10.0
        )
        assert _bits(traj.charge_j) == _bits(copy.charge_j)
        assert _bits(traj.drawn_j) == _bits(copy.drawn_j)


# ---------------------------------------------------------------------------
# The free certificate: a scan flags a ledger free exactly when the
# reference recurrence takes no event, with the demand hoisted.
# ---------------------------------------------------------------------------

#: What a boundary plant pins on one step: the deposit against the headroom,
#: the withdrawal against the charge after the deposit, the leak against
#: the charge after the withdrawal, or a deposit far past the capacity.
COMPARISONS = ("deposit", "withdraw", "leak", "clip")


def _nudged(value: float, side: int) -> float:
    """``value`` itself (a tie), or one ulp below or above it."""
    if side == 0:
        return value
    return float(np.nextafter(value, np.inf if side > 0 else -np.inf))


@st.composite
def boundary_ledgers(draw, max_length=300):
    """Mostly free ledgers with steps planted on either side of each free check.

    Unit efficiencies and a unit self-discharge power make the planted
    amounts the hoisted ones exactly, so a tie is a tie in the scan.  The
    capacity/charge pair that makes ``pre + (cap - pre)`` miss the capacity
    by an ulp is one of the drawn starting points.
    """
    unit = draw(st.booleans())
    capacity, fraction = draw(
        st.sampled_from([(1.5403466578537677, 0.4186433186567379 / 1.5403466578537677)])
        | st.tuples(st.sampled_from([0.05, 0.25, 1.0]) | st.floats(0.01, 3.0), st.floats(0.0, 1.0))
    )
    restart = capacity * draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0))
    storage = StorageElement(
        capacity_j=capacity,
        initial_charge_j=capacity * fraction,
        charge_efficiency=1.0 if unit else 0.95,
        discharge_efficiency=1.0 if unit else 0.9,
        self_discharge_w=1.0 if unit else 0.8e-6,
        minimum_operating_j=restart * draw(st.sampled_from([0.0, 0.5, 1.0])),
        restart_level_j=restart,
    )
    count = draw(st.integers(0, max_length))
    plants = {
        at: (comparison, side)
        for at, comparison, side in draw(
            st.lists(
                st.tuples(
                    st.integers(0, max(count - 1, 0)),
                    st.sampled_from(COMPARISONS),
                    st.sampled_from([-1, 0, 1]),
                ),
                max_size=3,
            )
        )
    }
    initially_active = draw(st.none() | st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap, charge_eff = storage.capacity_j, storage.charge_efficiency
    discharge_eff, leak_w = storage.discharge_efficiency, storage.self_discharge_w
    charge = storage.initial_charge_j
    active = charge >= storage.minimum_operating_j if initially_active is None else initially_active
    harvest, load, durations = [], [], []
    for i in range(count):
        if not active and charge >= restart:
            active = True
        headroom = cap - charge
        stored = headroom * 0.01 * rng.random()
        comparison, side = plants.get(i, (None, 0))
        if comparison == "deposit":
            stored = _nudged(headroom, side)
        elif comparison == "clip":
            stored = 2.0 * headroom + 1e-3 * cap
        stored = max(stored, 0.0)
        deposited = charge + min(stored, headroom)
        required = deposited * 0.01 * rng.random()
        if comparison == "withdraw":
            required = _nudged(deposited, side)
        withdrawn = deposited - required if required <= deposited else 0.0
        leak = withdrawn * 0.01 * rng.random()
        if comparison == "leak":
            leak = max(_nudged(withdrawn, side), 0.0)
        harvest.append(stored / charge_eff)
        load.append(required * discharge_eff)
        durations.append(leak / leak_w)
        # Advance on the hoisted amounts the scan will see.
        charge, _banked = deposit_step(charge, harvest[-1] * charge_eff, cap)
        if active:
            charge, active = withdraw_step(charge, load[-1] / discharge_eff)
        charge, _loss = leak_step(charge, leak_w * durations[-1])
    return storage, np.array(harvest), np.array(load), np.array(durations), initially_active


class TestFreeCertificate:
    @given(ledger=boundary_ledgers())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_flag_is_exactly_no_event(self, ledger):
        assert_scans_agree(*ledger)

    @given(ledger=boundary_ledgers(max_length=40))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_flag_is_exactly_no_event_with_small_windows(self, ledger):
        # A free ledger spans many windows; an event after a free prefix
        # hands over to the other outputs mid-ledger.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage_module, "_WINDOW", 2)
            patch.setattr(storage_module, "_SHORT_RUN", 2)
            patch.setattr(storage_module, "_DENSE_STEPS", 3)
            assert_scans_agree(*ledger)

    @pytest.mark.parametrize("comparison", COMPARISONS)
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_each_planted_boundary(self, comparison, side):
        # One plant on the last step of a free unit-efficiency ledger: the
        # ulp below a deposit's headroom or a leak's charge keeps it free, a
        # tie only where the comparison accepts it (a deposit of exactly the
        # headroom).  A withdrawal one ulp short of the charge is still an
        # event: the step's leak then takes the whole charge.
        storage = StorageElement(
            capacity_j=1.5403466578537677,
            initial_charge_j=0.4186433186567379,
            charge_efficiency=1.0,
            discharge_efficiency=1.0,
            self_discharge_w=1.0,
            minimum_operating_j=0.0,
            restart_level_j=0.1,
        )
        steps = np.full(9, 1e-4)
        charge = storage.initial_charge_j
        for _ in range(8):
            charge = ((charge + 1e-4) - 1e-4) - 1e-4
        harvest, load, durations = steps.copy(), steps.copy(), steps.copy()
        headroom = storage.capacity_j - charge
        if comparison == "deposit":
            harvest[8] = _nudged(headroom, side)
        elif comparison == "clip":
            harvest[8] = _nudged(2.0 * headroom, side)
        elif comparison == "withdraw":
            load[8] = _nudged(charge + 1e-4, side)
        else:
            durations[8] = _nudged((charge + 1e-4) - 1e-4, side)
        free = assert_scans_agree(storage, harvest, load, durations, True)
        assert free is ((comparison, side) in {("deposit", -1), ("deposit", 0), ("leak", -1)})

    def test_inactive_start_is_never_free(self):
        storage = make_storage(initial_fraction=0.5)
        small, empty = np.full(5, 1e-6), np.zeros(0)
        assert not run_length_scan(*hoisted_scan(storage, small, small, small, False))[8]
        assert run_length_scan(*hoisted_scan(storage, small, small, small, True))[8]
        assert run_length_scan(*hoisted_scan(storage, empty, empty, empty, True))[8]
        assert hoisted_trajectory(storage, small, small, small).free


# ---------------------------------------------------------------------------
# The certificate that decides freeness before any scan: whatever it
# certifies, the reference recurrence takes no event and the scan flags free.
# ---------------------------------------------------------------------------


def certificate_inputs(storage, unit, factor, load, durations) -> tuple:
    """What a fleet vehicle's certificate reads: ``U``, the gain, ``D``, the start."""
    demand = ledger_demand(storage, load, durations)
    demand_prefix = np.zeros(len(unit) + 1)
    np.cumsum(demand.required + demand.leak.amounts, out=demand_prefix[1:])
    charge = storage.initial_charge_j
    return (
        np.cumsum(unit),
        factor * storage.charge_efficiency,
        demand_prefix,
        charge,
        charge >= storage.minimum_operating_j,
        storage.capacity_j,
    )


def assert_certificate_sound(storage, unit, factor, load, durations) -> bool:
    """Certified ledgers take no event, in the reference and in every scan.

    The vehicle's harvest is ``factor * unit``, as the fleet scales a walk's
    unit-size harvest.  Returns whether the ledger was certified.
    """
    certified = certify_free(*certificate_inputs(storage, unit, factor, load, durations))
    if certified:
        harvest = factor * unit
        hoisted = hoisted_scan(storage, harvest, load, durations, None)
        stored, required, _load, leak, charge, active, capacity, _restart = hoisted
        assert _takes_no_event(stored, required, leak, charge, active, capacity)
        expected = reference_scan(*hoisted)
        assert expected[5].all() and expected[6] == 0
        assert _bits(expected[2]) == _bits(stored)
        assert run_length_scan(*hoisted)[8] is True
        assert hoisted_trajectory(storage, harvest, load, durations).free
    return certified


factors = st.sampled_from([1.0]) | st.floats(0.05, 20.0)


@st.composite
def scaled_boundary_ledgers(draw, max_length=300):
    """A :func:`boundary_ledgers` ledger, its harvest split into a factor and a unit harvest."""
    storage, harvest, load, durations, _initially_active = draw(boundary_ledgers(max_length))
    factor = draw(factors)
    return storage, harvest / factor, factor, load, durations


@st.composite
def planted_triples(draw, max_length=300):
    """Random ledgers whose gain, initial charge and capacity sit at, or an ulp off, a boundary.

    From a zero start, the charge that the deposits and withdrawals leave
    before each leak sets the lowest initial charge no leak takes whole,
    and the highest charge after a deposit the least capacity nothing
    clips at; each is drawn as itself, an ulp either side or a random
    value, and the brown-out level as the initial charge itself, an ulp
    above it (an inactive start) or zero.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, max_length))
    unit = rng.uniform(0.0, 1e-4, count) * (rng.random(count) < draw(st.floats(0.0, 1.0)))
    load = rng.uniform(0.0, 1e-4, count)
    durations = rng.uniform(0.0, 2.0, count)
    factor = draw(factors)
    charge_eff, discharge_eff, leak_w = draw(
        st.sampled_from([(1.0, 1.0, 1e-5), (0.95, 0.9, 0.8e-6), (0.97, 0.92, 3e-5)])
    )
    x = np.empty(3 * count + 1)
    x[0] = 0.0
    x[1::3] = (factor * unit) * charge_eff
    x[2::3] = -(load / discharge_eff)
    x[3::3] = -(leak_w * durations)
    np.add.accumulate(x, out=x)
    side = st.sampled_from([-1, 0, 1])
    lowest = float(np.max(leak_w * durations - x[2::3]))
    if draw(st.booleans()):
        charge = max(_nudged(max(lowest, 0.0), draw(side)), 0.0)
    else:
        charge = max(lowest, 0.0) * draw(st.floats(0.0, 2.0)) + draw(st.floats(0.0, 1e-3))
    highest = charge + float(np.max(x[1::3]))
    if draw(st.booleans()):
        capacity = _nudged(highest, draw(side))
    else:
        capacity = highest * draw(st.floats(0.5, 2.0))
    capacity = max(capacity, charge, 1e-9)
    minimum = draw(st.sampled_from([charge, _nudged(charge, 1), 0.0]))
    minimum = min(minimum, capacity)
    storage = StorageElement(
        capacity_j=capacity,
        initial_charge_j=charge,
        charge_efficiency=charge_eff,
        discharge_efficiency=discharge_eff,
        self_discharge_w=leak_w,
        minimum_operating_j=minimum,
        restart_level_j=minimum,
    )
    return storage, unit, factor, load, durations


class TestCertifyFree:
    @given(ledger=scaled_boundary_ledgers())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_certified_boundary_ledgers_take_no_event(self, ledger):
        assert_certificate_sound(*ledger)

    @given(ledger=planted_triples())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_certified_planted_triples_take_no_event(self, ledger):
        assert_certificate_sound(*ledger)

    @pytest.mark.parametrize("comparison", COMPARISONS)
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_declines_a_ledger_at_a_boundary(self, comparison, side):
        # test_each_planted_boundary's ledgers: an ulp from an event is
        # within the certificate's margin, so it declines every plant
        # (the scan finds three of them free) and certifies the ledger
        # without one.
        storage = StorageElement(
            capacity_j=1.5403466578537677,
            initial_charge_j=0.4186433186567379,
            charge_efficiency=1.0,
            discharge_efficiency=1.0,
            self_discharge_w=1.0,
            minimum_operating_j=0.0,
            restart_level_j=0.1,
        )
        steps = np.full(9, 1e-4)
        charge = storage.initial_charge_j
        for _ in range(8):
            charge = ((charge + 1e-4) - 1e-4) - 1e-4
        harvest, load, durations = steps.copy(), steps.copy(), steps.copy()
        assert certify_free(*certificate_inputs(storage, harvest, 1.0, load, durations))
        headroom = storage.capacity_j - charge
        if comparison == "deposit":
            harvest[8] = _nudged(headroom, side)
        elif comparison == "clip":
            harvest[8] = _nudged(2.0 * headroom, side)
        elif comparison == "withdraw":
            load[8] = _nudged(charge + 1e-4, side)
        else:
            durations[8] = _nudged((charge + 1e-4) - 1e-4, side)
        assert not assert_certificate_sound(storage, harvest, 1.0, load, durations)

    def test_inactive_or_empty_ledgers(self):
        storage = make_storage(initial_fraction=0.5)
        small, empty = np.full(5, 1e-6), np.zeros(0)
        inputs = certificate_inputs(storage, small, 1.0, small, small)
        assert certify_free(*inputs)
        assert not certify_free(*inputs[:4], False, inputs[5])
        assert certify_free(*certificate_inputs(storage, empty, 1.0, empty, empty))
        depleted = make_storage(initial_fraction=0.01)
        assert not certify_free(*certificate_inputs(depleted, small, 1.0, small, small))

    def test_non_finite_inputs_decide_nothing(self):
        storage = make_storage()
        small = np.full(5, 1e-6)
        for position, value in ((0, np.inf), (0, np.nan), (1, np.inf), (1, np.nan)):
            unit, load = small.copy(), small.copy()
            (unit, load)[position][2] = value
            assert not certify_free(*certificate_inputs(storage, unit, 1.0, load, small))
        inputs = certificate_inputs(storage, small, 1.0, small, small)
        assert not certify_free(*inputs[:5], np.inf)
        assert not certify_free(inputs[0], np.nan, *inputs[2:])


class TestScaledLevels:
    @given(factor=st.sampled_from([1.0]) | st.floats(1e-3, 1e3))
    def test_levels_are_the_scaled_elements(self, factor):
        base = make_storage()
        storage = scaled_storage(base, factor)
        levels = (
            storage.capacity_j,
            storage.initial_charge_j,
            storage.minimum_operating_j,
            storage.restart_level_j,
        )
        assert [_bits(level) for level in scaled_levels(base, factor)] == [
            _bits(level) for level in levels
        ]

    @pytest.mark.parametrize(
        "factor, message",
        [
            (0.0, "factor must be positive"),
            (-1.0, "factor must be positive"),
            (5e-324, "capacity must be positive"),  # 0.5 J times it rounds to zero
        ],
    )
    def test_both_refuse_what_no_element_holds(self, factor, message):
        from repro.errors import ConfigurationError

        for scale in (scaled_levels, scaled_storage):
            with pytest.raises(ConfigurationError, match=message):
                scale(make_storage(), factor)


class TestHoistedDemand:
    def test_demand_is_shared_by_scaled_elements(self):
        base = make_storage()
        rng = np.random.default_rng(5)
        harvest, load = rng.uniform(0.0, 4e-3, (2, 400))
        durations = rng.uniform(0.0, 5.0, 400)
        demand = ledger_demand(base, load, durations)
        for factor in (0.05, 0.5, 1.0, 1.7):
            storage = scaled_storage(base, factor)
            shared = trajectory(storage, harvest, demand)
            own = hoisted_trajectory(storage, harvest, load, durations)
            for name in ("charge_j", "active", "banked_j", "drawn_j", "attempted", "withdrew"):
                assert _bits(getattr(shared, name)) == _bits(getattr(own, name))
            assert shared.brownout_events == own.brownout_events
            assert shared.free is own.free

    def test_demand_of_another_element_is_rejected(self):
        from repro.errors import EmulationError

        storage = make_storage()
        demand = ledger_demand(storage, [1e-6], 1.0)
        for other in (
            StorageElement(capacity_j=0.5, initial_charge_j=0.25, discharge_efficiency=0.8),
            StorageElement(capacity_j=0.5, initial_charge_j=0.25, self_discharge_w=2e-5),
        ):
            with pytest.raises(EmulationError, match="another storage element"):
                trajectory(other, [1e-6], demand)

    def test_a_longer_leak_is_cut_to_the_load(self):
        from repro.errors import EmulationError
        from repro.scavenger.storage import ledger_leak

        storage = make_storage()
        leak = ledger_leak(storage, [1.0, 2.0, -1.0])
        demand = ledger_demand(storage, [0.0, 0.0], leak)
        assert len(demand.leak) == 2
        # The negative duration lies past the load, so this scan accepts it.
        trajectory(storage, [0.0, 0.0], demand)
        with pytest.raises(EmulationError, match="duration must be non-negative"):
            trajectory(storage, [0.0] * 3, ledger_demand(storage, [0.0] * 3, leak))
        with pytest.raises(EmulationError, match="fewer steps"):
            ledger_demand(storage, [0.0] * 4, leak)

    def test_checks_raise_at_the_scan_in_order(self):
        from repro.errors import EmulationError

        storage = make_storage()
        demand = ledger_demand(storage, [-1e-9], -1.0)
        with pytest.raises(EmulationError, match="deposit negative"):
            trajectory(storage, [-1e-9], demand)
        with pytest.raises(EmulationError, match="withdraw negative"):
            trajectory(storage, [0.0], demand)
        with pytest.raises(EmulationError, match="non-negative"):
            trajectory(storage, [0.0], ledger_demand(storage, [0.0], -1.0))

    def test_caller_arrays_stay_writeable(self):
        storage = make_storage()
        load = np.full(3, 1e-6)
        durations = np.ones(3)
        demand = ledger_demand(storage, load, durations)
        assert load.flags.writeable and durations.flags.writeable
        assert not demand.load.flags.writeable and not demand.required.flags.writeable
