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
    deposit_step,
    leak_step,
    reference_scan,
    run_length_scan,
    trajectory,
    withdraw_step,
)

energies = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
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
        traj = trajectory(storage, harvest, load, leak_s)

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
        traj = trajectory(storage, harvest, np.zeros(len(harvest)), 1.0)
        assert np.all(traj.charge_j >= 0.0)
        assert np.all(traj.charge_j <= storage.capacity_j)

    def test_mismatched_lengths_rejected(self):
        import pytest

        from repro.errors import EmulationError

        with pytest.raises(EmulationError):
            trajectory(make_storage(), [1e-6, 1e-6], [1e-6], 1.0)

    def test_negative_inputs_rejected(self):
        import pytest

        from repro.errors import EmulationError

        storage = make_storage()
        with pytest.raises(EmulationError):
            trajectory(storage, [-1e-9], [0.0], 1.0)
        with pytest.raises(EmulationError):
            trajectory(storage, [0.0], [-1e-9], 1.0)
        with pytest.raises(EmulationError):
            trajectory(storage, [0.0], [0.0], -1.0)

    def test_out_of_range_initial_charge_rejected(self):
        import pytest

        from repro.errors import EmulationError

        storage = make_storage()
        with pytest.raises(EmulationError):
            trajectory(storage, [1e-6], [0.0], 1.0, initial_charge_j=-0.1)
        with pytest.raises(EmulationError):
            trajectory(
                storage, [1e-6], [0.0], 1.0, initial_charge_j=storage.capacity_j * 2.0
            )

    def test_element_state_is_untouched(self):
        storage = make_storage()
        before = storage.charge_j
        trajectory(storage, [1e-4] * 5, [2e-4] * 5, 1.0)
        assert storage.charge_j == before


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


def assert_scans_agree(storage, harvest, load, durations, initially_active):
    hoisted = (
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
    expected = reference_scan(*hoisted)
    traj = trajectory(storage, harvest, load, durations, initially_active=initially_active)
    kernel = (
        traj.charge_j,
        traj.active,
        traj.banked_j,
        traj.drawn_j,
        traj.attempted,
        traj.withdrew,
        traj.brownout_events,
        traj.final_charge_j,
    )
    replay = _element_replay(storage, harvest, load, durations, initially_active)
    for outputs in (run_length_scan(*hoisted), kernel, replay):
        for got, want in zip(outputs[:6], expected[:6]):
            assert _bits(got) == _bits(want)
        assert outputs[6] == expected[6]
        assert _bits(np.float64(outputs[7])) == _bits(np.float64(expected[7]))


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
        traj = trajectory(storage, harvest, load, durations)
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
        assert not np.signbit(trajectory(storage, -zeros, zeros, zeros).charge_j).any()

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
        traj = trajectory(storage, harvest, small, small)
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
        traj = trajectory(storage, table[:, 1], table[:, 2], table[:, 3] * 10.0)
        copy = trajectory(
            storage, np.array(table[:, 1]), np.array(table[:, 2]), np.array(table[:, 3]) * 10.0
        )
        assert _bits(traj.charge_j) == _bits(copy.charge_j)
        assert _bits(traj.drawn_j) == _bits(copy.drawn_j)
