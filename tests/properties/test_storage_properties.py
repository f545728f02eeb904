"""Property-based tests (hypothesis) for the storage ledger.

The mutating :class:`StorageElement` is the scalar reference for the energy
bookkeeping; the pure :func:`repro.scavenger.storage.trajectory` kernel must
replay it bit for bit.  Properties covered: the charge never leaves
``[0, capacity]``, ``deposit`` reports exactly what fit (the overflow is the
exact complement), ``withdraw`` is atomic (full success, or a drain-to-zero
brown-out — never a partial withdrawal that reports success), the
trajectory kernel equals a step-by-step scalar replay including the restart
hysteresis, and the time-major ``batched_scan`` equals ``reference_scan``
column by column, end padding included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scavenger.storage import (
    StorageElement,
    batched_scan,
    reference_scan,
    trajectory,
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
# batched_scan: V ledgers at once == reference_scan per ledger, bit for bit.
# ---------------------------------------------------------------------------

_step_amounts = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)

# One ledger: its own length, per-step inputs and (V,)-parameters.  Initial
# fractions include 0 and 1 (empty, and full: zero headroom), thresholds and
# requirements are sized so brown-outs and restarts both happen.
_ledgers = st.integers(min_value=0, max_value=30).flatmap(
    lambda count: st.fixed_dictionaries(
        {
            "stored": st.lists(_step_amounts, min_size=count, max_size=count),
            "required": st.lists(_step_amounts, min_size=count, max_size=count),
            "load": st.lists(_step_amounts, min_size=count, max_size=count),
            "leak": st.lists(
                st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
                min_size=count,
                max_size=count,
            ),
            "capacity": st.sampled_from([0.05, 0.1, 0.25, 0.5]),
            "initial": st.one_of(
                st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
            ),
            "restart": st.floats(min_value=0.0, max_value=1.0),
            "active": st.booleans(),
        }
    )
)


def _ledger(stored, required, load, leak, capacity=0.1, initial=0.5, restart=0.5, active=True):
    """One hand-written ledger in the strategy's shape (fractions of capacity)."""
    return {
        "stored": stored,
        "required": required,
        "load": load,
        "leak": leak,
        "capacity": capacity,
        "initial": initial,
        "restart": restart,
        "active": active,
    }


def _padded(ledgers, key):
    steps = max((len(ledger[key]) for ledger in ledgers), default=0)
    table = np.zeros((steps, len(ledgers)))
    for column, ledger in enumerate(ledgers):
        table[: len(ledger[key]), column] = ledger[key]
    return table


def _bits(value) -> bytes:
    return np.ascontiguousarray(value).tobytes()


def assert_batched_equals_reference(ledgers):
    charge = np.array([ledger["capacity"] * ledger["initial"] for ledger in ledgers])
    capacity = np.array([ledger["capacity"] for ledger in ledgers])
    restart = np.array([ledger["capacity"] * ledger["restart"] for ledger in ledgers])
    active = np.array([ledger["active"] for ledger in ledgers])
    outputs = batched_scan(
        _padded(ledgers, "stored"),
        _padded(ledgers, "required"),
        _padded(ledgers, "load"),
        _padded(ledgers, "leak"),
        charge,
        active,
        capacity,
        restart,
    )
    brownouts, final_charge = outputs[6], outputs[7]
    assert brownouts.shape == final_charge.shape == (len(ledgers),)
    for column, ledger in enumerate(ledgers):
        count = len(ledger["stored"])
        reference = reference_scan(
            np.array(ledger["stored"], dtype=float),
            np.array(ledger["required"], dtype=float),
            np.array(ledger["load"], dtype=float),
            np.array(ledger["leak"], dtype=float),
            float(charge[column]),
            bool(active[column]),
            float(capacity[column]),
            float(restart[column]),
        )
        for batched, expected in zip(outputs[:6], reference[:6]):
            assert _bits(batched[:count, column]) == _bits(expected)
        assert int(brownouts[column]) == reference[6]
        # The final charge read at the ledger's own last step, and — padding
        # being a no-op on the charge — at the end of the padded window.
        own_final = outputs[0][count - 1, column] if count else charge[column]
        assert _bits(own_final) == _bits(reference[7])
        assert _bits(final_charge[column]) == _bits(reference[7])


class TestBatchedScanEqualsReference:
    @given(ledgers=st.lists(_ledgers, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_ragged_mixed_ledgers_match_reference_scan(self, ledgers):
        assert_batched_equals_reference(ledgers)

    @given(ledger=_ledgers)
    @settings(max_examples=60, deadline=None)
    def test_single_ledger(self, ledger):
        assert_batched_equals_reference([ledger])

    def test_zero_steps(self):
        ledgers = [
            _ledger([], [], [], [], initial=0.0, active=False),
            _ledger([], [], [], [], initial=1.0, active=True),
        ]
        assert_batched_equals_reference(ledgers)
        empty = np.zeros((0, 2))
        outputs = batched_scan(
            empty, empty, empty, empty, [0.0, 0.1], [False, True], [0.1, 0.1], [0.05, 0.05]
        )
        assert outputs[0].shape == (0, 2)
        assert list(outputs[6]) == [0, 0]
        assert list(outputs[7]) == [0.0, 0.1]

    def test_full_storage_banks_nothing(self):
        # Zero headroom: the whole deposit is shunted, the charge stays put.
        full = _ledger([0.05, 0.05], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], initial=1.0)
        assert_batched_equals_reference([full, dict(full, initial=0.5)])
        zeros = np.zeros((2, 1))
        outputs = batched_scan(
            np.full((2, 1), 0.05), zeros, zeros, zeros, [0.1], [True], [0.1], [0.05]
        )
        assert list(outputs[2][:, 0]) == [0.0, 0.0]
        assert list(outputs[0][:, 0]) == [0.1, 0.1]

    def test_restart_hysteresis_and_padding(self):
        # Ledger 0 browns out at step 1, recharges at step 2 and restarts at
        # step 3 (the threshold is tested before the deposit); ledger 1 is two
        # steps long and padded by three no-op steps.
        hysteresis = _ledger(
            stored=[0.0, 0.0, 0.06, 0.0, 0.0],
            required=[0.01, 0.5, 0.01, 0.01, 0.01],
            load=[0.009, 0.45, 0.009, 0.009, 0.009],
            leak=[0.0] * 5,
            initial=0.5,
        )
        short = _ledger(
            stored=[0.02, 0.0],
            required=[0.3, 0.0],
            load=[0.2, 0.0],
            leak=[0.001, 0.0],
            capacity=0.25,
            initial=0.1,
            restart=0.3,
        )
        ledgers = [hysteresis, short]
        assert_batched_equals_reference(ledgers)
        outputs = batched_scan(
            *(_padded(ledgers, key) for key in ("stored", "required", "load", "leak")),
            [0.05, 0.025],
            [True, True],
            [0.1, 0.25],
            [0.05, 0.075],
        )
        assert list(outputs[1][:, 0]) == [True, False, False, True, True]
        assert list(outputs[4][:, 0]) == [True, True, False, True, True]
        assert list(outputs[6]) == [1, 1]
