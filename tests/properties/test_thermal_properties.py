"""Property tests for the tyre thermal model's batch replay.

``TyreThermalModel.advance_many`` computes the relaxation factor once per
distinct step and the steady state once per distinct speed, then runs the
recurrence.  It must be the stepping loop of ``advance`` bit for bit: the
same temperature after every step and the same final temperature and time,
from a reset model or from one already advanced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions.temperature import TyreThermalModel
from repro.errors import ConfigurationError

#: Durations (s): arbitrary, plus signed zero, the smallest subnormal, tiny,
#: ordinary and 1e6 s values.
DURATIONS = st.one_of(
    st.floats(0.0, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.05, 0.3, 1.0, 1e6]),
)
#: Speeds (m/s), including standstill and speeds whose squared rise
#: overflows to infinity.
SPEEDS = st.one_of(
    st.floats(0.0, 90.0),
    st.sampled_from([0.0, 5e-324, 1e-9, 13.9, 33.3, 1e200]),
)
MODELS = st.fixed_dictionaries(
    {
        "ambient_celsius": st.floats(-40.0, 125.0),
        "rise_coefficient": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        "max_rise_c": st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
        "time_constant_s": st.one_of(
            st.floats(1e-3, 1e5), st.sampled_from([5e-324, 1e-9, 600.0, 1e300])
        ),
    }
)


@st.composite
def step_lists(draw, max_size: int = 80) -> list[tuple[float, float]]:
    """``(duration, speed)`` steps, many of them repeats of a few pairs."""
    pool = draw(st.lists(st.tuples(DURATIONS, SPEEDS), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(pool), max_size=max_size))
    fresh = draw(st.lists(st.tuples(DURATIONS, SPEEDS), max_size=max_size // 4))
    return draw(st.permutations(repeats + fresh))


class TestAdvanceMany:
    @settings(max_examples=300, deadline=None)
    @given(model=MODELS, warmup=step_lists(max_size=8), steps=step_lists())
    def test_replay_equals_stepping(self, model, warmup, steps):
        stepped, replayed = TyreThermalModel(**model), TyreThermalModel(**model)
        for thermal in (stepped, replayed):
            for dt, speed in warmup:
                thermal.advance(dt, speed)
        expected = np.array([stepped.advance(dt, speed) for dt, speed in steps], dtype=float)
        temps = replayed.advance_many(
            np.array([dt for dt, _speed in steps], dtype=float),
            np.array([speed for _dt, speed in steps], dtype=float),
        )
        assert temps.tobytes() == expected.tobytes()
        assert float.hex(replayed._current_celsius) == float.hex(stepped._current_celsius)
        assert float.hex(replayed._current_time_s) == float.hex(stepped._current_time_s)

    def test_negative_step_raises_the_stepping_error(self):
        model = TyreThermalModel()
        with pytest.raises(ConfigurationError) as stepped:
            TyreThermalModel().advance(-1.0, 10.0)
        with pytest.raises(ConfigurationError) as replayed:
            model.advance_many(np.array([1.0, -1.0]), np.array([10.0, 10.0]))
        assert str(replayed.value) == str(stepped.value)
        assert model.current_celsius == model.ambient_celsius
        assert model._current_time_s == 0.0
