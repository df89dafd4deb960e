from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platformtrial.design import (
    ConfigError,
    TrialConfig,
    derive_calendar,
    derive_periods,
    entry_times,
    interval_indices,
)


def make_config(**kw):
    base = dict(K=4, d=250, n=250, eta0=0.0, theta=(0.25,) * 4, sigma=1.0, M=3)
    base.update(kw)
    return TrialConfig(**base)


class TestTrialConfig:
    def test_valid(self):
        cfg = make_config()
        assert cfg.K == 4

    @pytest.mark.parametrize(
        "kw",
        [
            dict(K=1, theta=(0.25,)),
            dict(d=-1),
            dict(n=1),
            dict(sigma=0.0),
            dict(M=0),
            dict(M=5),
            dict(theta=(0.25,) * 3),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            make_config(**kw)


class TestEntryTimes:
    def test_k4_d250(self):
        assert entry_times(make_config()) == (1, 251, 501, 751)

    def test_full_overlap(self):
        cfg = make_config(K=3, d=0, theta=(0.25,) * 3)
        assert entry_times(cfg) == (1, 1, 1)

    def test_no_overlap_when_d_is_2n(self):
        cfg = make_config(K=2, d=500, n=250, theta=(0.25,) * 2, M=1)
        assert entry_times(cfg) == (1, 501)


class TestDerivePeriods:
    def test_boundaries_are_change_points(self):
        starts = derive_periods(
            entries=(1, 251, 501, 751), exits=(660, 1140, 1390, 1530), horizon=1390
        )
        assert starts == (1, 251, 501, 660, 751, 1140)

    def test_single_arm_single_period(self):
        assert derive_periods(entries=(1,), exits=(2000,), horizon=1000) == (1,)

    def test_simultaneous_entries_collapse(self):
        starts = derive_periods(entries=(1, 1, 5), exits=(100, 100, 100), horizon=50)
        assert starts == (1, 5)

    def test_exit_at_horizon_is_not_a_boundary(self):
        starts = derive_periods(entries=(1, 10), exits=(50, 80), horizon=50)
        assert starts == (1, 10)

    def test_no_arms_error(self):
        with pytest.raises(ConfigError, match="no arms active"):
            derive_periods(entries=(), exits=(), horizon=100)
        with pytest.raises(ConfigError, match="no arms active"):
            derive_periods(entries=(200,), exits=(400,), horizon=100)


class TestDeriveCalendar:
    def test_paper_sized_trial(self):
        starts = derive_calendar(horizon=1528, c_length=100)
        # oracle: enumerate each patient time and count distinct units
        seen = set(interval_indices(np.arange(1, 1529), starts, 1528).tolist())
        assert len(starts) == 16
        assert seen == set(range(1, 17))
        last_width = 1528 - starts[-1] + 1
        assert last_width == 28

    def test_single_interval(self):
        assert derive_calendar(horizon=450, c_length=450) == (1,)

    def test_one_extra_patient_opens_new_interval(self):
        starts = derive_calendar(horizon=451, c_length=450)
        assert starts == (1, 451)
        widths = [starts[1] - starts[0], 451 - starts[1] + 1]
        assert widths == [450, 1]

    def test_c_length_below_one_rejected(self):
        with pytest.raises(ConfigError):
            derive_calendar(horizon=100, c_length=0)

    def test_infinite_c_length_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            derive_calendar(horizon=100, c_length=float("inf"))


class TestIntervalIndex:
    STARTS = (1, 251, 501)

    def test_first_time(self):
        assert interval_indices([1], self.STARTS, horizon=700).tolist() == [1]

    def test_boundary_belongs_to_starting_interval(self):
        assert interval_indices([251], self.STARTS, horizon=700).tolist() == [2]

    def test_horizon_maps_to_last(self):
        assert interval_indices([700], self.STARTS, horizon=700).tolist() == [3]

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            interval_indices([0], self.STARTS, horizon=700)
        with pytest.raises(ConfigError):
            interval_indices([701], self.STARTS, horizon=700)

    def test_vectorized_matches_scalar(self):
        ts = np.arange(1, 701)
        idx = interval_indices(ts, self.STARTS, horizon=700)
        # scalar definition: the number of interval starts at or before t
        assert idx.tolist() == [bisect_right(self.STARTS, t) for t in ts]
        assert interval_indices([1, 250, 251, 500, 501, 700], self.STARTS, 700).tolist() == [
            1, 1, 2, 2, 3, 3,
        ]
        assert idx.min() == 1 and idx.max() == 3


@settings(max_examples=200, deadline=None)
@given(
    horizon=st.integers(min_value=2, max_value=5000),
    c_length=st.integers(min_value=1, max_value=5000),
)
def test_calendar_partition_property(horizon, c_length):
    starts = derive_calendar(horizon, c_length)
    bounds = list(starts) + [horizon + 1]
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    assert sum(widths) == horizon
    assert all(w == c_length for w in widths[:-1])
    assert 1 <= widths[-1] <= c_length
    if c_length >= horizon:
        assert len(starts) == 1
    # total and unique on [1, horizon]
    idx = interval_indices(np.arange(1, horizon + 1), starts, horizon)
    assert idx.min() == 1 and idx.max() == len(starts)
    assert np.all(np.diff(idx) >= 0)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.integers(min_value=1, max_value=900), min_size=1, max_size=6),
    exits=st.lists(st.integers(min_value=2, max_value=1200), min_size=1, max_size=6),
    horizon=st.integers(min_value=1, max_value=1000),
)
def test_period_boundary_union_property(entries, exits, horizon):
    if min(entries) > horizon:
        with pytest.raises(ConfigError):
            derive_periods(entries, exits, horizon)
        return
    starts = derive_periods(entries, exits, horizon)
    expected = {1} | {e for e in entries if 1 < e <= horizon} | {x for x in exits if 1 < x < horizon}
    assert set(starts) == expected
    assert list(starts) == sorted(expected)
    # widths partition [1, horizon]
    bounds = list(starts) + [horizon + 1]
    assert sum(b - a for a, b in zip(bounds, bounds[1:])) == horizon
