import time
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import calendar_walk
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

    def test_intervals_counted_before_any_is_built(self):
        # a billion one-unit intervals would not fit in memory
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=r"c_length 1\.0 makes 2000000001 calendar intervals; "
                                              r"at most 6 allowed"):
            derive_calendar(horizon=1e9, c_length=1, start=-1e9, max_intervals=6)
        # a span past the largest float has no count
        with pytest.raises(ConfigError, match="cannot partition the span"):
            derive_calendar(horizon=1e308, c_length=5, start=-1e308)
        assert time.perf_counter() - t0 < 1.0
        assert derive_calendar(horizon=13, c_length=2, max_intervals=7) == (1, 3, 5, 7, 9, 11, 13)
        with pytest.raises(ConfigError, match="makes 7 calendar intervals; at most 6"):
            derive_calendar(horizon=13, c_length=2, max_intervals=6)


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


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(-1e6, 1e6) | st.integers(-1000, 1000),
    span=st.floats(0.0, 1e5) | st.integers(0, 10_000),
    c_length=st.floats(1.0, 2e4) | st.integers(1, 2000),
)
def test_calendar_counts_the_units_the_walk_places(start, span, c_length):
    # the count comes from one division; the starts are those of the walk, bit for bit
    assert_walk(start + span, c_length, start)


def assert_walk(horizon, c_length, start):
    starts = derive_calendar(horizon, c_length, start=start)
    assert [x.hex() for x in map(float, starts)] == [
        x.hex() for x in map(float, calendar_walk(horizon, c_length, start))]
    assert type(starts[0]) is type(start + 0 * c_length)


@pytest.mark.parametrize("horizon, c_length, start, by_division", [
    # the division rounds the count up by one: the last start lies past the horizon
    (447.926857352407, 6.778016479881992, -873.7863562245814, 196),
    # and down by one: the next start still lies at the horizon
    (1677.097135401907, 32.928055663415385, -101.01787042252374, 54),
])
def test_calendar_count_corrected_where_the_division_rounds(horizon, c_length, start, by_division):
    assert int((horizon - start) / c_length) + 1 == by_division
    assert len(calendar_walk(horizon, c_length, start)) != by_division
    assert_walk(horizon, c_length, start)
