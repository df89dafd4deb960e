from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assign_per_patient

from platformtrial.datagen import (
    TrendSpec,
    _assign_all,
    arms_entered_by,
    empirical_timeline,
    generate_trial,
    read_csv,
    trend_value,
    write_csv,
)
from platformtrial.analysis import slice_for_arm
from platformtrial.design import ConfigError, TrialConfig, derive_periods, max_enrollment


def make_config(**kw):
    base = dict(K=4, d=250, n=250, eta0=0.0, theta=(0.25,) * 4, sigma=1.0, M=3)
    base.update(kw)
    return TrialConfig(**base)


class TestTrendValue:
    def test_linear_hits_lambda_at_trial_end(self):
        assert trend_value("linear", 100, 0.5, 100) == pytest.approx(0.5, abs=1e-15)

    def test_stepwise_counts_entered_arms(self):
        assert trend_value("stepwise", 600, 0.15, 1528, arms_entered=3) == pytest.approx(0.30)

    def test_seasonal_starts_at_zero(self):
        assert trend_value("seasonal", 1, 0.7, 500, psi=1.0) == 0.0

    def test_inverted_u_at_turning_point(self):
        got = trend_value("inverted_u", 2500, 0.5, 5000, n_p=2500)
        assert got == pytest.approx(0.5 * 2499 / 4999, abs=1e-12)

    def test_inverted_u_is_piecewise_linear_about_np(self):
        up = trend_value("inverted_u", 999, 1.0, 2000, n_p=1000)
        peak = trend_value("inverted_u", 1000, 1.0, 2000, n_p=1000)
        down = trend_value("inverted_u", 1001, 1.0, 2000, n_p=1000)
        assert up < peak
        assert down == pytest.approx(peak - 1.0 / 1999, abs=1e-12)

    def test_none_pattern_is_zero(self):
        assert trend_value("none", 57, 3.0, 100) == 0.0

    def test_unknown_pattern(self):
        with pytest.raises(ConfigError):
            trend_value("quadratic", 1, 0.1, 10)

    def test_arms_entered_by(self):
        got = arms_entered_by([1, 250, 251, 750, 751, 1000], entries=(1, 251, 501, 751))
        assert list(got) == [1, 1, 2, 3, 4, 4]


def assignments(K, d, n, seed):
    return _assign_all(make_config(K=K, d=d, n=n, theta=(0.25,) * K, M=1), np.random.default_rng(seed))[0]


class TestBlockRandomize:
    """Full blocks at the start of generated assignment streams."""

    def test_single_arm_block_is_permutation(self):
        # only arm 1 recruits before t=101, and it completes in the 25th block
        arms = assignments(K=2, d=100, n=50, seed=0)
        for start in range(0, 96, 4):
            assert sorted(arms[start:start + 4]) == [0, 0, 1, 1]

    def test_three_arm_block_counts(self):
        arms = assignments(K=3, d=0, n=50, seed=1)
        assert sorted(arms[:8]) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_two_full_blocks_give_count_four_each(self):
        for seed in range(5):
            draws = list(assignments(K=2, d=0, n=50, seed=seed)[:4 * 3])
            assert all(draws.count(a) == 4 for a in (0, 1, 2))


@settings(max_examples=300, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=8),
    d=st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=300)),
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_assignment_matches_per_patient_oracle(K, d, n, seed):
    """Same assignments, exits and generator state as one loop step per patient.

    d > 2n leaves control-only stretches between arms; d = 0 starts all arms at once.
    """
    config = make_config(K=K, d=d, n=n, theta=(0.25,) * K, M=1)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    arms, entries, exits = _assign_all(config, rng)
    want_arms, want_entries, want_exits = assign_per_patient(config, oracle_rng)
    assert np.array_equal(arms, want_arms)
    assert entries == want_entries and exits == want_exits
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=10),
    d=st.one_of(st.just(0), st.integers(min_value=0, max_value=300)),
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_max_enrollment_bounds_generated_trials(K, d, n, seed):
    config = make_config(K=K, d=d, n=n, theta=(0.25,) * K, M=1)
    size = len(generate_trial(config, TrendSpec.none(K), "null", seed=seed))
    assert d * (K - 1) + n <= size <= max_enrollment(K, n, d)


def test_cut_blocks_can_enroll_past_the_full_block_count():
    # arms entering together at n = 4 leave cut blocks that d(K-1) + n(K+1)
    # does not count; max_enrollment does
    size = len(generate_trial(make_config(K=8, d=0, n=4, theta=(0.25,) * 8, M=1),
                              TrendSpec.none(8), "null", seed=0))
    assert 4 * 9 < size == 37 <= max_enrollment(8, 4, 0)


class TestGenerateTrial:
    def test_total_sample_size_near_paper_value(self):
        sizes = {len(generate_trial(make_config(), TrendSpec.none(4), "null", seed=s))
                 for s in range(10)}
        assert all(abs(n - 1528) <= 8 for n in sizes)

    def test_seed_determinism(self):
        a = generate_trial(make_config(), TrendSpec.none(4), "null", seed=11)
        b = generate_trial(make_config(), TrendSpec.none(4), "null", seed=11)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.arm, b.arm)
        c = generate_trial(make_config(), TrendSpec.none(4), "null", seed=12)
        assert not np.array_equal(a.y, c.y)

    def test_arm_counts(self):
        ds = generate_trial(make_config(), TrendSpec.none(4), "null", seed=2)
        for k in range(1, 5):
            assert np.count_nonzero(ds.arm == k) == 250
        assert np.count_nonzero(ds.arm == 0) == len(ds) - 4 * 250

    def test_monotone_entry(self):
        cfg = make_config()
        ds = generate_trial(cfg, TrendSpec.none(4), "null", seed=3)
        for k in range(1, 5):
            first = ds.t[ds.arm == k].min()
            assert first >= cfg.d * (k - 1) + 1

    def test_sigma_near_zero_controls_equal_eta0(self):
        cfg = make_config(eta0=2.0, sigma=1e-12)
        ds = generate_trial(cfg, TrendSpec.none(4), "null", seed=4)
        assert np.abs(ds.y[ds.arm == 0] - 2.0).max() < 1e-9

    def test_trend_additivity_under_equal_trends(self):
        # at sigma ~ 0, arm k response minus control trend curve equals theta_k
        cfg = make_config(sigma=1e-12, theta=(0.1, 0.2, 0.3, 0.4))
        trend = TrendSpec("linear", lam=(0.5,) * 5)
        ds = generate_trial(cfg, trend, "alternative", seed=5)
        f = trend_value("linear", ds.j, 0.5, len(ds))
        centered = ds.y - f
        for k, theta_k in enumerate((0.0, 0.1, 0.2, 0.3, 0.4)):
            assert np.abs(centered[ds.arm == k] - theta_k).max() < 1e-9

    def test_null_hypothesis_removes_all_effects(self):
        cfg = make_config(sigma=1e-12)
        ds = generate_trial(cfg, TrendSpec.none(4), "null", seed=6)
        assert np.abs(ds.y).max() < 1e-9

    def test_per_arm_hypothesis_flags(self):
        cfg = make_config(sigma=1e-12, theta=(0.5, 0.5, 0.5, 0.5))
        ds = generate_trial(cfg, TrendSpec.none(4), (True, False, True, False), seed=7)
        assert np.abs(ds.y[ds.arm == 1] - 0.5).max() < 1e-9
        assert np.abs(ds.y[ds.arm == 2]).max() < 1e-9

    def test_block_balance_within_constant_arm_runs(self):
        # active set {1} for t <= 50: blocks of 4, so the first 48 draws balance
        cfg = make_config(K=3, d=50, n=100, theta=(0.25,) * 3, M=1)
        for seed in range(4):
            ds = generate_trial(cfg, TrendSpec.none(3), "null", seed=seed)
            first = ds.arm[:48]
            assert (first == 0).sum() == 24 and (first == 1).sum() == 24
            # after the discard at t=51: active {1, 2}, blocks of 6
            second = ds.arm[50:98]
            assert all((second == a).sum() == 16 for a in (0, 1, 2))

    def test_lambda_length_validation(self):
        with pytest.raises(ConfigError):
            generate_trial(make_config(), TrendSpec("linear", lam=(0.5,) * 3), "null", seed=0)


class TestSliceForArm:
    def test_last_finisher_slice_is_full_dataset(self):
        ds = generate_trial(make_config(), TrendSpec.none(4), "null", seed=8)
        last = int(np.argmax(ds.timeline.exit)) + 1
        sl = slice_for_arm(ds, last)
        assert sl.y.size == len(ds)

    def test_slice_excludes_late_arm(self):
        # arm 4 enters at 751, after arm 1's exit (~667): no arm-4 data in D_1
        ds = generate_trial(make_config(M=1), TrendSpec.none(4), "null", seed=9)
        sl = slice_for_arm(ds, 1)
        assert ds.timeline.exit[0] < ds.timeline.entry[3]
        assert not (sl.arm == 4).any()

    def test_no_record_after_exit(self):
        ds = generate_trial(make_config(), TrendSpec.none(4), "null", seed=10)
        for m in range(1, 5):
            sl = slice_for_arm(ds, m)
            assert sl.t.max() == ds.timeline.exit[m - 1]

    def test_incomplete_arm_rejected(self):
        ds = generate_trial(make_config(), TrendSpec.none(4), "null", seed=11)
        sl = slice_for_arm(ds, 1)  # arm 3 is still recruiting in D_1
        assert 0 < (sl.arm == 3).sum() < 250
        cut = ds.t <= sl.horizon
        d1 = replace(ds, j=ds.j[cut], arm=ds.arm[cut], t=ds.t[cut], y=ds.y[cut])
        with pytest.raises(ConfigError, match="incomplete"):
            slice_for_arm(d1, 3)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = generate_trial(make_config(K=2, d=100, n=60, theta=(0.2, 0.2), M=2),
                            TrendSpec.none(2), "alternative", seed=12)
        path = tmp_path / "trial.csv"
        write_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "j,arm,time,response"
        back = read_csv(path)
        assert np.array_equal(back.j, ds.j)
        assert np.array_equal(back.arm, ds.arm)
        assert np.array_equal(back.y, ds.y)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patient,arm,time,response\n1,0,1,0.5\n")
        with pytest.raises(ConfigError, match="header"):
            read_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("j,arm,time,response\n1,0,1,abc\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            read_csv(path)

    @pytest.mark.parametrize("row", ["3,1,nan,0.5", "3,1,3.0,inf", "inf,1,3.0,0.5"])
    def test_non_finite_field(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"j,arm,time,response\n1,0,1,0.2\n2,1,2,0.1\n{row}\n")
        with pytest.raises(ConfigError, match="line 4: non-finite"):
            read_csv(path)

    @pytest.mark.parametrize("row, name", [("4,1.5,4.0,0.5", "arm"), ("5.7,1,5.0,0.5", "j")])
    def test_non_integer_id(self, tmp_path, row, name):
        path = tmp_path / "bad.csv"
        path.write_text(f"j,arm,time,response\n1,0,1,0.2\n2,1,2,0.1\n{row}\n")
        with pytest.raises(ConfigError, match=f"line 4: {name} must be an integer"):
            read_csv(path)

    def test_duplicate_j(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("j,arm,time,response\n1,0,1,0.2\n2,1,2,0.1\n1,0,1,0.2\n")
        with pytest.raises(ConfigError, match="line 4: duplicate j=1 .first on line 2"):
            read_csv(path)

    def test_empirical_timeline(self):
        arm = np.array([0, 1, 0, 2, 1, 2, 0])
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        tl = empirical_timeline(arm, t)
        assert tl.entry == (2.0, 4.0)
        assert tl.exit == (5.0, 6.0)
        assert derive_periods(tl.entry, tl.exit, 7.0, origin=1.0) == (1.0, 2.0, 4.0, 5.0, 6.0)
