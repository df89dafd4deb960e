import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platformtrial.analysis import (
    ESTIMATORS,
    ModelSpec,
    default_model_set,
    fit,
    results_to_csv,
    results_to_json,
)
from platformtrial.datagen import (
    TREND_PATTERNS,
    TrendSpec,
    TrialDataset,
    empirical_timeline,
    generate_trial,
    read_csv,
    slice_for_arm,
    write_csv,
)
from platformtrial.design import ConfigError, TrialConfig
from platformtrial.regression_engine import RankDeficiencyError
from platformtrial.simharness import Scenario, run_scenario

from oracles import two_sample_t


def make_config(**kw):
    base = dict(K=4, d=250, n=250, eta0=0.0, theta=(0.25,) * 4, sigma=1.0, M=3)
    base.update(kw)
    return TrialConfig(**base)


def pooled(ds, m):
    return fit(ds, m, ModelSpec("pooled"))


def separate(ds, m):
    return fit(ds, m, ModelSpec("separate"))


def manual_dataset(arm, y, t=None):
    arm = np.asarray(arm, dtype=np.int64)
    y = np.asarray(y, dtype=float)
    j = np.arange(1, arm.size + 1, dtype=np.int64)
    t = j.astype(float) if t is None else np.asarray(t, dtype=float)
    return TrialDataset(j=j, arm=arm, t=t, y=y, timeline=empirical_timeline(arm, t))


class TestModelSpec:
    def test_calendar_requires_c_length(self):
        with pytest.raises(ConfigError):
            ModelSpec("fixed_calendar")
        ModelSpec("fixed_calendar", c_length=100)

    @pytest.mark.parametrize("c_length", [float("nan"), float("inf")])
    def test_non_finite_c_length_rejected(self, c_length):
        with pytest.raises(ConfigError, match="finite"):
            ModelSpec("fixed_calendar", c_length=c_length)

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            ModelSpec("bayes_machine")

    def test_spline_degree_validated(self):
        with pytest.raises(ConfigError):
            ModelSpec("spline_period", spline_degree=5)

    @pytest.mark.parametrize("degree", [2.0, True])
    def test_non_integer_spline_degree_rejected(self, degree):
        with pytest.raises(ConfigError, match="spline degree"):
            ModelSpec("spline_period", spline_degree=degree)

    def test_labels(self):
        assert ModelSpec("fixed_period").label == "fixed_period"
        assert ModelSpec("spline_period", spline_degree=2).label == "spline_period_q2"

    def test_default_battery_matches_case_study_rows(self):
        labels = [s.label for s in default_model_set(90.0)]
        assert labels == [
            "fixed_period", "fixed_calendar", "mixed_calendar", "mixed_calendar_ar1",
            "spline_period_q3", "spline_calendar_q3", "pooled", "separate",
        ]


class TestTwoSampleBaselines:
    def test_one_period_identity(self):
        # single period, single treatment: fixed_period == pooled == separate
        # (arm 1 spans t=1..60, so the empirical timeline has one period)
        rng = np.random.default_rng(0)
        arm = np.array([1, 0] * 29 + [0, 1])
        y = rng.normal(0.0, 1.0, 60) + 0.3 * (arm == 1)
        ds = manual_dataset(arm, y)
        fp = fit(ds, 1, ModelSpec("fixed_period"))
        po = pooled(ds, 1)
        se_ = separate(ds, 1)
        for a, b in [(fp, po), (po, se_)]:
            assert a.theta_hat == pytest.approx(b.theta_hat, abs=1e-10)
            assert a.se == pytest.approx(b.se, abs=1e-10)
            assert a.p_one == pytest.approx(b.p_one, abs=1e-10)

    def test_identical_groups_t_zero(self):
        arm = np.array([0, 1] * 10)
        y = np.tile([1.0, 1.0, 2.0, 2.0], 5)
        r = pooled(manual_dataset(arm, y), 1)
        assert r.t == 0.0
        assert r.p_one == 0.5

    @pytest.mark.parametrize("name", ["pooled", "separate"])
    @pytest.mark.parametrize("level", [0.1, 3.7, 1e3])
    def test_constant_groups_degenerate(self, name, level):
        # a regression leaves a rounding-level residual here, not an exact zero
        for arm in (np.array([0, 1] * 10), np.array([0, 0, 1] * 7)):
            ds = manual_dataset(arm, np.where(arm == 1, level, 2.0 * level))
            with pytest.raises(ConfigError, match="degenerate"):
                fit(ds, 1, ModelSpec(name))

    def test_empty_controls_error(self):
        arm = np.array([1, 1, 1, 1])
        with pytest.raises(ConfigError):
            pooled(manual_dataset(arm, np.zeros(4)), 1)

    def test_ncc_exclusion_identity_for_first_arm(self):
        # for the first-entering arm every control is concurrent
        ds = generate_trial(make_config(M=1), TrendSpec.none(4), "null", seed=3)
        sl = slice_for_arm(ds, 1)
        po = pooled(sl, 1)
        se_ = separate(sl, 1)
        assert po.theta_hat == pytest.approx(se_.theta_hat, abs=1e-12)
        assert po.p_one == pytest.approx(se_.p_one, abs=1e-12)

    def test_separate_concurrent_control_count(self):
        cfg = make_config()
        ds = generate_trial(cfg, TrendSpec.none(4), "null", seed=4)
        sl = slice_for_arm(ds, 3)
        r = separate(sl, 3)
        entry = ds.timeline.entry[2]
        exit_ = ds.timeline.exit[2]
        expected = int(((sl.arm == 0) & (sl.t >= entry) & (sl.t <= exit_)).sum())
        assert r.diagnostics["n_controls_concurrent"] == expected

    def test_separate_uses_own_first_record_as_entry(self):
        # arm 2 enrolls before arm 1: each arm's concurrent controls start at
        # its own first record, whatever the arm order
        arm = np.array([0, 2, 0, 2, 0, 1, 0, 2, 1, 0, 1, 0, 2, 1, 0, 1, 2, 0])
        y = np.random.default_rng(7).normal(size=arm.size)
        ds = manual_dataset(arm, y)
        assert ds.timeline.entry == (6.0, 2.0)
        for m in (1, 2):
            sl = slice_for_arm(ds, m)
            first = sl.t[sl.arm == m].min()
            controls = (sl.arm == 0) & (sl.t >= first)
            r = separate(sl, m)
            assert r.diagnostics["n_controls_concurrent"] == int(controls.sum())
            assert r.theta_hat == pytest.approx(
                sl.y[sl.arm == m].mean() - sl.y[controls].mean(), abs=1e-12
            )


@settings(max_examples=25, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_t_tests_match_closed_form_oracle(K, d, seed, data):
    cfg = TrialConfig(K=K, d=d, n=30, eta0=0.0, theta=(0.3,) * K, sigma=1.0, M=K)
    trend = TrendSpec("linear", tuple(0.2 * k for k in range(K + 1)))
    ds = generate_trial(cfg, trend, "alternative", seed=seed)
    m = data.draw(st.integers(min_value=1, max_value=K), label="m")
    sl = slice_for_arm(ds, m)
    for name in ("pooled", "separate"):
        r = fit(sl, m, ModelSpec(name))
        controls = sl.arm == 0
        if name == "separate":
            controls &= sl.t >= ds.timeline.entry[m - 1]
        estimate, se, df = two_sample_t(sl.y[sl.arm == m], sl.y[controls])
        assert r.theta_hat == pytest.approx(estimate, rel=1e-12, abs=1e-12), name
        assert r.se == pytest.approx(se, rel=1e-12), name
        assert r.t == pytest.approx(estimate / se, rel=1e-12, abs=1e-12), name
        assert r.diagnostics["df"] == df, name
        assert r.diagnostics["n_controls"] == int(controls.sum()), name


class TestRankDeficiency:
    """Imported data whose design has an empty calendar interval or a
    treatment indicator equal to an interval indicator."""

    @staticmethod
    def gap_dataset():
        # no record in [21, 41): calendar intervals 3 and 4 (c_length 10) are empty
        t = np.r_[np.arange(1.0, 21.0), np.arange(41.0, 61.0)]
        arm = np.tile([0, 2, 0, 1], 10)
        return manual_dataset(arm, np.random.default_rng(11).normal(size=40), t)

    @staticmethod
    def duplicate_dataset():
        # arm 2 holds every record of [11, 21) and no other: trt2 == cal2
        t = np.arange(1.0, 41.0)
        arm = np.tile([0, 1], 20)
        arm[10:20] = 2
        return manual_dataset(arm, np.random.default_rng(12).normal(size=40), t)

    @pytest.mark.parametrize("estimator", ["fixed_calendar", "mixedint_calendar"])
    @pytest.mark.parametrize("dataset, involved", [
        ("gap_dataset", ["cal3", "cal4"]),
        ("duplicate_dataset", ["trt2", "cal2"]),
    ], ids=["empty_interval", "duplicated_column"])
    def test_fit_names_exactly_the_columns_involved(self, estimator, dataset, involved):
        ds = getattr(self, dataset)()
        with pytest.raises(RankDeficiencyError) as exc:
            fit(ds, 1, ModelSpec(estimator, c_length=10))
        assert exc.value.columns == involved


class TestFitDispatch:
    def test_noise_free_effect_recovered_by_every_estimator(self):
        cfg = make_config(sigma=1e-12)
        ds = generate_trial(cfg, TrendSpec.none(4), "alternative", seed=5)
        sl = slice_for_arm(ds, 3)
        specs = [
            ModelSpec("fixed_period"),
            ModelSpec("fixed_calendar", c_length=100),
            ModelSpec("spline_period"),
            ModelSpec("spline_calendar", c_length=450),
            ModelSpec("mixed_period"),
            ModelSpec("mixed_calendar", c_length=100),
            ModelSpec("mixed_period_ar1"),
            ModelSpec("mixed_calendar_ar1", c_length=100),
            ModelSpec("mixedint_period"),
            ModelSpec("mixedint_calendar", c_length=100),
        ]
        for spec in specs:
            r = fit(sl, 3, spec)
            assert r.theta_hat == pytest.approx(0.25, abs=1e-6), spec.label

    def test_unsliced_dataset_rejected(self):
        ds = generate_trial(make_config(M=1), TrendSpec.none(4), "null", seed=6)
        with pytest.raises(ConfigError, match="slice_for_arm"):
            fit(ds, 1, ModelSpec("fixed_period"))

    def test_mixed_single_interval_falls_back_to_ols(self):
        rng = np.random.default_rng(7)
        arm = np.array([1, 0] * 39 + [0, 1])
        y = rng.normal(size=80) + 0.2 * (arm == 1)
        ds = manual_dataset(arm, y)
        r = fit(ds, 1, ModelSpec("mixed_period"))
        assert r.diagnostics["fallback"] == "ols_single_interval"
        fp = fit(ds, 1, ModelSpec("fixed_period"))
        assert r.theta_hat == pytest.approx(fp.theta_hat, abs=1e-12)

    def test_diagnostics_carry_model_metadata(self):
        ds = generate_trial(make_config(), TrendSpec.none(4), "null", seed=8)
        sl = slice_for_arm(ds, 3)
        r = fit(sl, 3, ModelSpec("mixed_calendar_ar1", c_length=100))
        assert {"df", "n_obs", "n_intervals", "n_random_columns", "sigma2_random",
                "rho", "converged", "boundary"} <= set(r.diagnostics)
        r2 = fit(sl, 3, ModelSpec("spline_period"))
        assert r2.diagnostics["spline_degree"] == 3

    @pytest.mark.parametrize("lam, boundary", [(0.0, True), (2.0, False)],
                             ids=["no_group_effect", "large_group_effect"])
    def test_reml_fits_report_boundary(self, lam, boundary):
        # random interval intercepts absorb the trend: none gives gamma -> 0
        ds = generate_trial(make_config(), TrendSpec("linear", lam=(lam,) * 5), "null", seed=1)
        diag = fit(slice_for_arm(ds, 3), 3, ModelSpec("mixed_period")).diagnostics
        assert diag["boundary"] is boundary
        assert bool(diag["sigma2_random"] < 1e-12) is boundary

    def test_sidedness_controls_rejection(self):
        rng = np.random.default_rng(9)
        arm = np.array([0, 1] * 200)
        y = rng.normal(size=400) - 0.5 * (arm == 1)  # strongly negative effect
        ds = manual_dataset(arm, y)
        one = fit(ds, 1, ModelSpec("fixed_period", alpha=0.025, sided="one_greater"))
        two = fit(ds, 1, ModelSpec("fixed_period", alpha=0.025, sided="two"))
        assert not one.reject  # wrong direction
        assert two.reject
        assert one.p_one > 0.5


class TestMonteCarloProperties:
    def test_pooled_unbiased_without_trend(self):
        sc = Scenario(
            config=make_config(), trend=TrendSpec.none(4),
            estimators=(ModelSpec("pooled"),), hypothesis="null",
            replicates=600, seed=101,
        )
        st = run_scenario(sc).per_estimator["pooled"]
        assert abs(st.mean_est) < 3.5 * st.emp_se / math.sqrt(st.reps)

    def test_pooled_biased_upward_under_positive_trend_for_late_arm(self):
        # early (non-concurrent) controls drag the control mean down
        sc = Scenario(
            config=make_config(), trend=TrendSpec("linear", lam=(0.5,) * 5),
            estimators=(ModelSpec("pooled"),), hypothesis="null",
            replicates=300, seed=102,
        )
        st = run_scenario(sc).per_estimator["pooled"]
        assert st.mean_est > 5.0 * st.emp_se / math.sqrt(st.reps)

    def test_adjusted_estimators_unbiased_under_equal_trends(self):
        sc = Scenario(
            config=make_config(), trend=TrendSpec("linear", lam=(0.5,) * 5),
            estimators=(ModelSpec("fixed_period"), ModelSpec("spline_period")),
            hypothesis="null", replicates=300, seed=103,
        )
        oc = run_scenario(sc)
        for label in ("fixed_period", "spline_period_q3"):
            st = oc.per_estimator[label]
            assert abs(st.mean_est) < 4.0 * st.emp_se / math.sqrt(st.reps), label


class TestSerialization:
    @staticmethod
    def _results():
        ds = generate_trial(make_config(K=2, d=100, n=80, theta=(0.25, 0.25), M=2),
                            TrendSpec.none(2), "alternative", seed=10)
        sl = slice_for_arm(ds, 2)
        return [fit(sl, 2, ModelSpec(e)) for e in ("fixed_period", "pooled", "separate")]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        results_to_csv(self._results(), path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        header = rows[0].keys()
        assert list(header)[:7] == ["estimator", "arm", "theta_hat", "se", "p_one", "p_two", "reject"]
        assert all(k.startswith("diag_") for k in list(header)[7:])
        assert rows[0]["estimator"] == "fixed_period"
        float(rows[0]["theta_hat"])  # parses

    def test_json_mirror(self, tmp_path):
        path = tmp_path / "results.json"
        results_to_json(self._results(), path)
        rows = json.loads(path.read_text())
        assert {r["estimator"] for r in rows} == {"fixed_period", "pooled", "separate"}
        assert all("theta_hat" in r and "p_two" in r for r in rows)


def fit_outcome(ds, m, spec):
    """The FitResult, or the class and message of the error the fit raised."""
    try:
        return fit(ds, m, spec)
    except (ConfigError, RankDeficiencyError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


@settings(max_examples=25, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=0, max_value=300),
    pattern=st.sampled_from(TREND_PATTERNS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_csv_round_trip_fits_like_memory(tmp_path_factory, K, d, pattern, seed, data):
    # the CSV carries no eligibility times, so the in-memory side gets the
    # timeline read_csv rebuilds from the records, not the simulated one
    cfg = TrialConfig(K=K, d=d, n=30, eta0=0.0, theta=(0.3,) * K, sigma=1.0, M=K)
    lam = tuple(0.0 if pattern == "none" else 0.1 * k for k in range(K + 1))
    trend = TrendSpec(pattern, lam, n_p=20, psi=1.5)
    ds = generate_trial(cfg, trend, "alternative", seed=seed)
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    write_csv(ds, path)
    back = read_csv(path)
    for name in ("j", "arm", "t", "y"):
        a, b = getattr(ds, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    memory = replace(ds, timeline=empirical_timeline(ds.arm, ds.t))
    assert back.timeline == memory.timeline
    m = data.draw(st.integers(min_value=1, max_value=K), label="m")
    c_length = data.draw(st.sampled_from([25.0, 60.0, 150.0]), label="c_length")
    sliced_back, sliced_memory = slice_for_arm(back, m), slice_for_arm(memory, m)
    for name in ESTIMATORS:
        spec = ModelSpec(name, c_length=c_length)
        assert fit_outcome(sliced_back, m, spec) == fit_outcome(sliced_memory, m, spec), name
