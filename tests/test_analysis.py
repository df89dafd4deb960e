import copy
import csv
import gc
import json
import math
import pickle
import re
import time
import weakref
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platformtrial import analysis, mixed_model
from platformtrial.analysis import (
    ESTIMATORS,
    AnalysisSet,
    Diagnostics,
    FitResult,
    ModelSpec,
    default_model_set,
    fit,
    results_to_csv,
    results_to_json,
    slice_for_arm,
)
from platformtrial.datagen import (
    TREND_PATTERNS,
    TrendSpec,
    TrialDataset,
    empirical_timeline,
    generate_trial,
    read_csv,
    write_csv,
)
from platformtrial.design import ConfigError, TrialConfig, TrialTimeline, derive_calendar
from platformtrial.regression_engine import RankDeficiencyError, build_design, ols_fit
from platformtrial.simharness import Scenario, run_scenario

from oracles import qr_ols, two_sample_t


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


def manual_set(arm, y, t=None):
    """The analysis set of arm 1 of a hand-built dataset."""
    return slice_for_arm(manual_dataset(arm, y, t), 1)


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

    def test_hash_is_the_fields_hash_and_made_anew_from_a_pickle(self):
        spec = ModelSpec("spline_calendar", c_length=50, spline_degree=2, alpha=0.05, sided="two")
        assert hash(spec) == hash(("spline_calendar", 50, 2, 0.05, "two"))
        assert hash(replace(spec, c_length=75)) == hash(("spline_calendar", 75, 2, 0.05, "two"))
        # a hash kept on the spec does not travel: str hashes differ between processes
        object.__setattr__(spec, "_hash", 12345)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.label == "spline_calendar_q2"
        assert hash(copy) == hash(("spline_calendar", 50, 2, 0.05, "two")) != 12345

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
        ds = manual_set(arm, y)
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
        r = pooled(manual_set(arm, y), 1)
        assert r.t == 0.0
        assert r.p_one == 0.5

    @pytest.mark.parametrize("name", ["pooled", "separate"])
    @pytest.mark.parametrize("level", [0.1, 3.7, 1e3])
    def test_constant_groups_degenerate(self, name, level):
        # a regression leaves a rounding-level residual here, not an exact zero
        for arm in (np.array([0, 1] * 10), np.array([0, 0, 1] * 7)):
            ds = manual_set(arm, np.where(arm == 1, level, 2.0 * level))
            with pytest.raises(ConfigError, match="degenerate"):
                fit(ds, 1, ModelSpec(name))

    def test_empty_controls_error(self):
        arm = np.array([1, 1, 1, 1])
        with pytest.raises(ConfigError):
            pooled(manual_set(arm, np.zeros(4)), 1)

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


def row_level_design(sl, spec):
    """The row-level design of a least-squares estimator on the analysis set ``sl``."""
    kind = spec.kind
    if kind.timescale is None:
        controls = sl.arm == 0
        if kind.family == "separate":
            controls &= sl.t >= sl.m_entry
        rows = (sl.arm == sl.m) | controls
        return build_design(sl.t[rows], sl.arm[rows], sl.y[rows], treatments=(sl.m,))
    if kind.timescale == "period":
        starts = sl.period_starts
    else:
        starts = derive_calendar(sl.horizon, spec.c_length, start=sl.origin)
    return build_design(sl.t, sl.arm, sl.y, sl.treatments, adjustment=kind.timescale,
                        starts=starts, horizon=sl.horizon)


def imported(ds, rng):
    """``ds`` as read from a file: records shuffled, times real-valued and
    the arms relabeled, so that they enter out of label order."""
    labels = np.r_[0, rng.permutation(len(ds.timeline.entry)) + 1]
    order = rng.permutation(len(ds))
    arm = labels[ds.arm][order]
    t = (ds.t + rng.uniform(0.0, 0.9, len(ds)))[order]
    return TrialDataset(j=ds.j[order], arm=arm, t=t, y=ds.y[order],
                        timeline=empirical_timeline(arm, t))


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(min_value=2, max_value=8),
    d=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    from_file=st.booleans(),
    data=st.data(),
)
def test_least_squares_fits_match_pivoted_qr_oracle(K, d, seed, from_file, data):
    # the fixed fits (from cell statistics) and the t-tests against a QR
    # solve of the row-level design
    cfg = TrialConfig(K=K, d=d, n=30, eta0=0.0, theta=(0.3,) * K, sigma=1.0, M=K)
    trend = TrendSpec("linear", tuple(0.2 * k for k in range(K + 1)))
    ds = generate_trial(cfg, trend, "alternative", seed=seed)
    if from_file:
        ds = imported(ds, np.random.default_rng(seed))
    m = data.draw(st.integers(min_value=1, max_value=K), label="m")
    c_length = data.draw(st.floats(min_value=1.0, max_value=1000.0), label="c_length")
    sl = slice_for_arm(ds, m)
    for spec in (ModelSpec("fixed_period"), ModelSpec("fixed_calendar", c_length=c_length),
                 ModelSpec("pooled"), ModelSpec("separate")):
        dm = row_level_design(sl, spec)
        try:
            ols_fit(dm)
        except (ConfigError, RankDeficiencyError) as exc:
            # short c_lengths: more columns than records, or empty intervals
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                fit(sl, m, spec)
            continue
        r = fit(sl, m, spec)
        beta, cov, _, df = qr_ols(dm.X, dm.y)
        i = dm.columns.index(f"trt{m}")
        se = math.sqrt(cov[i, i])
        # relative to the estimate, or to its SE where the estimate is near zero
        assert abs(r.theta_hat - beta[i]) <= 1e-10 * max(abs(beta[i]), se), spec.label
        assert r.se == pytest.approx(se, rel=1e-10), spec.label
        diag = r.diagnostics
        assert (diag["df"], diag["n_obs"], diag["n_columns"]) == (df, *dm.X.shape), spec.label


class TestRankDeficiency:
    """Imported data whose design has an empty calendar interval or a
    treatment indicator equal to an interval indicator."""

    @staticmethod
    def gap_dataset():
        # no record in [21, 41): calendar intervals 3 and 4 (c_length 10) are empty
        t = np.r_[np.arange(1.0, 21.0), np.arange(41.0, 61.0)]
        arm = np.tile([0, 2, 0, 1], 10)
        return manual_set(arm, np.random.default_rng(11).normal(size=40), t)

    @staticmethod
    def duplicate_dataset():
        # arm 2 holds every record of [11, 21) and no other: trt2 == cal2
        t = np.arange(1.0, 41.0)
        arm = np.tile([0, 1], 20)
        arm[10:20] = 2
        return manual_set(arm, np.random.default_rng(12).normal(size=40), t)

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

    @staticmethod
    def assert_exact_fit_degenerate(monkeypatch, estimator):
        """The fixed effects reproduce the response: every model-based estimator
        fails by the exact-fit rule, a mixed one before any REML evaluation.
        Least squares leaves a residual sum of squares of up to 6.6e-31 y'y
        here, not zero, and reported an SE of ~1e-15; REML searched its whole
        grid, where sigma2 is zero at every point, and raised LinAlgError."""
        evaluations = []
        real_evaluate = mixed_model._RemlWorkspace.evaluate

        def counting_evaluate(self, *args):
            evaluations.append(args)
            return real_evaluate(self, *args)

        monkeypatch.setattr(mixed_model._RemlWorkspace, "evaluate", counting_evaluate)
        arm = np.array([0, 1] * 10)
        ds = manual_set(arm, np.where(arm == 1, 3.7, 7.4))
        with pytest.raises(ConfigError, match="degenerate test: zero standard error"):
            fit(ds, 1, ModelSpec(estimator, c_length=5))
        assert evaluations == []

    @pytest.mark.parametrize("estimator", ["mixed_period", "mixed_calendar",
                                           "mixed_period_ar1", "mixed_calendar_ar1",
                                           "mixedint_period", "mixedint_calendar"])
    def test_exact_fit_fails_in_mixed_estimators(self, monkeypatch, estimator):
        self.assert_exact_fit_degenerate(monkeypatch, estimator)

    @pytest.mark.parametrize("estimator", ["fixed_period", "fixed_calendar",
                                           "spline_period", "spline_calendar"])
    def test_exact_fit_degenerate_in_least_squares_estimators(self, monkeypatch, estimator):
        self.assert_exact_fit_degenerate(monkeypatch, estimator)

    def test_unsliced_dataset_rejected(self):
        ds = generate_trial(make_config(M=1), TrendSpec.none(4), "null", seed=6)
        with pytest.raises(ConfigError, match="slice_for_arm"):
            fit(ds, 1, ModelSpec("fixed_period"))

    def test_dataset_input_rejected(self):
        # a dataset that already ends at arm 1's exit is still not an analysis set
        ds = manual_dataset(np.array([0, 1] * 10), np.arange(20.0))
        with pytest.raises(ConfigError, match=r"slice_for_arm\(dataset, 1\)"):
            fit(ds, 1, ModelSpec("pooled"))

    def test_mixed_single_interval_falls_back_to_ols(self):
        rng = np.random.default_rng(7)
        arm = np.array([1, 0] * 39 + [0, 1])
        y = rng.normal(size=80) + 0.2 * (arm == 1)
        ds = manual_set(arm, y)
        r = fit(ds, 1, ModelSpec("mixed_period"))
        assert r.diagnostics["fallback"] == "ols_single_interval"
        fp = fit(ds, 1, ModelSpec("fixed_period"))
        assert r.theta_hat == pytest.approx(fp.theta_hat, abs=1e-12)

    @pytest.mark.parametrize("c_length", [700, 1000])
    def test_ar1_over_one_random_interval_reports_no_rho(self, c_length):
        # arm 3's set spans two calendar intervals, so one random group
        ds = generate_trial(make_config(), TrendSpec("linear", lam=(0.5,) * 5), "null", seed=7)
        sl = slice_for_arm(ds, 3)
        ar1 = fit(sl, 3, ModelSpec("mixed_calendar_ar1", c_length=c_length))
        independent = fit(sl, 3, ModelSpec("mixed_calendar", c_length=c_length))
        assert ar1.diagnostics["n_random_columns"] == 1 and "rho" not in ar1.diagnostics
        assert (ar1.theta_hat, ar1.se, ar1.diagnostics) == (
            independent.theta_hat, independent.se, independent.diagnostics)

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
        ds = manual_set(arm, y)
        one = fit(ds, 1, ModelSpec("fixed_period", alpha=0.025, sided="one_greater"))
        two = fit(ds, 1, ModelSpec("fixed_period", alpha=0.025, sided="two"))
        assert not one.reject  # wrong direction
        assert two.reject
        assert one.p_one > 0.5


def every_estimator(c_length=100.0):
    return [ModelSpec(name, c_length=c_length) for name in ESTIMATORS]


class TestPrepare:
    """The analysis set that slice_for_arm makes for every fit."""

    def test_fits_leave_a_shared_set_unchanged(self):
        ds = generate_trial(make_config(d=100), TrendSpec.none(4), "null", seed=4)
        prepared = slice_for_arm(ds, 3)
        before = {name: getattr(prepared, name).copy() for name in ("t", "arm", "y")}
        scalars = (prepared.horizon, prepared.origin, prepared.treatments, prepared.m_entry,
                   prepared.period_starts)
        for spec in every_estimator():
            fit(prepared, 3, spec)
        for name, values in before.items():
            now = getattr(prepared, name)
            assert not now.flags.writeable
            assert now.dtype == values.dtype and now.tobytes() == values.tobytes(), name
        assert (prepared.horizon, prepared.origin, prepared.treatments, prepared.m_entry,
                prepared.period_starts) == scalars
        # the caller's arrays stay writable
        assert all(getattr(ds, name).flags.writeable for name in ("j", "t", "arm", "y"))
        with pytest.raises(ValueError, match="read-only"):
            prepared.y[0] = 0.0

    def test_only_period_estimators_read_the_timeline(self):
        # a hand-built set whose timeline opens no period before arm 1's last
        # record, or that has no timeline, still fits the t-tests
        ds = generate_trial(make_config(d=100), TrendSpec.none(4), "null", seed=6)
        sl = slice_for_arm(ds, 1)
        late = float(sl.t.max()) + 1
        prepared = slice_for_arm(
            replace(ds, timeline=TrialTimeline(entry=(late,) * 4, exit=(late + 1,) * 4)), 1
        )
        assert fit(prepared, 1, ModelSpec("pooled")) == fit(sl, 1, ModelSpec("pooled"))
        with pytest.raises(ConfigError, match="no arms active"):
            fit(prepared, 1, ModelSpec("fixed_period"))
        no_timeline = slice_for_arm(replace(ds, timeline=None), 1)
        assert no_timeline.m_entry == float(sl.t[sl.arm == 1].min())
        for spec in (ModelSpec("pooled"), ModelSpec("separate")):
            assert np.isfinite(fit(no_timeline, 1, spec).theta_hat)

    def test_set_prepared_for_another_arm_rejected(self):
        prepared = slice_for_arm(
            generate_trial(make_config(d=100), TrendSpec.none(4), "null", seed=5), 2
        )
        assert isinstance(prepared, AnalysisSet) and prepared.m == 2
        with pytest.raises(ConfigError, match="arm 2.*arm 3"):
            fit(prepared, 3, ModelSpec("fixed_period"))


class TestKeptFits:
    @pytest.fixture
    def core_calls(self, monkeypatch):
        """Every fit actually run: each call of the fitting core that fit makes,
        and each partition of the fixed-effect cell passes."""
        calls = []
        real_fit, real_cells = analysis._fit, analysis.cell_ols_each

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        def counting_cells(records, partitions, horizon):
            calls.extend(partitions)
            return real_cells(records, partitions, horizon)

        monkeypatch.setattr(analysis, "_fit", counting_fit)
        monkeypatch.setattr(analysis, "cell_ols_each", counting_cells)
        return calls

    @staticmethod
    def sliced(seed=4, planned=()):
        dataset = generate_trial(make_config(d=100), TrendSpec.none(4), "null", seed=seed)
        return slice_for_arm(dataset, 3, planned=planned)

    def test_equal_spec_answered_without_refitting(self, core_calls):
        prepared, fresh = self.sliced(), self.sliced()
        for spec in every_estimator():
            first = fit(prepared, 3, spec)
            done = len(core_calls)
            # an equal spec, not the same object
            again = fit(prepared, 3, ModelSpec(spec.estimator, c_length=100.0))
            assert len(core_calls) == done, spec.label
            assert again == first == fit(fresh, 3, spec), spec.label
        assert len(prepared.fits) == len(ESTIMATORS)

    def test_specs_differing_in_one_option_each_fit(self, core_calls):
        prepared = self.sliced()
        base = ModelSpec("fixed_calendar", c_length=100.0, alpha=0.5)
        specs = [base, replace(base, alpha=0.3), replace(base, sided="two"),
                 replace(base, c_length=60.0)]
        results = [fit(prepared, 3, spec) for spec in specs]
        assert len(core_calls) == len(specs) and len(prepared.fits) == len(specs)
        assert [r.reject for r in results[:3]] == [True, False, False]
        assert results[3].theta_hat != results[0].theta_hat
        for spec, result in zip(specs, results):
            assert fit(prepared, 3, spec) == result == fit(self.sliced(), 3, spec)

    def test_failing_spec_raises_on_every_call(self, core_calls):
        # an exact fit, by a cell pass and by _fit: fitted once, its failure kept
        arm = np.array([0, 1] * 10)
        prepared = manual_set(arm, np.where(arm == 1, 3.7, 7.4))
        specs = (ModelSpec("fixed_period"), ModelSpec("mixed_period"))
        for fitted, spec in enumerate(specs, start=1):
            for _ in range(3):
                with pytest.raises(ConfigError, match="degenerate") as raised:
                    fit(prepared, 1, spec)
                assert len(core_calls) == fitted
                assert raised.value is prepared.fits[spec]
        assert list(prepared.fits) == list(specs)

    def test_other_exceptions_not_kept(self, monkeypatch):
        # a programming error is no outcome of the fit: raised on every call
        calls = []

        def broken_fit(*args):
            calls.append(args)
            raise TypeError("programming error")

        monkeypatch.setattr(analysis, "_fit", broken_fit)
        prepared = self.sliced()
        for n in (1, 2, 3):
            with pytest.raises(TypeError, match="programming error"):
                fit(prepared, 3, ModelSpec("mixed_period"))
            assert len(calls) == n
        assert prepared.fits == {}

    @pytest.mark.parametrize("estimator", ["fixed_period", "mixed_period"])
    def test_kept_failure_keeps_no_set_alive(self, estimator):
        # without the cyclic collector, a set whose fits failed dies once
        # dropped: the failure raised, and the planned one kept unraised
        arm = np.array([0, 1] * 10)
        planned = (ModelSpec(estimator), ModelSpec("fixed_calendar", c_length=5))
        gc.disable()
        try:
            prepared = slice_for_arm(manual_dataset(arm, np.where(arm == 1, 3.7, 7.4)), 1,
                                     planned=planned)
            dropped = weakref.ref(prepared)
            for _ in range(2):
                with pytest.raises(ConfigError) as raised:
                    fit(prepared, 1, ModelSpec(estimator))
                assert raised.tb is not None  # the caller still gets a traceback
            del prepared
            assert dropped() is None
        finally:
            gc.enable()

    def test_every_call_gets_the_one_read_only_result(self):
        # no call can change what another call reads: the one kept result,
        # its fields and its diagnostics refuse every change
        prepared = self.sliced()
        first = fit(prepared, 3, ModelSpec("mixed_period"))
        expected = dict(first.diagnostics)
        changes = (
            lambda d: d.__setitem__("converged", False), lambda d: d.__delitem__("converged"),
            lambda d: d.update(converged=False), lambda d: d.clear(),
            lambda d: d.pop("converged"), lambda d: d.popitem(),
            lambda d: d.setdefault("rho", 0.5), lambda d: d.__ior__({"rho": 0.5}),
        )
        for change in changes:
            with pytest.raises(TypeError, match="read-only"):
                change(first.diagnostics)
        with pytest.raises(FrozenInstanceError):
            first.diagnostics = {}
        assert fit(prepared, 3, ModelSpec("mixed_period")) is first
        assert first.diagnostics == expected and type(first.diagnostics) is Diagnostics

    def test_a_result_works_with_the_standard_copy_tools(self):
        result = fit(self.sliced(), 3, ModelSpec("mixed_period"))
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result),
                       copy.copy(result)):
            assert copied == result and type(copied.diagnostics) is Diagnostics
            with pytest.raises(TypeError, match="read-only"):
                copied.diagnostics["converged"] = False
        assert replace(result, se=1.0).diagnostics == result.diagnostics
        assert asdict(result)["diagnostics"] == dict(result.diagnostics)
        assert json.loads(json.dumps(result.diagnostics)) == dict(result.diagnostics)
        # a plain dict given is made read-only
        made = FitResult("pooled", 1, 0.1, 1.0, 0.1, 0.46, 0.92, False, {"df": 3})
        assert type(made.diagnostics) is Diagnostics and made.diagnostics == {"df": 3}

def imported_trial(rng, K, n, gap):
    """Real-valued times in shuffled order, arms entering and leaving at
    random, labelled 1..K in a random order; ``gap`` leaves a stretch of time
    without records."""
    t = np.sort(rng.uniform(1.0, float(n), n))
    if gap:
        lo = rng.uniform(1.0, n / 2)
        t = t[(t < lo) | (t > lo + n / 4)]
    entry = rng.uniform(1.0, 0.6 * n, K)
    exit_ = entry + rng.uniform(0.2, 1.0, K) * (n - entry)
    arm = np.array([rng.choice([0, *np.flatnonzero((entry <= x) & (x <= exit_)) + 1]) for x in t])
    arm[rng.integers(t.size)] = rng.integers(1, K + 1)  # one experimental record at least
    present = np.unique(arm[arm > 0])
    relabel = np.zeros(K + 1, dtype=np.int64)
    relabel[present] = rng.permutation(present.size) + 1
    arm = relabel[arm]
    y = 0.3 * arm + 0.002 * t + rng.normal(size=t.size)
    order = rng.permutation(t.size)
    return manual_dataset(arm[order], y[order], t[order]), present.size


class TestFixedEffectBatch:
    """One cell pass fits a set's planned fixed-effect specs as each alone."""

    @staticmethod
    def assert_batch_as_alone(ds, m, specs):
        batch_set = slice_for_arm(ds, m, planned=specs)
        first = fit_outcome(batch_set, m, specs[0])
        # a FitResult, or the class and message of the error
        alone = [fit_outcome(slice_for_arm(ds, m), m, spec) for spec in specs]
        # the first fit kept every spec's outcome, its result or its failure
        assert set(batch_set.fits) == set(specs) and batch_set.planned == tuple(specs)
        assert first == alone[0]
        for spec, expected in zip(specs, alone):
            # a kept fit is answered, a kept failure raised, on every call
            assert fit_outcome(batch_set, m, spec) == expected
            assert fit_outcome(batch_set, m, spec) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        K=st.integers(min_value=2, max_value=8),
        imported=st.booleans(),
        gap=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_each_spec_fits_as_alone(self, K, imported, gap, seed, data):
        rng = np.random.default_rng(seed)
        if imported:
            ds, n_arms = imported_trial(rng, K, data.draw(st.integers(20, 300), label="n"), gap)
        else:
            config = make_config(K=K, d=data.draw(st.integers(0, 60), label="d"),
                                 n=data.draw(st.integers(2, 40), label="n"), theta=(0.25,) * K, M=K)
            ds, n_arms = generate_trial(config, TrendSpec("linear", (0.5,) * (K + 1)), "null",
                                        seed=seed), K
        m = data.draw(st.integers(1, n_arms), label="m")
        span = float(ds.t.max() - ds.t.min())
        c_lengths = data.draw(st.lists(
            st.one_of(st.floats(1.0, 1.5 * span + 1.0), st.integers(1, int(1.5 * span) + 2),
                      st.just(span + 1.0)),
            min_size=1, max_size=6), label="c_lengths")
        # each spec tests at its own level and sidedness in the one Wald pass
        tests = st.fixed_dictionaries({"alpha": st.sampled_from([0.025, 0.05, 0.2, 0.6]),
                                       "sided": st.sampled_from(["one_greater", "two"])})
        specs = [ModelSpec("fixed_calendar", c_length=c, **data.draw(tests, label="tests"))
                 for c in c_lengths]
        specs.insert(data.draw(st.integers(0, len(specs)), label="period_at"),
                     ModelSpec("fixed_period", **data.draw(tests, label="period tests")))
        self.assert_batch_as_alone(ds, m, specs)

    def test_exact_fit_degenerate_in_the_batch_as_alone(self):
        # the dataset of test_exact_fit_degenerate_in_least_squares_estimators
        arm = np.array([0, 1] * 10)
        ds = manual_dataset(arm, np.where(arm == 1, 3.7, 7.4))
        specs = [ModelSpec("fixed_calendar", c_length=c) for c in (5, 20, 7.5)]
        self.assert_batch_as_alone(ds, 1, [*specs, ModelSpec("fixed_period")])
        with pytest.raises(ConfigError, match="degenerate"):
            fit(manual_set(arm, np.where(arm == 1, 3.7, 7.4)), 1, specs[0])

    def test_partition_finer_than_the_records_refused_before_it_is_built(self):
        # 6 records over a span of a billion time units: c_length 1 would cut a
        # billion intervals; the set refuses it, and its other specs still fit
        arm = np.array([0, 1, 0, 1, 0, 1])
        t = np.array([-1e9, -1e9, 1.0, 2.0, 3.0, 4.0])
        ds = manual_dataset(arm, np.array([0.3, 1.1, -0.2, 0.9, 0.1, 1.4]), t)
        calendar = [ModelSpec(name, c_length=1) for name in
                    ("fixed_calendar", "spline_calendar", "mixed_calendar", "mixedint_calendar")]
        t0 = time.perf_counter()
        for spec in calendar:
            with pytest.raises(ConfigError, match=r"c_length 1\.0 makes 1000000005 calendar "
                                                  r"intervals; at most 6 allowed"):
                fit(slice_for_arm(ds, 1), 1, spec)
        specs = [ModelSpec("fixed_period"), calendar[0], ModelSpec("fixed_calendar", c_length=2e9)]
        self.assert_batch_as_alone(ds, 1, specs)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(fit_outcome(slice_for_arm(ds, 1), 1, specs[2]), FitResult)

    def test_equal_specs_fitted_once(self, monkeypatch):
        partitions = []
        real_cells = analysis.cell_ols_each

        def counting_cells(records, parts, horizon):
            partitions.extend(parts)
            return real_cells(records, parts, horizon)

        monkeypatch.setattr(analysis, "cell_ols_each", counting_cells)
        specs = [ModelSpec("fixed_calendar", c_length=50), ModelSpec("fixed_calendar", c_length=50.0),
                 ModelSpec("fixed_period"), ModelSpec("fixed_period")]
        analysis_set = TestKeptFits.sliced(planned=specs)
        results = [fit(analysis_set, 3, spec) for spec in specs]
        assert len(partitions) == 2
        assert results[0] == results[1] and results[2] == results[3]


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
