import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platformtrial import regression_engine
from platformtrial.design import ConfigError
from platformtrial.regression_engine import (
    DesignMatrix,
    RankDeficiencyError,
    build_design,
    cell_ols_each,
    exact_fits,
    ols_fit,
    sort_cells,
    t_test,
    wald_test,
)
from platformtrial.mixed_model import reml_fit
from platformtrial.spline import knots_at

from oracles import column_stack_design, normal_equations_ols, qr_ols, scalar_t_test, t_sf_quad


class TestStudentT:
    def test_against_quadrature_oracle(self):
        # acceptance tolerance 1e-10 on a (df, t) grid
        for df in (1, 2, 3, 5, 10, 30, 120, 498, 1526):
            for t in (-8.0, -3.3, -1.5, -0.3, 0.0, 0.4, 1.0, 1.9647, 2.8, 6.0):
                assert t_test(t, 1.0, df).p_one == pytest.approx(t_sf_quad(t, df), abs=1e-10)

    def test_symmetry_and_limits(self):
        assert t_test(0.0, 1.0, 7).p_one == 0.5
        upper = t_test(2.0, 1.0, 9).p_one
        assert t_test(-2.0, 1.0, 9).p_one == pytest.approx(1.0 - upper, abs=1e-14)

    def test_two_sided_p_near_five_percent(self):
        p_two = 2.0 * t_test(1.9647, 1.0, 498).p_one
        assert p_two == pytest.approx(2.0 * t_sf_quad(1.9647, 498), abs=1e-10)
        assert p_two == pytest.approx(0.05, abs=5e-4)

    def test_bad_df(self):
        with pytest.raises(ConfigError):
            t_test(1.0, 1.0, 0)


class TestOlsFit:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        fit = ols_fit(DesignMatrix(X=X, y=X @ b, columns=("i", "a", "b", "c")))
        assert np.abs(fit.beta - b).max() < 1e-10

    def test_two_group_closed_form(self):
        rng = np.random.default_rng(1)
        y0, y1 = rng.normal(0, 1, 30), rng.normal(0.5, 1, 20)
        X = np.column_stack([np.ones(50), np.r_[np.zeros(30), np.ones(20)]])
        fit = ols_fit(DesignMatrix(X=X, y=np.r_[y0, y1], columns=("intercept", "trt1")))
        wt = wald_test(fit, "trt1")
        est, se = wt.estimate, wt.se
        assert est == pytest.approx(y1.mean() - y0.mean(), abs=1e-12)
        sp2 = (((y0 - y0.mean()) ** 2).sum() + ((y1 - y1.mean()) ** 2).sum()) / 48
        assert se == pytest.approx(math.sqrt(sp2 * (1 / 30 + 1 / 20)), abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 4))])
        y = rng.normal(size=200)
        fit = ols_fit(DesignMatrix(X=X, y=y, columns=tuple("abcde")))
        beta_o, cov_o, sigma2_o, df_o = normal_equations_ols(X, y)
        assert np.abs(fit.beta - beta_o).max() < 1e-8
        assert np.abs(fit.cov - cov_o).max() < 1e-8
        assert fit.sigma2_hat == pytest.approx(sigma2_o, rel=1e-10)
        assert fit.df == df_o

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 5))])
        y = rng.normal(size=120)
        fit = ols_fit(DesignMatrix(X=X, y=y, columns=tuple("abcdef")))
        r = y - X @ fit.beta
        scale = np.abs(X).max() * np.abs(y).max()
        assert np.abs(X.T @ r).max() < 1e-8 * scale

    def test_exact_fits_flags_least_squares_fits_that_reproduce_y(self):
        # a noise-free fit leaves rounding noise, not a zero residual; REML's
        # fits are never flagged, as their sigma2 is no residual mean square
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        y = X @ np.array([1.0, -2.0, 0.5, 3.0])
        exact = ols_fit(DesignMatrix(X=X, y=y, columns=tuple("iabc")))
        y_noisy = y + 1e-6 * rng.normal(size=40)
        noisy = ols_fit(DesignMatrix(X=X, y=y_noisy, columns=tuple("iabc")))
        assert exact.sigma2_hat * exact.df > 0.0
        mixed = reml_fit(X, rng.integers(1, 4, 40), y_noisy)
        assert exact_fits([exact, mixed], y) == [True, False]
        assert exact_fits([noisy], y_noisy) == [False]

    def test_exact_linear_combination_raises(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=60)
        X = np.column_stack([np.ones(60), a, 2.0 * a - 3.0])
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(DesignMatrix(X=X, y=rng.normal(size=60), columns=("intercept", "a", "dup")))
        assert len(exc.value.columns) >= 1

    @pytest.mark.parametrize("X_of, columns, involved", [
        (lambda a, b: np.column_stack([np.ones(a.size), a, np.zeros(a.size), b]),
         ("intercept", "a", "zero", "b"), ["zero"]),
        (lambda a, b: np.column_stack([np.ones(a.size), a, b, a]),
         ("intercept", "a", "b", "a_again"), ["a", "a_again"]),
    ], ids=["zero_column", "duplicated_column"])
    def test_rank_error_names_exactly_the_columns_involved(self, X_of, columns, involved):
        rng = np.random.default_rng(6)
        X = X_of(rng.normal(size=50), rng.normal(size=50))
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(DesignMatrix(X=X, y=rng.normal(size=50), columns=columns))
        assert exc.value.columns == involved

    def test_more_columns_than_rows(self):
        with pytest.raises(ConfigError):
            ols_fit(DesignMatrix(X=np.ones((3, 3)), y=np.zeros(3), columns=("a", "b", "c")))


def assert_matches_qr_oracle(X, y):
    fit = ols_fit(DesignMatrix(X=X, y=y, columns=tuple(f"x{i}" for i in range(X.shape[1]))))
    beta_o, cov_o, sigma2_o, df_o = qr_ols(X, y)
    # relative to the largest entry: a coefficient near zero has no relative scale
    assert np.abs(fit.beta - beta_o).max() <= 1e-10 * np.abs(beta_o).max()
    assert np.abs(fit.cov - cov_o).max() <= 1e-10 * np.abs(cov_o).max()
    assert fit.sigma2_hat == pytest.approx(sigma2_o, rel=1e-10)
    assert fit.df == df_o


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=10),
    extra=st.integers(min_value=10, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_scale=st.floats(min_value=-2.0, max_value=2.0),
)
def test_ols_matches_pivoted_qr_on_gaussian_designs(p, extra, seed, log10_scale):
    # cond(X) up to ~200; the designs the estimators build stay below ~100,
    # and the normal equations lose accuracy as cond(X) squared
    rng = np.random.default_rng(seed)
    n = p + extra
    X = np.column_stack([np.ones(n), 10.0**log10_scale * rng.normal(size=(n, p - 1))])
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    assert_matches_qr_oracle(X, y)


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=20, max_value=400),
    n_starts=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ols_matches_pivoted_qr_on_indicator_designs(K, n, n_starts, seed):
    # intercept, arm and interval indicators; the last interval holds only
    # the final record
    rng = np.random.default_rng(seed)
    times = np.arange(1.0, n + 1.0)
    arms = rng.integers(0, K + 1, n)
    arms[: K + 1] = np.arange(K + 1)
    inner = rng.choice(np.arange(2, n), size=min(n_starts, n - 2), replace=False)
    starts = (1.0, *sorted(float(s) for s in inner), float(n))
    y = 0.3 * arms + 0.01 * times + rng.normal(size=n)
    dm = build_design(times, arms, y, treatments=range(1, K + 1), adjustment="period",
                      starts=starts, horizon=float(n))
    assert dm.X[:, -1].sum() == 1.0
    assume(np.linalg.matrix_rank(dm.X) == dm.X.shape[1])
    assert_matches_qr_oracle(dm.X, dm.y)


def fit_outcome(fit_of, *design):
    try:
        return fit_of(*design)
    except (ConfigError, RankDeficiencyError) as exc:
        return exc


def row_level_fit(*design):
    return ols_fit(build_design(*design))


def cell_fit(times, arms, y, treatments, adjustment, starts, horizon):
    """The one-partition cell fit of ``build_design``'s arguments, raising its error."""
    (outcome,) = cell_ols_each(sort_cells(times, arms, y, treatments), [(adjustment, starts)], horizon)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@settings(max_examples=300, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=2, max_value=40),
    span=st.integers(min_value=1, max_value=20),
    n_starts=st.integers(min_value=0, max_value=6),
    adjustment=st.sampled_from(["none", "period", "calendar"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_cell_ols_decides_and_fits_like_ols_fit(K, n, span, n_starts, adjustment, seed, data):
    # small designs with unsorted, tied and real-valued times, empty intervals,
    # absent treatments and arms outside the treatments: the same error, with
    # the same columns, or the same fit
    rng = np.random.default_rng(seed)
    times = rng.integers(1, span + 1, n) + rng.choice([0.0, 0.5], n)
    arms = rng.integers(0, K + 1, n)
    treatments = sorted(data.draw(st.sets(st.integers(1, K), min_size=1), label="treatments"))
    inner = rng.uniform(times.min(), times.max(), n_starts)
    starts = tuple(sorted({times.min(), *inner}))
    y = 0.5 * arms + 0.1 * times + rng.normal(size=n)
    design = (times, arms, y, treatments, adjustment, starts, times.max())
    rows, cells = fit_outcome(row_level_fit, *design), fit_outcome(cell_fit, *design)
    if isinstance(rows, Exception):
        assert type(cells) is type(rows) and str(cells) == str(rows)
        return
    a = len(treatments) + 1
    assert cells.columns == rows.columns[:a] and cells.df == rows.df
    # both solve the normal equations, whose error grows with cond(X'X), up
    # to a cap that keeps the check strict on ill-conditioned designs
    tol = min(1e-12 * np.linalg.cond(build_design(*design).X) ** 2, 1e-8)
    assert np.abs(cells.beta - rows.beta[:a]).max() <= tol * np.abs(rows.beta).max()
    assert np.abs(cells.cov - rows.cov[:a, :a]).max() <= tol * np.abs(rows.cov).max()
    assert cells.sigma2_hat == pytest.approx(rows.sigma2_hat, rel=tol)


@pytest.mark.parametrize("tol_ratio, raises", [(0.5, False), (2.0, True)],
                         ids=["rule_passes", "rule_fails"])
def test_cell_ols_decides_unproven_designs_by_the_exact_rule(monkeypatch, tol_ratio, raises):
    # a rank tolerance next to the design's eigenvalue ratio: the bound cannot
    # prove the rule, so the eigenvalues of the exact X'X decide, as in ols_fit
    rng = np.random.default_rng(14)
    times = np.arange(1.0, 61.0)
    arms = rng.integers(0, 3, 60)
    design = (times, arms, rng.normal(size=60), [1, 2], "period", (1.0, 21.0, 41.0), 60.0)
    X = build_design(*design).X
    lam = np.linalg.eigvalsh(X.T @ X)
    monkeypatch.setattr(regression_engine, "RANK_TOL", tol_ratio * lam[0] / lam[-1])
    exact = []
    real_solve = regression_engine._solve_normal_equations

    def counting_solve(*args):
        exact.append(args)
        return real_solve(*args)

    monkeypatch.setattr(regression_engine, "_solve_normal_equations", counting_solve)
    rows, cells = fit_outcome(row_level_fit, *design), fit_outcome(cell_fit, *design)
    assert len(exact) == 2  # once in each fit
    assert np.array_equal(exact[0][0], exact[1][0])  # the same X'X
    if raises:
        assert isinstance(rows, RankDeficiencyError) and cells.columns == rows.columns
    else:
        assert cells.columns == rows.columns[:3]
        assert np.allclose(cells.beta, rows.beta[:3], rtol=1e-12, atol=0)
        assert np.allclose(cells.cov, rows.cov[:3, :3], rtol=1e-12, atol=0)
        assert cells.sigma2_hat == pytest.approx(rows.sigma2_hat, rel=1e-12)


class TestCellOlsRankDeficiency:
    """Designs that ``ols_fit`` rejects: ``cell_ols_each`` names the same columns."""

    @staticmethod
    def empty_interval():
        # no record in [21, 41)
        t = np.r_[np.arange(1.0, 21.0), np.arange(41.0, 61.0)]
        return t, np.tile([0, 2, 0, 1], 10), (1.0, 11.0, 21.0, 31.0, 41.0, 51.0)

    @staticmethod
    def arm_in_one_interval():
        # arm 2 holds every record of [11, 21) and no other
        arm = np.tile([0, 1], 20)
        arm[10:20] = 2
        return np.arange(1.0, 41.0), arm, (1.0, 11.0, 21.0, 31.0)

    @staticmethod
    def single_control_record():
        # the one control record is alone in the first interval
        arm = np.r_[0, np.tile([1, 2], 15)]
        return np.arange(1.0, 32.0), arm, (1.0, 2.0, 12.0, 22.0)

    @pytest.mark.parametrize("design, involved", [
        ("empty_interval", ["cal3", "cal4"]),
        ("arm_in_one_interval", ["trt2", "cal2"]),
        ("single_control_record", ["trt1", "trt2", "cal2", "cal3", "cal4"]),
    ])
    def test_names_the_columns_ols_fit_names(self, design, involved):
        t, arm, starts = getattr(self, design)()
        y = np.random.default_rng(13).normal(size=t.size)
        args = (t, arm, y, [1, 2], "calendar", starts, t.max())
        with pytest.raises(RankDeficiencyError) as rows:
            row_level_fit(*args)
        with pytest.raises(RankDeficiencyError) as cells:
            cell_fit(*args)
        assert cells.value.columns == rows.value.columns == involved


class TestBuildDesign:
    def test_two_arm_one_period(self):
        arms = np.array([0, 1, 0, 1])
        dm = build_design(np.arange(1, 5), arms, np.zeros(4), treatments=[1])
        assert dm.columns == ("intercept", "trt1")

    def test_staggered_three_periods(self):
        times = np.arange(1, 10)
        arms = np.array([0, 1, 0, 1, 2, 0, 2, 1, 0])
        dm = build_design(
            times, arms, np.zeros(9), treatments=[1, 2],
            adjustment="period", starts=(1, 4, 7), horizon=9,
        )
        assert dm.columns == ("intercept", "trt1", "trt2", "per2", "per3")
        assert dm.X[:, 3].sum() == 3  # times 4..6
        assert dm.X[:, 4].sum() == 3  # times 7..9

    def test_single_calendar_unit_has_no_time_columns(self):
        dm = build_design(
            np.arange(1, 5), np.array([0, 1, 0, 1]), np.zeros(4), treatments=[1],
            adjustment="calendar", starts=(1,), horizon=4,
        )
        assert dm.columns == ("intercept", "trt1")

    def test_period_adjustment_on_single_period_equals_plain_design(self):
        times = np.arange(1, 7)
        arms = np.array([0, 1, 1, 0, 1, 0])
        plain = build_design(times, arms, np.zeros(6), treatments=[1])
        adjusted = build_design(
            times, arms, np.zeros(6), treatments=[1],
            adjustment="period", starts=(1,), horizon=6,
        )
        assert adjusted.columns == plain.columns
        assert np.array_equal(adjusted.X, plain.X)


@settings(max_examples=60, deadline=None)
@given(
    adjustment=st.sampled_from(["none", "period", "calendar", "spline"]),
    K=st.integers(1, 4),
    n_starts=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_design_equals_stacked_columns(adjustment, K, n_starts, seed):
    # arm K + 1 is outside the treatments; with three or more intervals the
    # second is empty
    rng = np.random.default_rng(seed)
    horizon = 40.0 * n_starts
    starts = (1.0, *np.sort(rng.choice(np.arange(2.0, horizon), n_starts - 1, replace=False)))
    times = np.r_[1.0, rng.uniform(1.0, horizon, size=30 * n_starts), horizon]
    if n_starts > 2:
        times = times[(times < starts[1]) | (times >= starts[2])]
    arms = rng.integers(0, K + 2, size=times.size)
    treatments = rng.permutation(np.arange(1, K + 1)).tolist()
    kw = {"none": {}, "spline": {"basis": knots_at(starts, horizon)}}.get(
        adjustment, {"starts": starts, "horizon": horizon})
    dm = build_design(times, arms, rng.normal(size=times.size), treatments, adjustment, **kw)
    X, columns = column_stack_design(times, arms, treatments, adjustment, **kw)
    assert np.array_equal(dm.X, X)
    assert dm.X.flags.c_contiguous
    assert dm.columns == columns


class TestWaldTest:
    @staticmethod
    def _fit(beta1=0.0, n=100, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        y = beta1 * x + rng.normal(size=n)
        return ols_fit(DesignMatrix(X=X, y=y, columns=("intercept", "slope")))

    def test_t_zero_gives_half_and_one(self):
        fit = self._fit()
        i = fit.columns.index("slope")
        beta = fit.beta.copy()
        beta[i] = 0.0
        zeroed = OlsLike(beta, fit.cov, fit.df, fit.columns)
        wt = wald_test(zeroed, "slope")
        assert wt.t == 0.0
        assert wt.p_one == 0.5
        assert wt.p_two == pytest.approx(1.0, abs=1e-14)
        assert not wt.reject

    def test_negative_estimate_one_sided_above_half(self):
        fit = self._fit(beta1=-1.0)
        wt = wald_test(fit, "slope")
        assert wt.t < 0
        assert wt.p_one > 0.5

    def test_rejection_flag_matches_alpha(self):
        fit = self._fit(beta1=1.0)
        wt = wald_test(fit, "slope", alpha=0.025)
        assert wt.reject == (wt.p_one < 0.025)
        wt2 = wald_test(fit, "slope", sided="two", alpha=0.01)
        assert wt2.reject == (wt2.p_two < 0.01)

    def test_missing_coefficient(self):
        with pytest.raises(ConfigError):
            wald_test(self._fit(), "nope")

    def test_carries_estimate_and_se_of_the_coefficient(self):
        fit = self._fit(beta1=0.4)
        i = fit.columns.index("slope")
        wt = wald_test(fit, "slope", sided="two", alpha=0.01)
        assert wt.estimate == fit.beta[i]
        assert wt.se == math.sqrt(fit.cov[i, i])
        assert wt == t_test(wt.estimate, wt.se, fit.df, sided="two", alpha=0.01)

    def test_unknown_sidedness_rejected(self):
        with pytest.raises(ConfigError, match="sided"):
            t_test(1.0, 0.5, 10, sided="one_less")

    def test_zero_se_degenerate(self):
        fit = self._fit()
        broken = OlsLike(fit.beta, np.zeros_like(fit.cov), fit.df, fit.columns)
        with pytest.raises(ConfigError, match="degenerate"):
            wald_test(broken, "slope")

    def test_batch_of_fits_tests_each_as_alone(self):
        fit = self._fit(beta1=0.3)
        no_slope = OlsLike(fit.beta[:1], fit.cov[:1, :1], fit.df, fit.columns[:1])
        zero_se = OlsLike(fit.beta, np.zeros_like(fit.cov), fit.df, fit.columns)
        fits = [fit, no_slope, self._fit(beta1=-2.0, n=30, seed=6), zero_se, fit]
        sided, alpha = ["two", "one_greater", "one_greater", "two", "one_greater"], [
            0.01, 0.025, 0.3, 0.05, 0.025]
        batch = wald_test(fits, "slope", sided=sided, alpha=alpha)
        for f, s, a, got in zip(fits, sided, alpha, batch):
            try:
                expected = wald_test(f, "slope", sided=s, alpha=a)
            except ConfigError as exc:
                assert type(got) is ConfigError and str(got) == str(exc)
            else:
                assert got == expected
        assert [type(x) for x in batch[1:4]] == [ConfigError, type(batch[0]), ConfigError]
        # one sided value and one alpha serve the whole batch
        assert wald_test(fits, "slope")[2] == wald_test(fits[2], "slope")

    _general = st.tuples(
        st.one_of(st.floats(-50.0, 50.0), st.floats(allow_nan=True, allow_infinity=True)),
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-3, 100.0), st.just(math.nan),
                  st.floats(allow_nan=False, allow_infinity=True)),
        st.one_of(st.just(1), st.integers(1, 5000), st.floats(0.5, 1e4), st.integers(-2, 0)),
        st.sampled_from(["one_greater", "two", "one_greater", "two", "one_less"]),
        st.floats(1e-4, 0.5),
    )
    # |t| > 40, far in the tails
    _large_t = st.tuples(st.floats(40.5, 1e6) | st.floats(-1e6, -40.5), st.just(1.0),
                         st.integers(1, 3000), st.sampled_from(["one_greater", "two"]),
                         st.floats(1e-4, 0.5))

    @settings(max_examples=150, deadline=None)
    @given(tests=st.lists(_general | _large_t, min_size=1, max_size=8))
    @example(tests=[(1.0, 0.0, 10, "two", 0.05), (math.nan, 1.0, 5, "one_greater", 0.025),
                    (2.5, 1.0, 1, "two", 0.025), (45.0, 1.0, 30, "one_greater", 0.025),
                    (-60.0, 1.0, 1, "two", 0.01), (0.4, 0.2, 0, "two", 0.05)])
    def test_array_t_test_is_the_scalar_test_bit_for_bit(self, tests):
        def bits(test):
            return [v.hex() if isinstance(v, float) else v for v in test]

        batch = t_test(*map(list, zip(*tests)))
        assert len(batch) == len(tests)
        for args, got in zip(tests, batch):
            try:
                expected = scalar_t_test(*args)
            except ConfigError as exc:
                assert type(got) is ConfigError and str(got) == str(exc)
                with pytest.raises(ConfigError) as alone:
                    t_test(*args)
                assert str(alone.value) == str(exc)
            else:
                assert bits(got) == bits(expected)
                assert bits(t_test(*args)) == bits(expected)


class OlsLike:
    def __init__(self, beta, cov, df, columns):
        self.beta, self.cov, self.df, self.columns = beta, cov, df, columns
