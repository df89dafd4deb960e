import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platformtrial.design import ConfigError
from platformtrial.regression_engine import (
    DesignMatrix,
    RankDeficiencyError,
    build_design,
    ols_fit,
    t_sf,
    t_test,
    wald_test,
)

from oracles import normal_equations_ols, qr_ols, t_sf_quad


class TestStudentT:
    def test_against_quadrature_oracle(self):
        # acceptance tolerance 1e-10 on a (df, t) grid
        for df in (1, 2, 3, 5, 10, 30, 120, 498, 1526):
            for t in (-8.0, -3.3, -1.5, -0.3, 0.0, 0.4, 1.0, 1.9647, 2.8, 6.0):
                assert t_sf(t, df) == pytest.approx(t_sf_quad(t, df), abs=1e-10)

    def test_symmetry_and_limits(self):
        assert t_sf(0.0, 7) == 0.5
        assert t_sf(-2.0, 9) == pytest.approx(1.0 - t_sf(2.0, 9), abs=1e-14)

    def test_two_sided_p_near_five_percent(self):
        p_two = 2.0 * t_sf(1.9647, 498)
        assert p_two == pytest.approx(2.0 * t_sf_quad(1.9647, 498), abs=1e-10)
        assert p_two == pytest.approx(0.05, abs=5e-4)

    def test_bad_df(self):
        with pytest.raises(ConfigError):
            t_sf(1.0, 0)


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


class OlsLike:
    def __init__(self, beta, cov, df, columns):
        self.beta, self.cov, self.df, self.columns = beta, cov, df, columns
