import math

import numpy as np
import pytest
from scipy.optimize import minimize

from platformtrial import mixed_model
from platformtrial.design import ConfigError
from platformtrial.mixed_model import (
    DegenerateRandomDesign,
    _RemlWorkspace,
    ar1_correlation,
    build_random_design,
    reml_fit,
    reml_neg2loglik,
)
from platformtrial.regression_engine import DesignMatrix, ols_fit, wald_test

from oracles import dense_reml_neg2ll


def one_way_instance(g=8, m_per=12, sd_u=0.7, seed=42):
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, sd_u, g)
    y = np.concatenate([3.0 + ui + rng.normal(0.0, 1.0, m_per) for ui in u])
    X = np.ones((g * m_per, 1))
    Z = np.kron(np.eye(g), np.ones((m_per, 1)))
    return X, Z, y


def small_ar1_instance(n=60, m=3, seed=5):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    grp = rng.integers(0, m, n)
    Z = np.eye(m)[grp]
    y = X @ np.array([1.0, 0.5, -0.2]) + 0.9 * rng.normal(size=m)[grp] + rng.normal(size=n)
    return X, Z, y


class TestAr1Correlation:
    def test_rho_zero_identity(self):
        assert np.array_equal(ar1_correlation(4, 0.0), np.eye(4))

    def test_three_by_three(self):
        R = ar1_correlation(3, 0.5)
        assert np.allclose(R, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])

    def test_positive_definite_on_rho_grid(self):
        for m in (2, 5, 20, 40):
            for rho in np.arange(-0.99, 0.991, 0.11):
                R = ar1_correlation(m, float(rho))
                np.linalg.cholesky(R)  # raises if not PD
                assert np.linalg.eigvalsh(R).min() > 0.0

    def test_out_of_bounds(self):
        for rho in (-1.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                ar1_correlation(3, rho)


class TestBuildRandomDesign:
    TIMES = np.arange(1, 13)
    # intervals: [1,5), [5,9), [9,12]
    STARTS = (1, 5, 9)

    def test_interval_grouping_skips_first(self):
        arms = np.zeros(12, dtype=int)
        Z, labels = build_random_design(self.TIMES, arms, "interval", self.STARTS, 12)
        assert labels == ("iv2", "iv3")
        assert Z.shape == (12, 2)
        assert Z[:, 0].sum() == 4 and Z[:, 1].sum() == 4

    def test_interaction_grouping_excludes_arm_m(self):
        arms = np.array([0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3, 0])
        Z, labels = build_random_design(
            self.TIMES, arms, "interaction", self.STARTS, 12,
            treatments=[1, 2, 3], exclude_arm=3,
        )
        # arms {1, 2} x intervals {2, 3}, every combination nonzero here
        assert labels == ("trt1:iv2", "trt1:iv3", "trt2:iv2", "trt2:iv3")
        assert Z.shape == (12, 4)

    def test_zero_columns_removed(self):
        arms = np.array([0, 1, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0])  # arm 2 only in interval 1
        Z, labels = build_random_design(
            self.TIMES, arms, "interaction", self.STARTS, 12,
            treatments=[1, 2], exclude_arm=None,
        )
        assert all("trt2" not in lab for lab in labels)

    def test_single_interval_degenerate(self):
        with pytest.raises(DegenerateRandomDesign):
            build_random_design(self.TIMES, np.zeros(12, dtype=int), "interval", (1,), 12)


class TestRemlFit:
    def test_matches_balanced_anova_closed_form(self):
        g, m_per = 8, 12
        X, Z, y = one_way_instance(g, m_per)
        fit = reml_fit(X, Z, y)
        ybar_i = y.reshape(g, m_per).mean(axis=1)
        msb = m_per * ((ybar_i - y.mean()) ** 2).sum() / (g - 1)
        msw = ((y.reshape(g, m_per) - ybar_i[:, None]) ** 2).sum() / (g * m_per - g)
        assert fit.sigma2_random == pytest.approx(max(0.0, (msb - msw) / m_per), abs=1e-6)
        assert fit.sigma2 == pytest.approx(msw, abs=1e-6)
        assert fit.converged

    def test_objective_matches_dense_oracle(self):
        X, Z, y = small_ar1_instance(n=80, m=5)
        for gamma, rho in [(0.5, 0.0), (2.0, 0.4), (0.01, -0.6), (10.0, 0.9)]:
            ours = reml_neg2loglik(X, Z, y, gamma, rho, "ar1")
            dense = dense_reml_neg2ll(X, Z, y, gamma, rho)
            assert ours == pytest.approx(dense, abs=1e-8)
        for gamma in (0.2, 1.0, 7.0):
            assert reml_neg2loglik(X, Z, y, gamma) == pytest.approx(
                dense_reml_neg2ll(X, Z, y, gamma), abs=1e-8
            )

    def test_beats_grid_search_oracle(self):
        X, Z, y = small_ar1_instance(n=60, m=3)
        fit = reml_fit(X, Z, y, cov_structure="ar1")
        gamma_hat = fit.sigma2_random / fit.sigma2
        ours = reml_neg2loglik(X, Z, y, gamma_hat, fit.rho, "ar1")
        grid_best = min(
            reml_neg2loglik(X, Z, y, math.exp(lg), math.tanh(z), "ar1")
            for lg in np.linspace(-12.0, 5.0, 50)
            for z in np.linspace(-2.6, 2.6, 50)
        )
        assert ours <= grid_best + 1e-6

    def test_gamma_zero_boundary_matches_ols(self):
        rng = np.random.default_rng(9)
        n, m = 90, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        Z = np.eye(m)[rng.integers(0, m, n)]
        y = X @ np.array([0.5, 1.0, -1.0]) + rng.normal(size=n)  # no group effects
        fit = reml_fit(X, Z, y)
        ols = ols_fit(DesignMatrix(X=X, y=y, columns=("a", "b", "c")))
        assert fit.sigma2_random < 1e-6
        assert np.abs(fit.beta - ols.beta).max() < 1e-6
        assert fit.converged  # boundary solution is reported, not an error

    def test_ar1_at_rho_zero_equals_independent_structure(self):
        X, Z, y = small_ar1_instance(n=70, m=4, seed=11)
        for gamma in (0.1, 1.0, 5.0):
            a = reml_neg2loglik(X, Z, y, gamma, 0.0, "ar1")
            b = reml_neg2loglik(X, Z, y, gamma, 0.0, "independent")
            assert a == pytest.approx(b, abs=1e-12)

    def test_theta_invariant_to_random_column_relabeling(self):
        X, Z, y = small_ar1_instance(n=80, m=5, seed=13)
        fit1 = reml_fit(X, Z, y)
        perm = np.random.default_rng(1).permutation(Z.shape[1])
        fit2 = reml_fit(X, Z[:, perm], y)
        assert np.abs(fit1.beta - fit2.beta).max() < 1e-10

    def test_invariants_on_fit(self):
        X, Z, y = one_way_instance()
        fit = reml_fit(X, Z, y, cov_structure="ar1")
        assert fit.sigma2 > 0
        assert fit.sigma2_random >= 0
        assert -1.0 < fit.rho < 1.0
        assert fit.iterations <= 500

    def test_accepted_iterates_monotone(self):
        # the optimizer never accepts a step that worsens the REML objective
        X, Z, y = small_ar1_instance(n=60, m=3, seed=17)
        work = _RemlWorkspace(X, Z, y)
        obj = lambda x: work.neg2ll(math.exp(x[0]), math.tanh(x[1]), "ar1")
        trace = []
        minimize(
            obj, np.array([-1.0, 0.0]), method="Nelder-Mead",
            callback=lambda xk: trace.append(obj(xk)),
            options={"fatol": 1e-8, "xatol": 1e-7, "maxfev": 500},
        )
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_exhausted_budget_reported_as_not_converged(self, monkeypatch):
        X, Z, y = small_ar1_instance(n=60, m=3)
        assert reml_fit(X, Z, y, cov_structure="ar1").converged
        monkeypatch.setattr(mixed_model, "_MAX_EVALS", 1)  # Nelder-Mead keeps its floor of 10
        fit = reml_fit(X, Z, y, cov_structure="ar1")
        assert not fit.converged
        assert fit.iterations < 40  # 21 scan points plus the small budget

    def test_rank_deficient_fixed_design_rejected(self):
        X = np.ones((30, 2))
        Z = np.eye(3)[np.random.default_rng(0).integers(0, 3, 30)]
        with pytest.raises(ConfigError, match="rank"):
            reml_fit(X, Z, np.zeros(30))


class TestMixedWald:
    def test_gamma_zero_p_equals_ols_p(self):
        rng = np.random.default_rng(3)  # a draw with no between-group variation
        n, m = 120, 5
        X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float)])
        Z = np.eye(m)[rng.integers(0, m, n)]
        y = X @ np.array([0.0, 0.4]) + rng.normal(size=n)
        fit = reml_fit(X, Z, y, columns=("intercept", "trt1"))
        assert fit.sigma2_random < 1e-6
        ols = ols_fit(DesignMatrix(X=X, y=y, columns=("intercept", "trt1")))
        wt_mixed = wald_test(fit, "trt1")
        wt_ols = wald_test(ols, "trt1")
        assert wt_mixed.p_one == pytest.approx(wt_ols.p_one, abs=1e-6)

    def test_t_zero_gives_half(self):
        X, Z, y = one_way_instance()
        fit = reml_fit(X, Z, y, columns=("intercept",))
        patched = fit.__class__(
            beta=np.zeros_like(fit.beta), cov=fit.cov, columns=fit.columns, df=fit.df,
            sigma2=fit.sigma2, sigma2_random=fit.sigma2_random, rho=fit.rho,
            reml_loglik=fit.reml_loglik, converged=fit.converged, iterations=fit.iterations,
        )
        assert wald_test(patched, "intercept").p_one == 0.5
