import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from platformtrial import mixed_model
from platformtrial.design import ConfigError
from platformtrial.mixed_model import (
    DegenerateRandomDesign,
    _RemlWorkspace,
    build_random_design,
    reml_fit,
)
from platformtrial.regression_engine import DesignMatrix, RankDeficiencyError, ols_fit, wald_test

from oracles import ar1_correlation, dense_reml_neg2ll


def one_way_instance(g=8, m_per=12, sd_u=0.7, seed=42):
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, sd_u, g)
    y = np.concatenate([3.0 + ui + rng.normal(0.0, 1.0, m_per) for ui in u])
    X = np.ones((g * m_per, 1))
    groups = np.repeat(np.arange(1, g + 1), m_per)
    return X, groups, y


def small_ar1_instance(n=60, m=3, seed=5):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    grp = rng.integers(0, m, n)
    y = X @ np.array([1.0, 0.5, -0.2]) + 0.9 * rng.normal(size=m)[grp] + rng.normal(size=n)
    return X, grp + 1, y


def neg2ll(X, groups, y, gamma, rho=0.0, structure="independent"):
    return _RemlWorkspace(X, groups, y).neg2ll(gamma, rho, structure)


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
        groups, labels = build_random_design(self.TIMES, arms, "interval", self.STARTS, 12)
        assert labels == ("iv2", "iv3")
        assert groups.shape == (12,) and groups.max() == 2
        assert np.array_equal(np.bincount(groups), [4, 4, 4])

    def test_interaction_grouping_excludes_arm_m(self):
        arms = np.array([0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3, 0])
        groups, labels = build_random_design(
            self.TIMES, arms, "interaction", self.STARTS, 12,
            treatments=[1, 2, 3], exclude_arm=3,
        )
        # arms {1, 2} x intervals {2, 3}, every combination nonzero here
        assert labels == ("trt1:iv2", "trt1:iv3", "trt2:iv2", "trt2:iv3")
        assert groups.shape == (12,) and groups.max() == 4

    def test_zero_columns_removed(self):
        arms = np.array([0, 1, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0])  # arm 2 only in interval 1
        groups, labels = build_random_design(
            self.TIMES, arms, "interaction", self.STARTS, 12,
            treatments=[1, 2], exclude_arm=None,
        )
        assert all("trt2" not in lab for lab in labels)
        assert np.bincount(groups)[1:].min() > 0

    def test_single_interval_degenerate(self):
        with pytest.raises(DegenerateRandomDesign):
            build_random_design(self.TIMES, np.zeros(12, dtype=int), "interval", (1,), 12)


class TestRemlFit:
    def test_matches_balanced_anova_closed_form(self):
        g, m_per = 8, 12
        X, groups, y = one_way_instance(g, m_per)
        fit = reml_fit(X, groups, y)
        ybar_i = y.reshape(g, m_per).mean(axis=1)
        msb = m_per * ((ybar_i - y.mean()) ** 2).sum() / (g - 1)
        msw = ((y.reshape(g, m_per) - ybar_i[:, None]) ** 2).sum() / (g * m_per - g)
        assert fit.sigma2_random == pytest.approx(max(0.0, (msb - msw) / m_per), abs=1e-6)
        assert fit.sigma2 == pytest.approx(msw, abs=1e-6)
        assert fit.converged

    def test_objective_matches_dense_oracle(self):
        X, groups, y = small_ar1_instance(n=80, m=5)
        for gamma, rho in [(0.5, 0.0), (2.0, 0.4), (0.01, -0.6), (10.0, 0.9)]:
            ours = neg2ll(X, groups, y, gamma, rho, "ar1")
            dense = dense_reml_neg2ll(X, groups, y, gamma, rho)
            assert ours == pytest.approx(dense, abs=1e-8)
        for gamma in (0.2, 1.0, 7.0):
            assert neg2ll(X, groups, y, gamma) == pytest.approx(
                dense_reml_neg2ll(X, groups, y, gamma), abs=1e-8
            )

    def test_beats_grid_search_oracle(self):
        X, groups, y = small_ar1_instance(n=60, m=3)
        fit = reml_fit(X, groups, y, cov_structure="ar1")
        gamma_hat = fit.sigma2_random / fit.sigma2
        work = _RemlWorkspace(X, groups, y)
        ours = work.neg2ll(gamma_hat, fit.rho, "ar1")
        grid_best = min(
            work.neg2ll(math.exp(lg), math.tanh(z), "ar1")
            for lg in np.linspace(-12.0, 5.0, 50)
            for z in np.linspace(-2.6, 2.6, 50)
        )
        assert ours <= grid_best + 1e-6

    def test_gamma_zero_boundary_matches_ols(self):
        rng = np.random.default_rng(9)
        n, m = 90, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        groups = rng.integers(0, m, n) + 1
        y = X @ np.array([0.5, 1.0, -1.0]) + rng.normal(size=n)  # no group effects
        fit = reml_fit(X, groups, y)
        ols = ols_fit(DesignMatrix(X=X, y=y, columns=("a", "b", "c")))
        assert fit.sigma2_random < 1e-6
        assert np.abs(fit.beta - ols.beta).max() < 1e-6
        assert fit.converged  # boundary solution is reported, not an error

    def test_ar1_at_rho_zero_equals_independent_structure(self):
        X, groups, y = small_ar1_instance(n=70, m=4, seed=11)
        for gamma in (0.1, 1.0, 5.0):
            a = neg2ll(X, groups, y, gamma, 0.0, "ar1")
            b = neg2ll(X, groups, y, gamma, 0.0, "independent")
            assert a == pytest.approx(b, abs=1e-12)

    def test_theta_invariant_to_random_column_relabeling(self):
        # relabeling changes the objective only by rounding, and the search
        # resolves log gamma to ~1e-7, so the fits agree in -2 REML and beta
        # to that resolution, not bit for bit
        X, groups, y = small_ar1_instance(n=80, m=5, seed=13)
        fit1 = reml_fit(X, groups, y)
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(5)
            # the group that was column perm[j] of Z becomes column j
            relabeled = np.argsort(perm)[groups - 1] + 1
            for gamma in (1e-3, 0.3, 5.0):
                ref = neg2ll(X, groups, y, gamma)
                assert abs(neg2ll(X, relabeled, y, gamma) - ref) <= 1e-12 * abs(ref)
            fit2 = reml_fit(X, relabeled, y)
            assert abs(-2.0 * fit2.reml_loglik + 2.0 * fit1.reml_loglik) <= 1e-10
            assert np.abs(fit2.beta - fit1.beta).max() <= 1e-7 * np.abs(fit1.beta).max()

    def test_invariants_on_fit(self):
        X, groups, y = one_way_instance()
        fit = reml_fit(X, groups, y, cov_structure="ar1")
        assert fit.sigma2 > 0
        assert fit.sigma2_random >= 0
        assert -1.0 < fit.rho < 1.0
        assert fit.iterations <= 500

    def test_accepted_iterates_monotone(self):
        # the optimizer never accepts a step that worsens the REML objective
        X, groups, y = small_ar1_instance(n=60, m=3, seed=17)
        work = _RemlWorkspace(X, groups, y)
        obj = lambda x: work.neg2ll(math.exp(x[0]), math.tanh(x[1]), "ar1")
        trace = []
        minimize(
            obj, np.array([-1.0, 0.0]), method="Nelder-Mead",
            callback=lambda xk: trace.append(obj(xk)),
            options={"fatol": 1e-8, "xatol": 1e-7, "maxfev": 500},
        )
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("structure, n_scan", [("independent", 9), ("ar1", 21)],
                             ids=["independent", "ar1"])
    def test_exhausted_budget_reported_as_not_converged(self, monkeypatch, structure, n_scan):
        X, groups, y = small_ar1_instance(n=60, m=3)  # interior optimum: the search runs
        assert reml_fit(X, groups, y, cov_structure=structure).converged
        monkeypatch.setattr(mixed_model, "_MAX_EVALS", 1)  # the search keeps a floor of 1
        fit = reml_fit(X, groups, y, cov_structure=structure)
        assert not fit.converged
        assert fit.iterations <= n_scan + 2  # the scan plus the exhausted search

    # seed 2 without a group effect ends the independent fit at the boundary,
    # so no search runs
    @pytest.mark.parametrize("structure", ["independent", "ar1"])
    @pytest.mark.parametrize("sd_u, seed", [(0.0, 2), (0.9, 3)], ids=["boundary", "interior"])
    def test_iterations_count_objective_calls(self, monkeypatch, structure, sd_u, seed):
        calls = []
        original = _RemlWorkspace.neg2ll

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(_RemlWorkspace, "neg2ll", counted)
        X, groups, y = one_way_instance(g=6, m_per=10, sd_u=sd_u, seed=seed)
        fit = reml_fit(X, groups, y, cov_structure=structure)
        assert fit.iterations == len(calls) > 0

    def test_rank_deficient_fixed_design_rejected(self):
        X = np.ones((30, 2))
        groups = np.random.default_rng(0).integers(0, 3, 30) + 1
        with pytest.raises(RankDeficiencyError) as exc:
            reml_fit(X, groups, np.zeros(30))
        assert exc.value.columns == ["x0", "x1"]

    @pytest.mark.parametrize("extra, columns, involved", [
        (np.zeros(60), ("intercept", "x1", "x2", "zero"), ["zero"]),
        (None, ("intercept", "x1", "x2", "x1_again"), ["x1", "x1_again"]),
    ], ids=["zero_column", "duplicated_column"])
    def test_rank_error_names_exactly_the_columns_involved(self, extra, columns, involved):
        X, groups, y = small_ar1_instance(n=60, m=3)
        X = np.column_stack([X, X[:, 1] if extra is None else extra])
        with pytest.raises(RankDeficiencyError) as exc:
            reml_fit(X, groups, y, columns=columns)
        assert exc.value.columns == involved


    @pytest.mark.parametrize("groups, problem", [
        (np.ones((30, 1), dtype=int), "1-D integer array of length 30, got int64 of shape"),
        (np.ones(29, dtype=int), r"1-D integer array of length 30, got int64 of shape \(29,\)"),
        (np.ones(30), "1-D integer array of length 30, got float64"),
        (np.ones(30, dtype=bool), "1-D integer array of length 30, got bool"),
        (np.r_[-1, np.ones(29, dtype=int)], "non-negative"),
        (np.zeros(30, dtype=int), "at least one group"),
    ], ids=["2-D", "length", "float", "bool", "negative", "all-zero"])
    def test_malformed_groups_rejected(self, groups, problem):
        X, _, y = small_ar1_instance(n=30, m=3)
        with pytest.raises(ConfigError, match=problem):
            reml_fit(X, groups, y)


    def test_unsigned_codes_accepted(self):
        X, groups, y = small_ar1_instance(n=60, m=3)
        fit = reml_fit(X, groups.astype(np.uint64), y)
        assert np.array_equal(fit.beta, reml_fit(X, groups, y).beta)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    p=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_gamma=st.floats(min_value=-10.0, max_value=4.0),
    rho=st.floats(min_value=-0.95, max_value=0.95),
    structure=st.sampled_from(["independent", "ar1"]),
    log10_scale=st.floats(min_value=0.0, max_value=3.0),
)
def test_objective_matches_dense_oracle_on_random_designs(n, p, m, seed, log10_gamma, rho,
                                                          structure, log10_scale):
    # codes 0..m: some records carry no random effect, and a group may be empty;
    # fixed effects up to 1000 noise SDs make y'W^-1 y dwarf the residual
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    groups = rng.integers(0, m + 1, n)
    groups[:2] = m, 0
    beta = 10.0**log10_scale * rng.normal(size=p)
    y = X @ beta + rng.normal(size=m + 1)[groups] + rng.normal(size=n)
    gamma = 10.0 ** log10_gamma
    if structure == "independent":
        rho = 0.0
    ours = _RemlWorkspace(X, groups, y).neg2ll(gamma, rho, structure)
    dense = dense_reml_neg2ll(X, groups, y, gamma, rho)
    # relative, with a floor of 1: -2 REML can cross zero
    assert abs(ours - dense) <= 1e-10 * max(abs(dense), 1.0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=60),
    p=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sd_u=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=30.0)),
)
def test_independent_fit_no_worse_than_scan_or_fine_grid_over_its_bracket(n, p, m, seed, sd_u):
    # no group effect (the gamma -> 0 boundary) up to effects 30 noise SDs wide.
    # gamma must be identifiable: Z not absorbed by X, and residual degrees of
    # freedom left beyond [X Z]; otherwise the surface is flat or sigma2 -> 0
    # as gamma -> inf, and the objective is rounding noise at large gamma.
    # A global fine grid is not asserted: the surface can be multimodal.
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    groups = rng.integers(0, m + 1, n)
    groups[0] = m
    Z = (groups[:, None] == np.arange(1, m + 1)).astype(float)
    assume(p < np.linalg.matrix_rank(np.column_stack([X, Z])) < n)
    u = np.r_[0.0, sd_u * rng.normal(size=m)]
    y = X @ rng.normal(size=p) + u[groups] + rng.normal(size=n)
    fit = reml_fit(X, groups, y)
    ours = -2.0 * fit.reml_loglik - fit.df * math.log(2.0 * math.pi)
    work = _RemlWorkspace(X, groups, y)
    objective = lambda lg: work.neg2ll(math.exp(lg), 0.0, "independent")
    bound = mixed_model._LOG_GAMMA_BOUND
    scan = (-bound, *mixed_model._LOG_GAMMA_SCAN, bound)
    values = [objective(lg) for lg in scan]
    assert ours <= min(values) + 1e-8
    i = int(np.argmin(values))
    bracket = np.linspace(scan[max(i - 1, 0)], scan[min(i + 1, len(scan) - 1)], 2001)
    assert ours <= min(objective(lg) for lg in bracket) + 1e-8


class TestMixedWald:
    def test_gamma_zero_p_equals_ols_p(self):
        rng = np.random.default_rng(3)  # a draw with no between-group variation
        n, m = 120, 5
        X = np.column_stack([np.ones(n), (rng.random(n) < 0.5).astype(float)])
        groups = rng.integers(0, m, n) + 1
        y = X @ np.array([0.0, 0.4]) + rng.normal(size=n)
        fit = reml_fit(X, groups, y, columns=("intercept", "trt1"))
        assert fit.sigma2_random < 1e-6
        ols = ols_fit(DesignMatrix(X=X, y=y, columns=("intercept", "trt1")))
        wt_mixed = wald_test(fit, "trt1")
        wt_ols = wald_test(ols, "trt1")
        assert wt_mixed.p_one == pytest.approx(wt_ols.p_one, abs=1e-6)

    def test_t_zero_gives_half(self):
        X, groups, y = one_way_instance()
        fit = reml_fit(X, groups, y, columns=("intercept",))
        patched = fit.__class__(
            beta=np.zeros_like(fit.beta), cov=fit.cov, columns=fit.columns, df=fit.df,
            sigma2=fit.sigma2, sigma2_random=fit.sigma2_random, rho=fit.rho,
            reml_loglik=fit.reml_loglik, converged=fit.converged, iterations=fit.iterations,
        )
        assert wald_test(patched, "intercept").p_one == 0.5
