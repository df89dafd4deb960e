"""Acceptance suite: one test per release criterion, each printing a PASS line.

Monte-Carlo criteria run 2000 replicates with a fixed root seed, so every
assertion below is deterministic. Tolerances are pinned here and nowhere
else.
"""
import math
import time

import numpy as np
import pytest

from platformtrial import (
    ModelSpec,
    Scenario,
    TrendSpec,
    TrialConfig,
    generate_trial,
    run_scenario,
)
from platformtrial.mixed_model import _RemlWorkspace, reml_fit
from platformtrial.regression_engine import DesignMatrix, ols_fit, t_sf
from platformtrial.simharness import GridSpec, rows_to_csv, run_grid
from platformtrial.spline import SplineBasis, basis_matrix

from oracles import ar1_correlation, naive_basis_row, normal_equations_ols, qr_ols, t_sf_quad

SEED = 20260808
REPS = 2000
THREADS = 2
ALPHA = 0.025
MC_SE_NOMINAL = math.sqrt(ALPHA * (1 - ALPHA) / REPS)
BAND = (ALPHA - 3 * MC_SE_NOMINAL, ALPHA + 3 * MC_SE_NOMINAL)


def config(d=250, M=3, K=4):
    return TrialConfig(K=K, d=d, n=250, eta0=0.0, theta=(0.25,) * K, sigma=1.0, M=M)


def equal_trend(pattern, lam, **kw):
    return TrendSpec(pattern, lam=(lam,) * 5, **kw)


def scenario(cfg, trend, estimators, hypothesis, reps=REPS):
    return Scenario(
        config=cfg, trend=trend, estimators=tuple(estimators),
        hypothesis=hypothesis, replicates=reps, seed=SEED,
    )


def in_band(rate):
    return BAND[0] <= rate <= BAND[1]


@pytest.fixture(scope="module")
def linear_lambda_grid():
    """Null rejection rates of fixed_period and pooled at lambda -0.5, 0, 0.5."""
    out = {}
    for lam in (-0.5, 0.0, 0.5):
        oc = run_scenario(
            scenario(config(), equal_trend("linear", lam),
                     [ModelSpec("fixed_period"), ModelSpec("pooled")], "null"),
            threads=THREADS,
        )
        out[lam] = {k: v.reject_rate for k, v in oc.per_estimator.items()}
    return out


@pytest.fixture(scope="module")
def mixed_lambda_grid():
    """Null rejection rates of the interval mixed models at lambda 0 and 0.5."""
    out = {}
    for lam in (0.0, 0.5):
        oc = run_scenario(
            scenario(config(), equal_trend("linear", lam),
                     [ModelSpec("mixed_period"), ModelSpec("mixed_calendar", c_length=100)],
                     "null"),
            threads=THREADS,
        )
        out[lam] = oc.per_estimator
    return out


def test_criterion_01_separate_power_anchor():
    started = time.time()
    oc = run_scenario(
        scenario(config(), TrendSpec.none(4), [ModelSpec("separate")], "alternative"),
        threads=THREADS,
    )
    elapsed = time.time() - started
    power = oc.per_estimator["separate"].reject_rate
    assert abs(power - 0.798) <= 0.03
    assert elapsed < 60.0
    print(f"PASS criterion 1: separate power {power:.4f} in 0.798 +/- 0.03 ({elapsed:.0f}s)")


def test_criterion_02_fixed_period_type_one_error(linear_lambda_grid):
    rates = {lam: res["fixed_period"] for lam, res in linear_lambda_grid.items()}
    for lam, rate in rates.items():
        assert in_band(rate), f"lambda={lam}: {rate:.4f} outside {BAND}"
    print(f"PASS criterion 2: fixed_period T1E in [{BAND[0]:.4f}, {BAND[1]:.4f}] "
          f"at lambda -0.5/0/+0.5: " + ", ".join(f"{rates[l]:.4f}" for l in (-0.5, 0.0, 0.5)))


def test_criterion_03_pooled_inflation_direction(linear_lambda_grid):
    up = linear_lambda_grid[0.5]["pooled"]
    down = linear_lambda_grid[-0.5]["pooled"]
    assert up > 0.040
    assert down < 0.015
    print(f"PASS criterion 3: pooled T1E {up:.4f} > 0.040 at +0.5, {down:.4f} < 0.015 at -0.5")


def test_criterion_04_power_ordering_with_overlap():
    rates = {}
    for d in (0, 125, 250, 500):
        oc = run_scenario(
            scenario(config(d=d), TrendSpec.none(4),
                     [ModelSpec("fixed_period"), ModelSpec("separate")], "alternative"),
            threads=THREADS,
        )
        rates[d] = (oc.per_estimator["fixed_period"].reject_rate,
                    oc.per_estimator["separate"].reject_rate)
    for d, (fixed, sep) in rates.items():
        mc_se = math.sqrt(sep * (1 - sep) / REPS)
        if d in (0, 500):
            assert abs(fixed - sep) <= 2 * mc_se, f"d={d}: {fixed:.4f} vs {sep:.4f}"
        else:
            assert fixed >= sep, f"d={d}: {fixed:.4f} < {sep:.4f}"
    print("PASS criterion 4: fixed_period power >= separate at d=125/250, "
          "equal within 2 mc_se at d=0/500: "
          + ", ".join(f"d={d}: {f:.3f}/{s:.3f}" for d, (f, s) in rates.items()))


def test_criterion_05_spline_smooth_control_stepwise_inflation():
    rates = {}
    for pattern, kw in (("linear", {}), ("inverted_u", {"n_p": 1000}),
                        ("seasonal", {"psi": 1.0}), ("stepwise", {})):
        oc = run_scenario(
            scenario(config(d=500), equal_trend(pattern, 0.5, **kw),
                     [ModelSpec("spline_period", spline_degree=3)], "null"),
            threads=THREADS,
        )
        st = oc.per_estimator["spline_period_q3"]
        rates[pattern] = st.reject_rate
        assert st.failures == 0
    for pattern in ("linear", "inverted_u", "seasonal"):
        assert in_band(rates[pattern]), f"{pattern}: {rates[pattern]:.4f} outside {BAND}"
    assert rates["stepwise"] > 0.04
    print("PASS criterion 5: cubic spline T1E "
          + ", ".join(f"{p}={r:.4f}" for p, r in rates.items())
          + f" (smooth in band, stepwise > 0.04)")


def test_criterion_06_spline_power_gain_at_zero_overlap():
    oc = run_scenario(
        scenario(config(d=500), equal_trend("linear", 0.5),
                 [ModelSpec("spline_period", spline_degree=3), ModelSpec("fixed_period")],
                 "alternative"),
        threads=THREADS,
    )
    spline = oc.per_estimator["spline_period_q3"].reject_rate
    fixed = oc.per_estimator["fixed_period"].reject_rate
    assert spline - fixed >= 0.015
    print(f"PASS criterion 6: spline power {spline:.4f} exceeds fixed_period {fixed:.4f} "
          f"by {100 * (spline - fixed):.2f}pp >= 1.5pp")


def test_criterion_07_mixed_models_miscontrol(mixed_lambda_grid):
    inflated = mixed_lambda_grid[0.5]
    calm = mixed_lambda_grid[0.0]
    for label in ("mixed_period", "mixed_calendar"):
        assert inflated[label].reject_rate > 0.040, (
            f"{label} at lambda=0.5: {inflated[label].reject_rate:.4f}"
        )
        assert in_band(calm[label].reject_rate), (
            f"{label} at lambda=0: {calm[label].reject_rate:.4f}"
        )
    print("PASS criterion 7: mixed T1E at lambda=0.5 "
          f"period={inflated['mixed_period'].reject_rate:.4f}, "
          f"calendar={inflated['mixed_calendar'].reject_rate:.4f} (> 0.040); "
          f"at lambda=0 in band: {calm['mixed_period'].reject_rate:.4f}, "
          f"{calm['mixed_calendar'].reject_rate:.4f}")


def test_criterion_08_interaction_mixed_reduces_inflation():
    # graded unequal trends in arms 1, 2, 4 (evaluated arm and control flat);
    # the inflation side of the one-sided test is the negative trend direction
    trend = TrendSpec("linear", lam=(0.0, -0.5, -1.0, 0.0, -1.5))
    oc = run_scenario(
        scenario(config(), trend,
                 [ModelSpec("mixedint_period"), ModelSpec("fixed_period")], "null"),
        threads=THREADS,
    )
    mixedint = oc.per_estimator["mixedint_period"].reject_rate
    fixed = oc.per_estimator["fixed_period"].reject_rate
    mc_se_fixed = math.sqrt(fixed * (1 - fixed) / REPS)
    assert mixedint > BAND[1]
    assert mixedint < fixed
    assert fixed - mixedint >= 2 * mc_se_fixed
    print(f"PASS criterion 8: mixedint_period T1E {mixedint:.4f} in ({BAND[1]:.4f}, "
          f"{fixed:.4f}), below fixed_period by {fixed - mixedint:.4f} >= {2 * mc_se_fixed:.4f}")


def test_criterion_09_trial_size_anchor():
    sizes = [len(generate_trial(config(), TrendSpec.none(4), "null", seed=s))
             for s in range(100)]
    # the discard rule interacts with final-arm completion: realized totals
    # stay within one maximal block (2 * (3 active + 1) = 8) of 1528
    assert all(abs(n - 1528) <= 8 for n in sizes)
    assert abs(np.mean(sizes) - 1528) <= 2.0
    print(f"PASS criterion 9: realized N in [{min(sizes)}, {max(sizes)}], "
          f"mean {np.mean(sizes):.1f}, all within one block of 1528")


def test_criterion_10_oracle_suites():
    rng = np.random.default_rng(SEED)
    # OLS vs explicit normal equations and vs pivoted QR, 1e-8
    X = np.column_stack([np.ones(200), rng.normal(size=(200, 4))])
    y = rng.normal(size=200)
    fit = ols_fit(DesignMatrix(X=X, y=y, columns=tuple("abcde")))
    for oracle in (normal_equations_ols, qr_ols):
        beta_o, cov_o, _, _ = oracle(X, y)
        assert np.abs(fit.beta - beta_o).max() < 1e-8
        assert np.abs(fit.cov - cov_o).max() < 1e-8

    # B-spline basis vs naive recursion 1e-12, partition of unity 1e-12
    inner = tuple(sorted(rng.uniform(5.0, 95.0, size=4)))
    basis = SplineBasis(degree=3, inner_knots=inner, boundary=(0.0, 100.0))
    times = rng.uniform(0.0, 99.99, size=60)
    B = basis_matrix(times, basis)
    knots = basis.padded_knots()
    for row, x in zip(B, times):
        assert np.abs(row - naive_basis_row(float(x), 3, knots)).max() < 1e-12
    grid_t = np.linspace(0.0, 100.0, 401)
    assert np.abs(basis_matrix(grid_t, basis).sum(axis=1) - 1.0).max() < 1e-12

    # REML vs 2-D grid search 1e-6 and vs balanced ANOVA closed form 1e-6
    g, m_per = 6, 10
    u = rng.normal(0.0, 0.8, g)
    y1 = np.concatenate([2.0 + ui + rng.normal(0.0, 1.0, m_per) for ui in u])
    X1 = np.ones((g * m_per, 1))
    groups1 = np.repeat(np.arange(1, g + 1), m_per)
    anova_fit = reml_fit(X1, groups1, y1)
    ybar_i = y1.reshape(g, m_per).mean(axis=1)
    msb = m_per * ((ybar_i - y1.mean()) ** 2).sum() / (g - 1)
    msw = ((y1.reshape(g, m_per) - ybar_i[:, None]) ** 2).sum() / (g * m_per - g)
    assert anova_fit.sigma2_random == pytest.approx(max(0.0, (msb - msw) / m_per), abs=1e-6)

    n, m = 60, 3
    X2 = np.column_stack([np.ones(n), rng.normal(size=(n, 1))])
    grp = rng.integers(0, m, n)
    y2 = X2 @ np.array([1.0, 0.3]) + 0.8 * rng.normal(size=m)[grp] + rng.normal(size=n)
    fit2 = reml_fit(X2, grp + 1, y2, cov_structure="ar1")
    work2 = _RemlWorkspace(X2, grp + 1, y2)
    ours = work2.neg2ll(fit2.sigma2_random / fit2.sigma2, fit2.rho, "ar1")
    grid_best = min(
        work2.neg2ll(math.exp(lg), math.tanh(z), "ar1")
        for lg in np.linspace(-12.0, 5.0, 50)
        for z in np.linspace(-2.6, 2.6, 50)
    )
    assert ours <= grid_best + 1e-6

    # Student-t CDF vs quadrature 1e-10
    for df in (1, 3, 10, 120, 498):
        for t in (-4.0, -1.2, 0.0, 0.8, 2.5, 4.0):
            assert t_sf(t, df) == pytest.approx(t_sf_quad(t, df), abs=1e-10)

    # AR(1) positive definite across the rho grid up to +/- 0.99
    for m_ in (2, 10, 40):
        for rho in np.arange(-0.99, 0.991, 0.09):
            np.linalg.cholesky(ar1_correlation(m_, float(rho)))
    print("PASS criterion 10: OLS/spline/REML/t-CDF/AR(1) oracle suites at stated tolerances")


def test_criterion_11_determinism_across_thread_counts(tmp_path):
    grid = GridSpec(
        setting="determinism", K=2, n=40, M=2,
        estimators=(ModelSpec("fixed_period"), ModelSpec("mixed_period"),
                    ModelSpec("pooled")),
        d_values=(40,), patterns=("linear",), lambdas=(0.25,),
        hypotheses=("null",), replicates=100, seed=SEED,
    )
    paths = []
    for threads in (1, 2):
        rows = run_grid(grid, threads=threads)
        path = tmp_path / f"threads{threads}.csv"
        rows_to_csv(rows, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("PASS criterion 11: identical result bytes for 1 and 2 worker processes")
