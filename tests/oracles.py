"""Independent oracle implementations used only by the tests.

Each oracle deliberately takes a different algorithmic route than the
package code it checks: naive recursion instead of the iterated basis
build, numerical quadrature instead of the incomplete-beta evaluation,
column-pivoted QR instead of the normal equations, the closed-form
pooled-variance t statistic instead of a regression on an arm indicator,
a dense whitened QR fit instead of the group counts and sums, a
patient-by-patient randomization loop instead of drawing the blocks
between two events at once.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import qr, solve_triangular

from platformtrial.design import ConfigError, entry_times


def naive_bspline(x: float, k: int, i: int, t: np.ndarray) -> float:
    """Textbook recursive B-spline evaluation on knot vector t."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * naive_bspline(x, k - 1, i, t)
    c2 = 0.0
    if t[i + k + 1] != t[i + 1]:
        c2 = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * naive_bspline(x, k - 1, i + 1, t)
    return c1 + c2


def naive_basis_row(x: float, degree: int, knots: np.ndarray) -> np.ndarray:
    n_fun = len(knots) - degree - 1
    return np.array([naive_bspline(x, degree, i, knots) for i in range(n_fun)])


def t_pdf(x: float, df: float) -> float:
    ln = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1.0) / 2.0 * math.log1p(x * x / df)
    )
    return math.exp(ln)


def t_sf_quad(t: float, df: float) -> float:
    """Upper tail of the Student-t by adaptive quadrature from 0 to |t|."""
    body, _ = quad(t_pdf, 0.0, abs(t), args=(df,), epsabs=1e-13, epsrel=1e-13)
    return 0.5 - body if t >= 0 else 0.5 + body


def normal_equations_ols(X: np.ndarray, y: np.ndarray):
    """(beta, cov, sigma2, df) via explicit normal equations."""
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    df = X.shape[0] - X.shape[1]
    sigma2 = float(resid @ resid) / df
    return beta, sigma2 * np.linalg.inv(xtx), sigma2, df


def qr_ols(X: np.ndarray, y: np.ndarray):
    """(beta, cov, sigma2, df) via column-pivoted QR: R is never squared."""
    n, p = X.shape
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    beta = np.empty(p)
    beta[piv] = solve_triangular(R, Q.T @ y, lower=False)
    resid = y - X @ beta
    df = n - p
    sigma2 = float(resid @ resid) / df
    r_inv = solve_triangular(R, np.eye(p), lower=False)
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return beta, sigma2 * xtx_inv, sigma2, df


def two_sample_t(y_trt: np.ndarray, y_ctl: np.ndarray):
    """(mean difference, standard error, df) of the pooled-variance two-sample t-test."""
    n1, n0 = y_trt.size, y_ctl.size
    ss1 = float(((y_trt - y_trt.mean()) ** 2).sum())
    ss0 = float(((y_ctl - y_ctl.mean()) ** 2).sum())
    df = n1 + n0 - 2
    se = math.sqrt((ss1 + ss0) / df * (1.0 / n1 + 1.0 / n0))
    return float(y_trt.mean() - y_ctl.mean()), se, df


def ar1_correlation(m: int, rho: float) -> np.ndarray:
    """AR(1) correlation matrix: entry (a, b) = rho^|a-b|."""
    if not -1.0 < rho < 1.0:
        raise ConfigError(f"AR(1) correlation must satisfy |rho| < 1, got {rho}")
    idx = np.arange(m)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def dense_reml_neg2ll(X, groups, y, gamma, rho=0.0) -> float:
    """Profiled REML objective from the dense n x n V = I + gamma Z R Z'.

    Column g-1 of Z indicates the records with group code g (0 = none).
    The model is whitened by the Cholesky factor of V and then fitted by QR,
    so no cross-product is formed. y is first replaced by its least-squares
    residual on X, which leaves the profiled objective unchanged and keeps
    a large mean from swamping the whitened residual.
    """
    n, p = X.shape
    m = int(np.max(groups))
    Z = (np.asarray(groups)[:, None] == np.arange(1, m + 1)).astype(float)
    R = ar1_correlation(m, rho)
    C = np.linalg.cholesky(np.eye(n) + gamma * Z @ R @ Z.T)
    Xw = solve_triangular(C, X, lower=True)
    y = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    yw = solve_triangular(C, y, lower=True)
    Q, Rq = np.linalg.qr(Xw)
    r = yw - Q @ (Q.T @ yw)
    s2 = float(r @ r) / (n - p)
    return (
        (n - p) * math.log(s2)
        + 2.0 * np.log(np.diag(C)).sum()
        + 2.0 * np.log(np.abs(np.diag(Rq))).sum()
        + (n - p)
    )


def block_randomize(active_arms, rng: np.random.Generator):
    """Infinite assignment stream: blocks of the control and each arm twice, shuffled."""
    members = np.array([0] + sorted(active_arms), dtype=np.int64).repeat(2)
    while True:
        yield from rng.permutation(members)


def assign_per_patient(config, rng: np.random.Generator):
    """(assignments, entries, exits) by one loop step per patient.

    The active arm set is re-evaluated at each entry time and after each
    arm completes; a change starts a fresh block stream, discarding the
    partial block.
    """
    entries = entry_times(config)
    counts = [0] * (config.K + 1)
    exits = [0] * config.K
    remaining = config.K
    entry_set = set(entries)
    assignments: list[int] = []
    active: tuple[int, ...] = ()
    stream = None
    j = 0
    refresh = True
    while remaining:
        j += 1
        if refresh or j in entry_set:
            now_active = tuple(
                k for k in range(1, config.K + 1) if entries[k - 1] <= j and counts[k] < config.n
            )
            if now_active != active or stream is None:
                active = now_active
                stream = block_randomize(active, rng) if active else None
            refresh = False
        arm = 0 if stream is None else int(next(stream))
        counts[arm] += 1
        assignments.append(arm)
        if arm != 0 and counts[arm] == config.n:
            exits[arm - 1] = j
            remaining -= 1
            refresh = True
    return np.asarray(assignments, dtype=np.int64), entries, tuple(exits)
