"""Least-squares core: design assembly, OLS by the normal equations, t-tests.

Least squares has two entry points with one rank rule: :func:`ols_fit` on a
row-level design from :func:`build_design` (the spline designs, the
two-sample t-tests, REML's starting shift), and :func:`cell_ols` on the
interval-indicator designs of the fixed-effect estimators, from per-(arm x
interval) cell counts and sums. scipy provides the Student-t distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import stdtr

from .design import ConfigError, interval_indices
from .spline import SplineBasis, basis_matrix

RANK_TOL = 1e-10  # smallest eigenvalue of X'X relative to its largest
_NULL_WEIGHT = 1e-6  # |entry| of a null eigenvector above which its column is named


class RankDeficiencyError(ValueError):
    """Design matrix is numerically rank deficient."""

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        super().__init__(f"collinear design columns: {', '.join(self.columns)}")


@dataclass(frozen=True)
class DesignMatrix:
    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]


@dataclass(frozen=True)
class OlsFit:
    beta: np.ndarray
    cov: np.ndarray
    sigma2_hat: float
    df: int
    columns: tuple[str, ...]


class WaldTest(NamedTuple):
    estimate: float
    se: float
    t: float
    p_one: float
    p_two: float
    reject: bool


def t_sf(t: float, df: float) -> float:
    """Upper-tail probability P(T_df > t)."""
    if df <= 0:
        raise ConfigError(f"degrees of freedom must be positive, got {df}")
    if t != t:
        raise ConfigError("t statistic is NaN")
    return float(stdtr(df, -t))


# ---------------------------------------------------------------------------
# Design assembly and OLS
# ---------------------------------------------------------------------------

def build_design(
    times: np.ndarray,
    arms: np.ndarray,
    y: np.ndarray,
    treatments: Sequence[int],
    adjustment: str = "none",
    starts: Sequence[float] | None = None,
    horizon: float | None = None,
    basis: SplineBasis | None = None,
) -> DesignMatrix:
    """Assemble the fixed-effect design for a given time adjustment.

    Columns: intercept, one indicator per treatment arm in ``treatments``,
    then time columns. Period/calendar adjustments add indicators for
    intervals 2..end (the first interval is the reference level); the
    spline adjustment adds the basis columns with the first one dropped to
    keep the design full rank next to the intercept.
    """
    times = np.asarray(times, dtype=float)
    arms = np.asarray(arms)
    trt = sorted(treatments)
    cols = [np.ones(times.size)] + [(arms == k).astype(float) for k in trt]
    if adjustment == "spline":
        if basis is None:
            raise ConfigError("spline adjustment needs a SplineBasis")
        B = basis_matrix(times, basis)
        # drop first basis column (intercept present)
        cols += [B[:, i] for i in range(1, B.shape[1])]
        labels = _indicator_columns(trt, "none", 1) + [f"bs{i + 1}" for i in range(1, B.shape[1])]
    else:
        idx = _interval_index(times, adjustment, starts, horizon)
        n_intervals = 1 if idx is None else len(starts)
        cols += [(idx == s).astype(float) for s in range(2, n_intervals + 1)]
        labels = _indicator_columns(trt, adjustment, n_intervals)
    X = np.column_stack(cols)
    return DesignMatrix(X=X, y=np.asarray(y, dtype=float), columns=tuple(labels))


def _interval_index(times, adjustment: str, starts, horizon) -> np.ndarray | None:
    """1-based interval of each time for a period/calendar adjustment, None for none."""
    if adjustment == "none":
        return None
    if adjustment not in ("period", "calendar"):
        raise ConfigError(f"unknown adjustment {adjustment!r}")
    if starts is None or horizon is None:
        raise ConfigError(f"{adjustment} adjustment needs interval starts and a horizon")
    return interval_indices(times, starts, horizon)


def _indicator_columns(trt: Sequence[int], adjustment: str, n_intervals: int) -> list[str]:
    """Labels of the intercept, the treatments and the intervals 2..n_intervals."""
    prefix = "per" if adjustment == "period" else "cal"
    return (["intercept"] + [f"trt{k}" for k in trt]
            + [f"{prefix}{s}" for s in range(2, n_intervals + 1)])


def ols_fit(dm: DesignMatrix) -> OlsFit:
    """Least squares via the normal equations, with rank-deficiency detection.

    X'X is rank deficient when its smallest eigenvalue is at most RANK_TOL
    times its largest (cond(X) above ~1e5); the error names the columns that
    carry weight in an eigenvector of such an eigenvalue.
    """
    X, y = dm.X, dm.y
    n, p = X.shape
    _check_size(n, p)
    beta, lam, V = _solve_normal_equations(X.T @ X, X.T @ y, dm.columns)
    resid = y - X @ beta
    df = n - p
    sigma2 = float(resid @ resid) / df
    return OlsFit(beta=beta, cov=sigma2 * (V / lam) @ V.T, sigma2_hat=sigma2, df=df,
                  columns=dm.columns)


def _check_size(n: int, p: int) -> None:
    if n <= p:
        raise ConfigError(f"need more observations than columns (n={n}, p={p})")


def _solve_normal_equations(XtX, Xty, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """beta and the eigendecomposition (lam, V) of X'X, whose eigenvalues decide rank."""
    lam, V = np.linalg.eigh(XtX)
    null = lam <= RANK_TOL * max(lam[-1], 1e-300)
    if null.any():
        weight = np.abs(V[:, null]).max(axis=1)
        raise RankDeficiencyError([columns[i] for i in np.flatnonzero(weight > _NULL_WEIGHT)])
    return np.linalg.solve(XtX, Xty), lam, V


def cell_ols(
    times: np.ndarray,
    arms: np.ndarray,
    y: np.ndarray,
    treatments: Sequence[int],
    adjustment: str = "none",
    starts: Sequence[float] | None = None,
    horizon: float | None = None,
) -> OlsFit:
    """``ols_fit(build_design(...))`` for the ``none``, ``period`` and
    ``calendar`` adjustments, from cell counts and sums.

    Every column of these designs is a 0/1 indicator of an arm or an
    interval, so X'X and X'y follow from the record counts and response
    sums of the (1+T) x S cells of (reference arm, then the T treatments) x
    interval. X'X = [[A, B], [B', D]] with D diagonal (the intervals 2..S),
    so one solve with the Schur complement M = A - B D^-1 B' gives the
    intercept and treatment coefficients, and M^-1 is the leading block of
    (X'X)^-1. The fit returned holds those coefficients and their
    covariance only; ``df`` counts every column.

    The rank rule and its errors are ``ols_fit``'s. 3n bounds the largest
    eigenvalue of X'X and 1/min D + ||M^-1||_F (1 + ||B D^-1||_F^2) that of
    its inverse; where these bounds cannot prove the rule passes, X'X is
    assembled from the counts (integers, so equal to ``X.T @ X``) and goes
    through ``ols_fit``'s eigenvalue rule. The bounds save that
    eigendecomposition, which at p ~ 60 costs more than the rest of the fit.
    The residual is taken record by record, as for a row-level fit.
    """
    y = np.asarray(y, dtype=float)
    trt = sorted(treatments)
    a = len(trt) + 1
    idx = _interval_index(times, adjustment, starts, horizon)
    s = 1 if idx is None else len(starts)
    # cell = s * row + interval - 1, with rows (reference, *trt); an arm
    # outside treatments is a reference row, as in build_design
    row_start = np.full(max(trt, default=0) + 2, -1, dtype=np.intp)
    row_start[trt] = np.arange(s - 1, a * s - 1, s)
    cell = row_start.take(np.asarray(arms), mode="clip") + (1 if idx is None else idx)
    columns = _indicator_columns(trt, adjustment, s)
    n, p = y.size, len(columns)
    _check_size(n, p)
    counts = np.bincount(cell, minlength=a * s).reshape(a, s).astype(float)
    sums = np.bincount(cell, weights=y, minlength=a * s).reshape(a, s)
    # X'X = [[A, B], [B', diag(d)]] and X'y = [u, v], with A and u of the
    # intercept and treatments, d and v of the intervals 2..S. With the
    # reference row replaced by the interval totals, B, d and v are slices.
    counts[0] = counts.sum(axis=0)
    sums[0] = sums.sum(axis=0)
    n_row = counts.sum(axis=1)
    A = np.diag(n_row)
    A[0] = A[:, 0] = n_row
    u = sums.sum(axis=1)
    B, d, v = counts[:, 1:], counts[0, 1:], sums[0, 1:]
    beta = None
    if d.all():
        E = B / d
        # one LU solve for the coefficients and the inverse
        rhs = np.eye(a, a + 1, 1)
        rhs[:, 0] = u - E @ v
        try:
            solved = np.linalg.solve(A - E @ B.T, rhs)
        except np.linalg.LinAlgError:
            pass
        else:
            xtx_inv = solved[:, 1:]
            bound = (math.sqrt(np.vdot(xtx_inv, xtx_inv)) * (1.0 + np.vdot(E, E))
                     + (1.0 / d.min() if d.size else 0.0))
            if 3.0 * n * bound * RANK_TOL < 1.0:  # False for a NaN bound too
                beta = solved[:, 0]
                delta = (v - beta @ B) / d
    if beta is None:
        XtX = np.block([[A, B], [B.T, np.diag(d)]])
        coef, lam, V = _solve_normal_equations(XtX, np.concatenate([u, v]), columns)
        beta, delta, xtx_inv = coef[:a], coef[a:], (V[:a] / lam) @ V[:a].T

    fitted = np.concatenate([[0.0], delta]) + beta[:, None]
    fitted[1:] += beta[0]
    resid = y - fitted.take(cell)
    df = n - p
    sigma2 = float(resid @ resid) / df
    return OlsFit(beta=beta, cov=sigma2 * xtx_inv, sigma2_hat=sigma2, df=df,
                  columns=tuple(columns[:a]))


def t_test(
    estimate: float, se: float, df: float, sided: str = "one_greater", alpha: float = 0.025
) -> WaldTest:
    """t-test of an estimate against zero, with its standard error and degrees of freedom.

    ``one_greater`` tests the one-sided null estimate <= 0; otherwise a
    two-sided test.
    """
    if sided not in ("one_greater", "two"):
        raise ConfigError(f"sided must be 'one_greater' or 'two', got {sided!r}")
    if se == 0.0:
        raise ConfigError("degenerate test: zero standard error")
    t = estimate / se
    p_one = t_sf(t, df)
    p_two = 2.0 * t_sf(abs(t), df)
    reject = (p_one if sided == "one_greater" else p_two) < alpha
    return WaldTest(estimate=estimate, se=se, t=t, p_one=p_one, p_two=p_two, reject=reject)


def wald_test(
    fit, coeff: str, sided: str = "one_greater", alpha: float = 0.025
) -> WaldTest:
    """t-test of a single coefficient against zero.

    Works for any fit exposing beta/cov/df/columns.
    """
    if coeff not in fit.columns:
        raise ConfigError(f"coefficient {coeff!r} not in fit columns")
    i = fit.columns.index(coeff)
    return t_test(float(fit.beta[i]), math.sqrt(float(fit.cov[i, i])), fit.df, sided, alpha)
