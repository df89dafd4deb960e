"""Least-squares core: design assembly, QR-based OLS, t-tests.

scipy provides the pivoted QR factorization and the Student-t distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import stdtr

from .design import ConfigError, interval_indices
from .spline import SplineBasis, basis_matrix

RANK_TOL = 1e-10  # relative to the largest QR pivot


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
    cols = [np.ones(times.size)]
    labels = ["intercept"]
    for k in sorted(treatments):
        cols.append((arms == k).astype(float))
        labels.append(f"trt{k}")
    if adjustment in ("period", "calendar"):
        if starts is None or horizon is None:
            raise ConfigError(f"{adjustment} adjustment needs interval starts and a horizon")
        idx = interval_indices(times, starts, horizon)
        prefix = "per" if adjustment == "period" else "cal"
        for s in range(2, len(starts) + 1):
            cols.append((idx == s).astype(float))
            labels.append(f"{prefix}{s}")
    elif adjustment == "spline":
        if basis is None:
            raise ConfigError("spline adjustment needs a SplineBasis")
        B = basis_matrix(times, basis)
        for i in range(1, B.shape[1]):  # drop first basis column (intercept present)
            cols.append(B[:, i])
            labels.append(f"bs{i + 1}")
    elif adjustment != "none":
        raise ConfigError(f"unknown adjustment {adjustment!r}")
    X = np.column_stack(cols)
    return DesignMatrix(X=X, y=np.asarray(y, dtype=float), columns=tuple(labels))


def ols_fit(dm: DesignMatrix) -> OlsFit:
    """Least squares via column-pivoted QR, with rank-deficiency detection."""
    X, y = dm.X, dm.y
    n, p = X.shape
    if n <= p:
        raise ConfigError(f"need more observations than columns (n={n}, p={p})")
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or (diag < RANK_TOL * diag[0]).any():
        bad = diag < RANK_TOL * max(diag[0], 1e-300)
        raise RankDeficiencyError([dm.columns[i] for i in piv[bad]])
    beta_piv = solve_triangular(R, Q.T @ y, lower=False)
    beta = np.empty(p)
    beta[piv] = beta_piv
    resid = y - X @ beta
    df = n - p
    sigma2 = float(resid @ resid) / df
    r_inv = solve_triangular(R, np.eye(p), lower=False)
    xtx_inv_piv = r_inv @ r_inv.T
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = xtx_inv_piv
    return OlsFit(beta=beta, cov=sigma2 * xtx_inv, sigma2_hat=sigma2, df=df, columns=dm.columns)


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
