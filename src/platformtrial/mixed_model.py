"""Linear mixed models estimated by REML.

Covers random time-interval intercepts (uncorrelated or AR(1)) and random
treatment-by-interval interactions. The restricted likelihood is profiled
down to the variance ratio gamma = sigma2_random / sigma2 (log scale) and,
for AR(1), the correlation rho (atanh scale); the residual variance and
fixed effects then follow in closed form. V^{-1} is applied through the
Woodbury identity, so each objective evaluation costs O(N m^2) with m the
number of random-effect columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .design import ConfigError, interval_indices

_PENALTY = 1e12
_MAX_EVALS = 500  # objective evaluations per fit, scan included
_FATOL = 1e-8
_LOG_GAMMA_BOUND = 34.0
_ATANH_RHO_BOUND = 18.0


class DegenerateRandomDesign(ConfigError):
    """No usable random-effect columns; the model reduces to plain OLS."""


@dataclass(frozen=True)
class MixedFit:
    beta: np.ndarray
    cov: np.ndarray
    columns: tuple[str, ...]
    df: int
    sigma2: float
    sigma2_random: float
    rho: float | None
    reml_loglik: float
    converged: bool
    iterations: int


def ar1_correlation(m: int, rho: float) -> np.ndarray:
    """AR(1) correlation matrix: entry (a, b) = rho^|a-b|."""
    if not -1.0 < rho < 1.0:
        raise ConfigError(f"AR(1) correlation must satisfy |rho| < 1, got {rho}")
    idx = np.arange(m)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def build_random_design(
    times: np.ndarray,
    arms: np.ndarray,
    grouping: str,
    starts: Sequence[float],
    horizon: float,
    treatments: Sequence[int] | None = None,
    exclude_arm: int | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Random-effect design matrix Z.

    ``interval`` grouping yields one indicator column per time interval
    2..end. ``interaction`` grouping yields one column per (treatment arm,
    interval >= 2) pair, with the evaluated arm excluded; columns that are
    identically zero (arm not present in the interval) are removed.
    """
    times = np.asarray(times, dtype=float)
    arms = np.asarray(arms)
    idx = interval_indices(times, starts, horizon)
    cols: list[np.ndarray] = []
    labels: list[str] = []
    if grouping == "interval":
        for s in range(2, len(starts) + 1):
            col = (idx == s).astype(float)
            if col.any():
                cols.append(col)
                labels.append(f"iv{s}")
    elif grouping == "interaction":
        if treatments is None:
            raise ConfigError("interaction grouping needs the treatment-arm set")
        for k in sorted(treatments):
            if k == exclude_arm:
                continue
            in_arm = arms == k
            for s in range(2, len(starts) + 1):
                col = (in_arm & (idx == s)).astype(float)
                if col.any():
                    cols.append(col)
                    labels.append(f"trt{k}:iv{s}")
    else:
        raise ConfigError(f"unknown random grouping {grouping!r}")
    if not cols:
        raise DegenerateRandomDesign(
            "no random-effect columns (single time interval); fit the fixed model instead"
        )
    return np.column_stack(cols), tuple(labels)


class _RemlWorkspace:
    """Cross-products shared by all objective evaluations of one fit."""

    def __init__(self, X: np.ndarray, Z: np.ndarray, y: np.ndarray):
        self.n, self.p = X.shape
        self.m = Z.shape[1]
        self.XtX = X.T @ X
        self.Xty = X.T @ y
        self.yty = float(y @ y)
        self.ZtZ = Z.T @ Z
        self.ZtX = Z.T @ X
        self.Zty = Z.T @ y
        eig = np.linalg.eigvalsh(self.XtX)
        if eig[0] <= 1e-10 * max(eig[-1], 1e-300):
            raise ConfigError("fixed-effect design is rank deficient")

    def evaluate(self, gamma: float, rho: float, structure: str):
        """(-2 log restricted likelihood, beta, X'W^-1 X, sigma2) for W = I + gamma Z R Z'.

        beta and sigma2 are profiled out; -2 REML omits the (n-p)log(2pi)
        constant and is _PENALTY where X'W^-1 X is not positive definite.
        """
        if structure == "ar1":
            L = np.linalg.cholesky(ar1_correlation(self.m, rho))
            S = gamma * (L.T @ self.ZtZ @ L)
            ZtX_r = L.T @ self.ZtX
            Zty_r = L.T @ self.Zty
        else:
            S = gamma * self.ZtZ
            ZtX_r = self.ZtX
            Zty_r = self.Zty
        G = np.eye(self.m) + S
        cG = np.linalg.cholesky(G)
        logdet_w = 2.0 * float(np.log(np.diag(cG)).sum())
        # W^{-1} correction: A' W^{-1} B = A'B - gamma (Z'A)' L G^{-1} L' (Z'B)
        sol_x = np.linalg.solve(G, ZtX_r)
        sol_y = np.linalg.solve(G, Zty_r)
        XtWiX = self.XtX - gamma * (ZtX_r.T @ sol_x)
        XtWiy = self.Xty - gamma * (ZtX_r.T @ sol_y)
        ytWiy = self.yty - gamma * float(Zty_r @ sol_y)
        sign, logdet_x = np.linalg.slogdet(XtWiX)
        beta = np.linalg.solve(XtWiX, XtWiy)
        df = self.n - self.p
        sigma2 = max((ytWiy - float(beta @ XtWiy)) / df, 1e-300)
        neg2 = df * math.log(sigma2) + logdet_w + logdet_x + df if sign > 0 else _PENALTY
        return neg2, beta, XtWiX, sigma2

    def neg2ll(self, gamma: float, rho: float, structure: str) -> float:
        """The REML objective: -2 REML, or _PENALTY where it cannot be evaluated."""
        try:
            return self.evaluate(gamma, rho, structure)[0]
        except np.linalg.LinAlgError:
            return _PENALTY


def reml_neg2loglik(
    X: np.ndarray,
    Z: np.ndarray,
    y: np.ndarray,
    gamma: float,
    rho: float = 0.0,
    cov_structure: str = "independent",
) -> float:
    """Profiled REML objective at a given (gamma, rho); used for diagnostics."""
    return _RemlWorkspace(np.asarray(X, float), np.asarray(Z, float), np.asarray(y, float)).neg2ll(
        gamma, rho, cov_structure
    )


def reml_fit(
    X: np.ndarray,
    Z: np.ndarray,
    y: np.ndarray,
    cov_structure: str = "independent",
    columns: Sequence[str] | None = None,
) -> MixedFit:
    """Fit the mixed model by REML over the transformed variance parameters.

    Nelder-Mead on (log gamma) or (log gamma, atanh rho); a boundary
    solution gamma -> 0 is legitimate and reported, not an error. A fit that
    exhausts the evaluation budget before Nelder-Mead meets its tolerances
    is returned with converged=False.
    """
    if cov_structure not in ("independent", "ar1"):
        raise ConfigError(f"unknown covariance structure {cov_structure!r}")
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] <= X.shape[1]:
        raise ConfigError("need more observations than fixed-effect columns")
    work = _RemlWorkspace(X, Z, y)

    def unpack(x):
        gamma = math.exp(float(np.clip(x[0], -_LOG_GAMMA_BOUND, _LOG_GAMMA_BOUND)))
        rho = 0.0
        if cov_structure == "ar1":
            rho = math.tanh(float(np.clip(x[1], -_ATANH_RHO_BOUND, _ATANH_RHO_BOUND)))
        return gamma, rho

    def objective(x):
        gamma, rho = unpack(x)
        return work.neg2ll(gamma, rho, cov_structure)

    # coarse scan picks the Nelder-Mead start; the surface can be flat in gamma
    scan_logg = (-10.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0)
    scan_rho = (-0.5, 0.0, 0.5) if cov_structure == "ar1" else (0.0,)
    best_x, best_f = None, math.inf
    n_scan = 0
    for lg in scan_logg:
        for r in scan_rho:
            x = [lg] if cov_structure == "independent" else [lg, math.atanh(r)]
            f = objective(x)
            n_scan += 1
            if f < best_f:
                best_x, best_f = x, f
    # the initial simplex holds the scan's best point and Nelder-Mead returns
    # its best vertex, so the result never falls behind the scan
    budget = max(_MAX_EVALS - n_scan, 10)
    res = minimize(
        objective,
        np.asarray(best_x, dtype=float),
        method="Nelder-Mead",
        options={"fatol": _FATOL, "xatol": 1e-7, "maxfev": budget, "maxiter": budget},
    )
    gamma, rho = unpack(res.x)
    neg2, beta, XtWiX, sigma2 = work.evaluate(gamma, rho, cov_structure)
    df = work.n - work.p
    return MixedFit(
        beta=beta,
        cov=sigma2 * np.linalg.inv(XtWiX),
        columns=tuple(columns) if columns is not None else tuple(f"x{i}" for i in range(work.p)),
        df=df,
        sigma2=sigma2,
        sigma2_random=gamma * sigma2,
        rho=rho if cov_structure == "ar1" else None,
        reml_loglik=-0.5 * (neg2 + df * math.log(2.0 * math.pi)),
        converged=bool(res.success),
        iterations=int(res.nfev) + n_scan,
    )
