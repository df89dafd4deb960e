"""Linear mixed models estimated by REML.

Random time-interval intercepts (uncorrelated or AR(1)) and random
treatment-by-interval interactions put each record in at most one group,
so the random design is a group code per record and a fit needs only group
statistics. The restricted likelihood is profiled down to gamma =
sigma2_random / sigma2 (log scale) and, for AR(1), rho (atanh scale). An
evaluation is elementwise in the groups, after one m x m eigh for AR(1).
The independent structure has gamma alone, so a scan on log gamma brackets
the optimum and a bounded scalar search refines it; AR(1) starts Nelder-Mead
from a scan over (log gamma, atanh rho).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .design import ConfigError, interval_indices
from .regression_engine import DesignMatrix, ols_fit

_PENALTY = 1e12
_MAX_EVALS = 500  # objective evaluations per fit, scan included
_FATOL = 1e-8
_LOG_GAMMA_BOUND = 34.0
_LOG_GAMMA_SCAN = (-10.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0)  # the surface can be flat in gamma
_ATANH_RHO_BOUND = 18.0
# gamma = sigma2_random / sigma2 at or below this is reported as a boundary
# (gamma -> 0) solution; boundary fits end at exp(-_LOG_GAMMA_BOUND) ~ 1.7e-15
BOUNDARY_GAMMA = 1e-6


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


def build_random_design(
    times: np.ndarray,
    arms: np.ndarray,
    grouping: str,
    starts: Sequence[float],
    horizon: float,
    treatments: Sequence[int] | None = None,
    exclude_arm: int | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Random-effect group of each record: 0 for none, g in 1..m for column g of Z.

    ``interval`` grouping has one group per time interval 2..end, and
    ``interaction`` one per (treatment arm other than exclude_arm, interval
    >= 2). Empty groups are dropped and the rest numbered in label order.
    """
    idx = interval_indices(times, starts, horizon)
    if grouping == "interval":
        owners = {"": np.ones(idx.shape, dtype=bool)}
    elif grouping == "interaction":
        if treatments is None:
            raise ConfigError("interaction grouping needs the treatment-arm set")
        owners = {f"trt{k}:": np.asarray(arms) == k for k in sorted(treatments) if k != exclude_arm}
    else:
        raise ConfigError(f"unknown random grouping {grouping!r}")
    later = range(2, len(starts) + 1)
    cell = np.zeros(idx.shape, dtype=np.intp)  # 1 + position in names, 0 for none
    for i, rows in enumerate(owners.values()):
        rows = rows & (idx >= 2)
        cell[rows] = i * len(later) + idx[rows] - 1
    names = [f"{owner}iv{s}" for owner in owners for s in later]
    present = np.bincount(cell, minlength=len(names) + 1)[1:] > 0
    if not present.any():
        raise DegenerateRandomDesign(
            "no random-effect columns (single time interval); fit the fixed model instead"
        )
    code = np.concatenate(([0], np.cumsum(present)))
    return code[cell], tuple(name for name, kept in zip(names, present) if kept)


class _RemlWorkspace:
    """Group statistics shared by all objective evaluations of one fit.

    Z has disjoint indicator columns, so Z'Z = D = diag(d). With A = [X y],
    A'W^-1 A = within + T'(I + gamma H)^-1 T and log det W = log det(I +
    gamma H), where ``within`` holds the within-group cross-products of A,
    T = D^-1/2 Z'A its scaled group sums, and H = D^1/2 R D^1/2.
    """

    def __init__(self, X: np.ndarray, groups: np.ndarray, y: np.ndarray,
                 columns: Sequence[str] | None = None):
        self.n, self.p = X.shape
        self.columns = tuple(columns) if columns is not None else tuple(
            f"x{i}" for i in range(self.p)
        )
        # fit y - X b0 for the OLS b0: beta shifts by b0 and the objective is
        # unchanged, but y'W^-1 y - beta'X'W^-1 y no longer cancels. The OLS
        # fit also rejects a rank-deficient X, naming its columns.
        self.b0 = ols_fit(DesignMatrix(X=X, y=y, columns=self.columns)).beta
        A = np.column_stack([X, y - X @ self.b0])
        counts = np.bincount(groups).astype(float)
        sums = np.column_stack([np.bincount(groups, column) for column in A.T])
        means = sums / np.maximum(counts, 1.0)[:, None]
        means[0] = 0.0  # records without a random effect are not centred
        centred = A - means[groups]
        self.within = centred.T @ centred
        kept = np.flatnonzero(counts[1:])  # empty groups carry no data but count in AR(1) lags
        self.lags = np.abs(kept[:, None] - kept[None, :])
        self.d = counts[1:][kept]
        self.sqrt_dd = np.sqrt(np.outer(self.d, self.d))
        self.T = means[1:][kept] * np.sqrt(self.d)[:, None]

    def evaluate(self, gamma: float, rho: float, structure: str):
        """(-2 log restricted likelihood, beta, X'W^-1 X, sigma2) for W = I + gamma Z R Z'.

        Elementwise in gamma in the eigenbasis of H (lam = d when independent).
        -2 REML omits (n-p)log(2pi) and is _PENALTY where X'W^-1 X is not PD.
        """
        if structure == "ar1":
            lam, Q = np.linalg.eigh(rho**self.lags * self.sqrt_dd)
            T = Q.T @ self.T
        else:
            lam, T = self.d, self.T
        w = 1.0 + gamma * lam
        if w.min() <= 0.0:  # rounding in eigh at |rho| -> 1
            raise np.linalg.LinAlgError("I + gamma H is not positive definite")
        AtWiA = self.within + (T.T / w) @ T
        XtWiX, XtWiy, ytWiy = AtWiA[:-1, :-1], AtWiA[:-1, -1], AtWiA[-1, -1]
        logdet_w = float(np.log(w).sum())
        sign, logdet_x = np.linalg.slogdet(XtWiX)
        beta = np.linalg.solve(XtWiX, XtWiy)
        df = self.n - self.p
        sigma2 = max((ytWiy - float(beta @ XtWiy)) / df, 1e-300)
        neg2 = df * math.log(sigma2) + logdet_w + logdet_x + df if sign > 0 else _PENALTY
        return neg2, self.b0 + beta, XtWiX, sigma2

    def neg2ll(self, gamma: float, rho: float, structure: str) -> float:
        """The REML objective: -2 REML, or _PENALTY where it cannot be evaluated."""
        try:
            return self.evaluate(gamma, rho, structure)[0]
        except np.linalg.LinAlgError:
            return _PENALTY


def reml_fit(
    X: np.ndarray,
    groups: np.ndarray,
    y: np.ndarray,
    cov_structure: str = "independent",
    columns: Sequence[str] | None = None,
) -> MixedFit:
    """Fit the mixed model by REML over the transformed variance parameters.

    ``groups`` holds each record's random-effect group, 0 for none and 1..m
    otherwise, as :func:`build_random_design` returns it.

    Independent structure: the objective is scanned at the log gamma points
    and both bounds +-34. If the lower bound is best, the boundary gamma -> 0
    is the solution (legitimate, not an error) and no search runs; otherwise a
    bounded scalar search runs between the best point's two scan neighbours,
    and the better of its result and that point is returned. AR(1):
    Nelder-Mead on (log gamma, atanh rho) from the best point of a 21-point
    scan. A fit whose search exhausts the evaluation budget before meeting its
    tolerance is returned with converged=False. ``iterations`` counts every
    objective evaluation, scan included.
    """
    if cov_structure not in ("independent", "ar1"):
        raise ConfigError(f"unknown covariance structure {cov_structure!r}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] <= X.shape[1]:
        raise ConfigError("need more observations than fixed-effect columns")
    groups = np.asarray(groups)
    if groups.shape != (X.shape[0],) or not np.issubdtype(groups.dtype, np.integer):
        raise ConfigError(f"groups must be a 1-D integer array of length {X.shape[0]}, "
                          f"got {groups.dtype} of shape {groups.shape}")
    if groups.min() < 0:
        raise ConfigError(f"groups must be non-negative, got {groups.min()}")
    if groups.max() < 1:
        raise DegenerateRandomDesign("groups must name at least one group: every code is 0")
    work = _RemlWorkspace(X, groups.astype(np.intp), y, columns)  # bincount refuses uint64
    evals = 0

    def unpack(log_gamma, atanh_rho=0.0):
        gamma = math.exp(float(np.clip(log_gamma, -_LOG_GAMMA_BOUND, _LOG_GAMMA_BOUND)))
        if cov_structure == "independent":
            return gamma, 0.0
        return gamma, math.tanh(float(np.clip(atanh_rho, -_ATANH_RHO_BOUND, _ATANH_RHO_BOUND)))

    def objective(*x):
        nonlocal evals
        evals += 1
        return work.neg2ll(*unpack(*x), cov_structure)

    if cov_structure == "ar1":
        scan = [(lg, math.atanh(r)) for lg in _LOG_GAMMA_SCAN for r in (-0.5, 0.0, 0.5)]
        start = scan[int(np.argmin([objective(*x) for x in scan]))]
        # the initial simplex holds the scan's best point and Nelder-Mead returns
        # its best vertex, so the result never falls behind the scan
        budget = max(_MAX_EVALS - evals, 1)
        res = minimize(
            lambda x: objective(*x),
            np.asarray(start, dtype=float),
            method="Nelder-Mead",
            options={"fatol": _FATOL, "xatol": 1e-7, "maxfev": budget, "maxiter": budget},
        )
        best, converged = tuple(res.x), bool(res.success)
    else:
        scan = (-_LOG_GAMMA_BOUND, *_LOG_GAMMA_SCAN, _LOG_GAMMA_BOUND)
        values = [objective(lg) for lg in scan]
        i = int(np.argmin(values))
        best, converged = (scan[i],), True
        if i > 0:  # at i == 0 the boundary gamma -> 0 is best and needs no search
            res = minimize_scalar(
                objective,
                bounds=(scan[i - 1], scan[min(i + 1, len(scan) - 1)]),
                method="bounded",
                options={"xatol": 1e-7, "maxiter": max(_MAX_EVALS - evals, 1)},
            )
            converged = bool(res.success)
            if res.fun < values[i]:  # never fall behind the scan
                best = (res.x,)
    gamma, rho = unpack(*best)
    neg2, beta, XtWiX, sigma2 = work.evaluate(gamma, rho, cov_structure)
    df = work.n - work.p
    return MixedFit(
        beta=beta,
        cov=sigma2 * np.linalg.inv(XtWiX),
        columns=work.columns,
        df=df,
        sigma2=sigma2,
        sigma2_random=gamma * sigma2,
        rho=rho if cov_structure == "ar1" else None,
        reml_loglik=-0.5 * (neg2 + df * math.log(2.0 * math.pi)),
        converged=converged,
        iterations=evals,
    )
