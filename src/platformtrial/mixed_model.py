"""Linear mixed models estimated by REML.

Random time-interval intercepts (uncorrelated or AR(1)) and random
treatment-by-interval interactions put each record in at most one group, so the
random design is a group code per record and a fit needs only group statistics.
The restricted likelihood is profiled down to gamma = sigma2_random / sigma2
(log scale) and, for AR(1), rho (atanh scale). An evaluation is one Cholesky
factorization of [X y]'W^-1 [X y], formed elementwise in the groups after one
eigh per rho for AR(1). Both structures are searched alike: a stacked (rho x
gamma) grid, then zoomed windows around its lowest local minima.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import ConfigError, interval_indices
from .regression_engine import DEGENERATE_TEST, DesignMatrix, exact_fits, ols_fit

_PENALTY = 1e12
_MAX_EVALS = 20_000  # objective evaluations per fit, grid included
_BOUNDS, _GRID_STEPS = (18.0, 34.0), (0.5, 1.0)  # atanh rho, log gamma
# the grid, bound to bound: a step of 1 in atanh rho misses shallow basins, and
# the step of 1 in log gamma leaves no bracket wider than 2
_ATANH_RHO_GRID, _LOG_GAMMA_GRID = (np.arange(-b, b + h, h) for b, h in zip(_BOUNDS, _GRID_STEPS))
# a zoom level scores 2k + 1 points per searched axis around the best point; the
# step shrinks k-fold until log gamma's is below _XATOL, or doubles (to at most the
# first level's) on an improvement above rounding at the window's edge. By searched
# axes, (k, first window's half-width in grid steps): 2-D reaches between grid rows
_ZOOM = {1: (16, 1), 2: (4, 2)}
_XATOL = 1e-7
_ROUNDING = 1e-13  # a relative change in -2 REML at or below this is rounding
# gamma = sigma2_random / sigma2 at or below this is reported as a boundary
# (gamma -> 0) solution; boundary fits end at exp(-34) ~ 1.7e-15
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
    """Random-effect group code of each record, and labels of the groups with records.

    A group is an owner's interval s in 2..S: ``interval`` grouping has one
    owner, ``interaction`` one per treatment arm other than exclude_arm. The
    code is o (S - 1) + s - 1 for owner o (from 0), 0 for no group, so interval
    distances are code distances; codes of empty groups go unused.
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
    code = np.zeros(idx.shape, dtype=np.intp)
    for i, rows in enumerate(owners.values()):
        rows = rows & (idx >= 2)
        code[rows] = i * len(later) + idx[rows] - 1
    names = [f"{owner}iv{s}" for owner in owners for s in later]
    present = np.bincount(code, minlength=len(names) + 1)[1:] > 0
    return code, tuple(name for name, kept in zip(names, present) if kept)


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
        self.columns = tuple(columns if columns is not None else (f"x{i}" for i in range(self.p)))
        # fit y - X b0 for the OLS b0: beta shifts by b0 and the objective is
        # unchanged, but y'W^-1 y - beta'X'W^-1 y no longer cancels. The OLS
        # fit also rejects a rank-deficient X, naming its columns, and an exact
        # fit, which leaves sigma2 = 0 at every (rho, gamma) for the search.
        start = ols_fit(DesignMatrix(X=X, y=y, columns=self.columns))
        if exact_fits([start], y)[0]:
            raise ConfigError(DEGENERATE_TEST)
        self.b0 = start.beta
        A = np.column_stack([X, y - X @ self.b0])
        counts = np.bincount(groups).astype(float)
        q = A.shape[1]  # one bincount of (group, column) pairs sums every column
        sums = np.bincount((groups[:, None] * q + np.arange(q)).ravel(), A.ravel(),
                           minlength=counts.size * q).reshape(-1, q)
        means = sums / np.maximum(counts, 1.0)[:, None]
        means[0] = 0.0  # records without a random effect are not centred
        centred = A - means[groups]
        self.within = centred.T @ centred
        kept = np.flatnonzero(counts[1:])  # empty groups carry no data but count in AR(1) lags
        self.lags = np.abs(kept[:, None] - kept[None, :])
        self.d = counts[1:][kept]
        self.sqrt_dd = np.sqrt(np.outer(self.d, self.d))
        self.T = means[1:][kept] * np.sqrt(self.d)[:, None]
        self.outer = np.einsum("mi,mj->mij", self.T, self.T).reshape(1, self.d.size, -1)  # t t'

    def evaluate(self, gammas: np.ndarray, rhos: np.ndarray, structure: str):
        """(-2 log restricted likelihood, L, sigma2) for W = I + gamma Z R Z' at each (rho, gamma).

        Results are indexed [rho, gamma]; independent ignores rho and has one row.
        A'W^-1 A is formed in the eigenbasis of H (lam = d when independent) by
        one product of 1/w with the groups' t t' per member, so that no member's
        value depends on its stack. L stacks its lower Cholesky factors: L11
        factors X'W^-1 X, the last row (l21', l22) gives beta = b0 + L11^-T l21,
        and l22^2 is the residual sum of squares. -2 REML omits (n-p)log(2pi).
        Where I + gamma H (rounding in eigh at |rho| -> 1) or A'W^-1 A (a zero
        residual included) is not PD, the score is _PENALTY, sigma2 and diag(L) NaN.
        """
        if structure == "ar1":
            powers = rhos[:, None] ** np.arange(self.lags[0, -1] + 1)  # each lag's power once
            lam, Q = np.linalg.eigh(powers[:, self.lags] * self.sqrt_dd)
            T = np.swapaxes(Q, 1, 2) @ self.T
            outer = np.einsum("rmi,rmj->rmij", T, T).reshape(*T.shape[:2], -1)
        else:
            lam, outer = self.d[None], self.outer
        w = 1.0 + gammas[:, None] * lam[:, None, :]
        if w.min() <= 0.0:  # rounding in eigh at |rho| -> 1; NaN propagates to L and the score
            w[(w <= 0.0).any(axis=-1)] = np.nan
        A = ((1.0 / w)[..., None, :] @ outer[:, None]).reshape(*w.shape[:2], *self.within.shape)
        A += self.within
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:  # factor one by one, so that only the failing members fail
            L = np.full_like(A, np.nan)
            for i in np.ndindex(A.shape[:2]):
                with contextlib.suppress(np.linalg.LinAlgError):
                    L[i] = np.linalg.cholesky(A[i])
        df, diag = self.n - self.p, np.diagonal(L, axis1=-2, axis2=-1)
        sigma2 = diag[..., -1] ** 2 / df
        logdet_x = 2.0 * np.log(diag[..., :-1]).sum(axis=-1)
        neg2 = df * np.log(sigma2) + np.log(w).sum(axis=-1) + logdet_x + df
        return np.where(np.isnan(neg2), _PENALTY, neg2), L, sigma2

    def neg2ll(self, gamma: float, rho: float, structure: str) -> float:
        """-2 REML at one (rho, gamma), or _PENALTY where it cannot be evaluated."""
        return float(self.evaluate(np.array([gamma]), np.array([rho]), structure)[0][0, 0])


def _grid_starts(values: np.ndarray, count: int) -> list[tuple[int, int]]:
    """[rho, gamma] indices of the ``count`` lowest local minima of a grid: points
    no higher than their (up to 8) neighbours, a plateau alike to rounding counted once."""
    padded = np.full((values.shape[0] + 2, values.shape[1] + 2), np.inf)
    padded[1:-1, 1:-1] = values
    lowest = np.minimum(np.minimum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    lowest = np.minimum(np.minimum(lowest[:-2], lowest[1:-1]), lowest[2:])  # over the 3 x 3 block
    found = np.flatnonzero(values <= lowest)
    found = found[np.argsort(values.flat[found], kind="stable")]
    starts: list[tuple[float, int]] = []
    for v, i in zip(values.flat[found], found):
        if len(starts) < count and all(v - s > _ROUNDING * max(abs(s), 1.0) for s, _ in starts):
            starts.append((v, i))
    return [np.unravel_index(i, values.shape) for _, i in starts]


def reml_fit(
    X: np.ndarray,
    groups: np.ndarray,
    y: np.ndarray,
    cov_structure: str = "independent",
    columns: Sequence[str] | None = None,
) -> MixedFit:
    """Fit the mixed model by REML over (atanh rho, log gamma), within _BOUNDS.

    ``groups`` holds each record's group code, 0 for none, as
    :func:`build_random_design` returns it. Codes without records are dropped;
    AR(1) lags are code distances. One group leaves rho unidentified, so its
    AR(1) fit is the independent fit, with rho None.

    One stacked evaluation scores the grid (rho = 0 alone when independent),
    and its lowest local minima (one when independent, two for AR(1)) are
    zoomed, except at the lower bound of log gamma: that is the boundary gamma
    -> 0 solution (legitimate, not an error). The lowest point found is the
    estimate; a non-PD A'W^-1 A there raises LinAlgError. An exact fit
    (``exact_fits``) raises ConfigError before the grid. A fit whose next
    zoom level would exceed _MAX_EVALS stops with converged=False.
    ``iterations`` counts every objective evaluation, each grid point included.
    """
    if cov_structure not in ("independent", "ar1"):
        raise ConfigError(f"unknown covariance structure {cov_structure!r}")
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    groups = np.asarray(groups)
    if groups.shape != (X.shape[0],) or not np.issubdtype(groups.dtype, np.integer):
        raise ConfigError(f"groups must be a 1-D integer array of length {X.shape[0]}, "
                          f"got {groups.dtype} of shape {groups.shape}")
    if groups.min() < 0:
        raise ConfigError(f"groups must be non-negative, got {groups.min()}")
    if groups.max() < 1:
        raise DegenerateRandomDesign("groups must name at least one group: every code is 0")
    work = _RemlWorkspace(X, groups.astype(np.intp), y, columns)  # bincount refuses uint64
    ar1 = cov_structure == "ar1" and work.d.size > 1  # one group leaves rho unidentified
    cov_structure = "ar1" if ar1 else "independent"
    grid = (_ATANH_RHO_GRID if ar1 else np.zeros(1), _LOG_GAMMA_GRID)
    values, Ls, sigma2s = work.evaluate(np.exp(grid[1]), np.tanh(grid[0]), cov_structure)
    evals, converged, best = values.size, True, None
    k, reach = _ZOOM[1 + ar1]
    offsets = [np.arange(-k, k + 1.0) if ar1 else np.zeros(1), np.arange(-k, k + 1.0)]
    for i, j in _grid_starts(values, 1 + ar1):
        # the best point so far: (-2 REML, atanh rho, log gamma, L, sigma2)
        point = (values[i, j], grid[0][i], grid[1][j], Ls[i, j], sigma2s[i, j])
        steps = first = np.array(_GRID_STEPS) * [ar1, 1.0] * reach / k
        while j > 0 and steps[1] >= _XATOL:  # at j = 0 the boundary gamma -> 0 is the solution
            zs, xs = (min(max(c, k * h - b), b - k * h) + h * o  # the window, inside the bounds
                      for c, h, o, b in zip(point[1:3], steps, offsets, _BOUNDS))
            if not (converged := evals + zs.size * xs.size <= _MAX_EVALS):
                break
            window, window_L, window_s2 = work.evaluate(np.exp(xs), np.tanh(zs), cov_structure)
            evals += window.size
            r, c = divmod(int(window.argmin()), window.shape[1])
            edge = c in (0, 2 * k) or ar1 and r in (0, 2 * k)
            widen = edge and point[0] - window[r, c] > _ROUNDING * max(abs(point[0]), 1.0)
            steps = np.minimum(steps * 2, first) if widen else steps / k  # widen: follow a valley
            if window[r, c] < point[0]:
                point = (window[r, c], zs[r], xs[c], window_L[r, c], window_s2[r, c])
        best = point if best is None or point[0] < best[0] else best
    neg2, atanh_rho, log_gamma, L, sigma2 = best
    gamma, rho = float(np.exp(log_gamma)), float(np.tanh(atanh_rho))  # as evaluated
    if math.isnan(sigma2):
        raise np.linalg.LinAlgError("[X y]'W^-1 [X y] is not positive definite at the estimate")
    df, L11_inv = work.n - work.p, np.linalg.inv(L[:-1, :-1])
    return MixedFit(
        beta=work.b0 + L11_inv.T @ L[-1, :-1],
        cov=sigma2 * (L11_inv.T @ L11_inv),
        columns=work.columns,
        df=df,
        sigma2=sigma2,
        sigma2_random=gamma * sigma2,
        rho=rho if ar1 else None,
        reml_loglik=-0.5 * (neg2 + df * math.log(2.0 * math.pi)),
        converged=converged,
        iterations=evals,
    )
