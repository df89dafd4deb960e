"""Least-squares core: design assembly, OLS by the normal equations, t-tests.

Least squares has two entry points with one rank rule and one exact-fit rule
(:func:`exact_fits`): :func:`ols_fit` on a row-level design from
:func:`build_design` (the spline designs, the two-sample t-tests, REML's
starting shift), and :func:`cell_ols_each` on the interval-indicator designs
of the fixed-effect estimators, from per-(arm x interval) cell counts and
sums. The t-tests of a batch of fits are one array pass (:func:`wald_test`,
:func:`t_test`), and a single fit is tested as a batch of one. scipy
provides the Student-t distribution.
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
_EPS = float(np.finfo(float).eps)
_NULL_WEIGHT = 1e-6  # |entry| of a null eigenvector above which its column is named
DEGENERATE_TEST = "degenerate test: zero standard error"
_BATCH = (list, tuple, np.ndarray)  # a batch of t-tests: one value per test


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
    keep the design full rank next to the intercept. X is one C-ordered
    array, and each block is written into its columns.
    """
    times = np.asarray(times, dtype=float)
    trt = sorted(treatments)
    a = len(trt) + 1
    if adjustment == "spline":
        if basis is None:
            raise ConfigError("spline adjustment needs a SplineBasis")
        B = basis_matrix(times, basis)
        X = np.empty((times.size, a + B.shape[1] - 1))
        X[:, a:] = B[:, 1:]  # drop first basis column (intercept present)
        labels = _indicator_columns(trt, "none", 1) + [f"bs{i + 1}" for i in range(1, B.shape[1])]
    else:
        idx = _interval_index(times, adjustment, starts, horizon)
        n_intervals = 1 if idx is None else len(starts)
        X = np.empty((times.size, a + n_intervals - 1))
        if idx is not None:
            np.equal(idx[:, None], np.arange(2, n_intervals + 1), out=X[:, a:])
        labels = _indicator_columns(trt, adjustment, n_intervals)
    X[:, 0] = 1.0
    np.equal(np.asarray(arms)[:, None], trt, out=X[:, 1:a])
    return DesignMatrix(X=X, y=np.asarray(y, dtype=float), columns=tuple(labels))


def _interval_index(times, adjustment: str, starts, horizon) -> np.ndarray | None:
    """1-based interval of each time for a period/calendar adjustment, None for none."""
    if adjustment == "none":
        return None
    _check_partition(adjustment, starts, horizon)
    return interval_indices(times, starts, horizon)


def _check_partition(adjustment: str, starts, horizon) -> None:
    if adjustment not in ("period", "calendar"):
        raise ConfigError(f"unknown adjustment {adjustment!r}")
    if starts is None or horizon is None:
        raise ConfigError(f"{adjustment} adjustment needs interval starts and a horizon")


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


def exact_fits(fits: Sequence, y: np.ndarray) -> list[bool]:
    """Which fits are least-squares fits that reproduce y: their residual is
    rounding noise, of order at most (n eps)^2 y'y, not the zero it is. One
    y'y serves every fit."""
    bound = (y.size * _EPS) ** 2 * float(y @ y)
    return [isinstance(fit, OlsFit) and fit.sigma2_hat * fit.df <= bound for fit in fits]


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


class CellRecords(NamedTuple):
    """Records sorted by (arm row, time), the input of :func:`cell_ols_each`.

    The rows are the reference arm, then ``treatments``; an arm outside
    ``treatments`` is a reference record, as in :func:`build_design`.
    ``times[r]`` holds row r's times in order, ``starts[r]`` the position of
    its first record, and ``y`` every response in that order, ending with one
    0.0 so that the end of the records is an index into it. ``A`` and ``u``
    are the intercept and treatment blocks of X'X and X'y, which no
    partition changes, ``columns`` their labels, and ``span`` the first and
    last time.
    """

    times: list[np.ndarray]
    starts: np.ndarray
    y: np.ndarray
    A: np.ndarray
    u: np.ndarray
    treatments: tuple[int, ...]
    columns: tuple[str, ...]
    span: tuple[float, float]


def sort_cells(times, arms, y, treatments: Sequence[int]) -> CellRecords:
    """The records in the layout of :func:`cell_ols_each`: one stable sort."""
    trt = tuple(sorted(treatments))
    a = len(trt) + 1
    row_of = np.zeros(max(trt, default=0) + 2, dtype=np.intp)
    row_of[list(trt)] = np.arange(1, a)
    row = row_of.take(np.asarray(arms), mode="clip")
    times = np.asarray(times, dtype=float)
    order = np.lexsort((times, row))
    n_row = np.bincount(row, minlength=a)
    bounds = np.zeros(a + 1, dtype=np.intp)
    np.cumsum(n_row, out=bounds[1:])
    t, y_ext = times[order], np.zeros(order.size + 1)
    np.take(np.asarray(y, dtype=float), order, out=y_ext[:-1])
    u = np.add.reduceat(y_ext, bounds)[:a] * (n_row > 0)  # reduceat gives an empty row a value
    u[0] = u.sum()
    n_row[0] = t.size
    A = np.zeros((a, a))
    A.flat[::a + 1] = A[0] = A[:, 0] = n_row
    rows = [t[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    span = (min((r[0] for r in rows if r.size), default=math.inf),
            max((r[-1] for r in rows if r.size), default=-math.inf))
    return CellRecords(rows, bounds[:-1], y_ext, A, u, trt,
                       tuple(_indicator_columns(trt, "none", 1)), span)


def cell_ols_each(
    records: CellRecords,
    partitions: Sequence[tuple[str, Sequence[float] | None]],
    horizon: float | None,
) -> list[OlsFit | Exception]:
    """The fixed-effect fit of the records under each (adjustment, starts)
    partition, or the error that fitting it alone raises.

    Every column of these designs is a 0/1 indicator of an arm or an
    interval, so X'X and X'y follow from the record counts and response
    sums of the (1+T) x S cells of (reference arm, then the T treatments) x
    interval. Each row's records are in time order, so one ``searchsorted``
    per row over every partition's starts gives every cell's bounds, and one
    ``np.add.reduceat`` every cell's sum, in record order. X'X = [[A, B],
    [B', D]] with D diagonal (the intervals 2..S), so a solve with the Schur
    complement M = A - B D^-1 B' gives the intercept and treatment
    coefficients, and M^-1 is the leading block of (X'X)^-1; the partitions'
    M are solved as one stack. A fit holds those coefficients and their
    covariance only; ``df`` counts every column.

    The rank rule and its errors are ``ols_fit``'s. 3n bounds the largest
    eigenvalue of X'X and 1/min D + ||M^-1||_F (1 + ||B D^-1||_F^2) that of
    its inverse; where these bounds cannot prove the rule passes, X'X is
    assembled from the counts (integers, so equal to ``X.T @ X``) and goes
    through ``ols_fit``'s eigenvalue rule. The bounds save that
    eigendecomposition, which at p ~ 60 costs more than the rest of the fit.
    The residual is taken record by record, as for a row-level fit.

    A partition's fit is the same bit for bit whatever else is in the batch:
    every sum over a partition's intervals is one ``reduceat`` segment of its
    own columns, and every sum over rows adds the same rows in the same
    order.
    """
    rows, row_starts, y_ext, A, u, trt, head, (t_lo, t_hi) = records
    a, n = len(trt) + 1, y_ext.size - 1
    out: list = [None] * len(partitions)
    kept, adjustments, sizes, first, cuts = [], [], [], [], []
    for i, (adjustment, starts) in enumerate(partitions):
        try:
            if adjustment == "none":
                starts = (-math.inf,)
            else:
                _check_partition(adjustment, starts, horizon)
                if t_lo < starts[0] or t_hi > horizon:
                    raise ConfigError("times outside partition range")
            _check_size(n, a + len(starts) - 1)
        except ConfigError as exc:
            out[i] = exc
            continue
        kept.append(i)
        adjustments.append(adjustment)
        sizes.append(len(starts))
        first.append(len(cuts))
        cuts += [*starts, math.inf]
    if not kept:
        return out

    # Columns: each partition's intervals, then an end column (cut +inf) of
    # no records. The cell of row r at column j holds row r's records from
    # its position of cut j to that of cut j + 1; past the last column, the
    # row's start makes the end columns' counts negative, so zero.
    c_n, sizes, first, cuts = len(kept), np.array(sizes), np.array(first), np.array(cuts)
    col_part = np.repeat(np.arange(c_n), sizes + 1)
    pos = np.empty((a, cuts.size + 1), dtype=np.intp)
    for r, t in enumerate(rows):
        pos[r, :-1] = t.searchsorted(cuts)
    pos[:, :-1] += row_starts[:, None]
    pos[:, -1] = row_starts
    counts = np.maximum(pos[:, 1:] - pos[:, :-1], 0)
    sums = np.add.reduceat(y_ext, pos.ravel()).reshape(pos.shape)[:, :-1]
    sums[counts == 0] = 0.0  # reduceat gives an empty cell its first index's value

    # X'X = [[A, B], [B', diag(d)]] and X'y = [u, v], with d and v of each
    # partition's intervals 2..S. With the reference row replaced by the
    # interval totals, B, d and v are columns of the cell tables; the first
    # and end columns ride along with d = inf, so B D^-1 is zero there.
    B = counts.astype(float)
    B[0] = B.sum(axis=0)
    v = sums.sum(axis=0)
    d = B[0].copy()
    d[first] = math.inf
    zero = d == 0  # an empty interval, or an end column
    d[zero] = math.inf
    zero[first + sizes] = False
    empty = np.logical_or.reduceat(zero, first)
    E = B / d
    EB = np.add.reduceat(E[:, None, :] * B, first, axis=2)
    Ev = np.add.reduceat(E * v, first, axis=1)
    EE = np.add.reduceat((E * E).sum(axis=0), first)
    inv_dmin = 1.0 / np.minimum.reduceat(d, first)

    # one stacked LU solve for the coefficients and the inverses
    rhs = np.empty((c_n, a, a + 1))
    rhs[:, :, 0] = u - Ev.T
    rhs[:, :, 1:] = np.eye(a)
    solved = _solve_each(A - EB.transpose(2, 0, 1), rhs)
    beta, xtx_inv = solved[:, :, 0], solved[:, :, 1:]
    bound = np.sqrt((xtx_inv * xtx_inv).reshape(c_n, a * a).sum(axis=1)) * (1.0 + EE) + inv_dmin
    delta = (v - (beta[col_part].T * B).sum(axis=0)) / d

    for c in np.flatnonzero(~(bound * (3.0 * n * RANK_TOL) < 1.0) | empty):  # NaN bounds too
        cols = slice(first[c] + 1, first[c] + sizes[c])
        XtX = np.block([[A, B[:, cols]], [B[:, cols].T, np.diag(B[0, cols])]])
        columns = _indicator_columns(trt, adjustments[c], sizes[c])
        try:
            coef, lam, V = _solve_normal_equations(XtX, np.concatenate([u, v[cols]]), columns)
        except (RankDeficiencyError, np.linalg.LinAlgError) as exc:
            out[kept[c]] = exc
            continue
        beta[c], delta[cols], xtx_inv[c] = coef[:a], coef[a:], (V[:a] / lam) @ V[:a].T

    # fitted value of every cell, then of every record, partition by partition:
    # cells in (partition, row, interval) order are in record order, which
    # the (row, column) order of one partition already is
    fitted = delta + beta[col_part].T
    fitted[1:] += beta[col_part, 0]
    if c_n > 1:
        by_part = (a - 1) * first[col_part] + np.arange(a)[:, None] * (sizes + 1)[col_part]
        by_part += np.arange(col_part.size)
        fitted_by_part, counts_by_part = np.empty(fitted.size), np.empty(counts.size, np.intp)
        fitted_by_part[by_part], counts_by_part[by_part] = fitted, counts
        fitted, counts = fitted_by_part, counts_by_part
    resid = np.repeat(fitted.ravel(), counts.ravel()).reshape(c_n, n)
    resid -= y_ext[:n]
    df = n - (a + sizes - 1)
    sigma2 = np.einsum("ij,ij->i", resid, resid) / df
    cov = sigma2[:, None, None] * xtx_inv
    for c, (i, s2, dfc) in enumerate(zip(kept, sigma2.tolist(), df.tolist())):
        if out[i] is None:
            out[i] = OlsFit(beta=beta[c], cov=cov[c], sigma2_hat=s2, df=dfc, columns=head)
    return out


def _solve_each(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of a stack, with NaN for the singular matrices."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for k in range(M.shape[0]):
            try:
                out[k] = np.linalg.solve(M[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return out


def t_test(
    estimate: float | Sequence[float],
    se: float | Sequence[float],
    df: float | Sequence[float],
    sided: str | Sequence[str] = "one_greater",
    alpha: float | Sequence[float] = 0.025,
) -> WaldTest | list[WaldTest | ConfigError]:
    """t-test of an estimate against zero, with its standard error and degrees of freedom.

    ``one_greater`` tests the one-sided null estimate <= 0; otherwise a
    two-sided test. Given sequences of estimates, standard errors and
    degrees of freedom (``sided`` and ``alpha`` one value for all or one per
    test), it returns the list of each test's ``WaldTest``, or of the
    ``ConfigError`` that the test alone raises; one ``stdtr`` call each
    gives every p_one and every p_two. A single test is a batch of one.
    """
    if not isinstance(estimate, _BATCH):
        return _alone(t_test([estimate], [se], [df], sided, alpha))
    sided, alpha = _each(sided, len(estimate)), _each(alpha, len(estimate))
    t = [e / s if s != 0.0 else math.nan for e, s in zip(estimate, se)]
    t_array = np.array(t, dtype=float)
    p_one = stdtr(df, -t_array).tolist()
    p_two = (2.0 * stdtr(df, -np.abs(t_array))).tolist()
    return [_one_test(*test) for test in zip(estimate, se, df, sided, alpha, t, p_one, p_two)]


def _one_test(estimate, se, df, sided, alpha, t, p_one, p_two) -> WaldTest | ConfigError:
    """The test of one entry of a batch, or its first error in the order of the checks."""
    if sided not in ("one_greater", "two"):
        return ConfigError(f"sided must be 'one_greater' or 'two', got {sided!r}")
    if se == 0.0:
        return ConfigError(DEGENERATE_TEST)
    if df <= 0:
        return ConfigError(f"degrees of freedom must be positive, got {df}")
    if t != t:
        return ConfigError("t statistic is NaN")
    return WaldTest(estimate, se, t, p_one, p_two, (p_one if sided == "one_greater" else p_two) < alpha)


def wald_test(
    fit, coeff: str, sided: str | Sequence[str] = "one_greater",
    alpha: float | Sequence[float] = 0.025,
) -> WaldTest | list[WaldTest | ConfigError]:
    """t-test of a single coefficient against zero.

    Works for any fit exposing beta/cov/df/columns. Given a list of fits, it
    tests them as :func:`t_test` tests a batch, and a fit without the
    coefficient gets its ``ConfigError``. A single fit is a batch of one.
    """
    if not isinstance(fit, list):  # a fit may be a NamedTuple
        return _alone(wald_test([fit], coeff, sided, alpha))
    sided, alpha = _each(sided, len(fit)), _each(alpha, len(fit))
    tested, estimates, ses = [], [], []
    for i, f in enumerate(fit):
        if coeff in f.columns:
            j = f.columns.index(coeff)
            var = float(f.cov[j, j])
            tested.append(i)
            estimates.append(float(f.beta[j]))
            ses.append(math.sqrt(var) if var >= 0.0 else math.nan)  # a negative variance: a NaN t
    tests = dict(zip(tested, t_test(estimates, ses, [fit[i].df for i in tested],
                                    [sided[i] for i in tested], [alpha[i] for i in tested])))
    return [tests[i] if i in tests else ConfigError(f"coefficient {coeff!r} not in fit columns")
            for i in range(len(fit))]


def _each(value, n: int) -> list:
    """One value per test: ``value`` repeated n times, or the sequence given."""
    return list(value) if isinstance(value, _BATCH) else [value] * n


def _alone(outcomes: list):
    """The one test of a batch of one, or its error raised."""
    (outcome,) = outcomes
    if isinstance(outcome, ConfigError):
        raise outcome
    return outcome
