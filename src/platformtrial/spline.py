"""B-spline basis over recruitment time, with knots at the interval starts of a time partition.

The basis is evaluated dense by scipy's ``BSpline``. ``scipy.interpolate``
is imported at the first evaluation, not with the package, whose import
it would slow; :func:`preload` imports it before worker processes fork, so
that they inherit it instead of each importing it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import ConfigError

DEGREES = (1, 2, 3)


def check_degree(degree) -> None:
    # 2.0 and True compare equal to allowed degrees but break knot padding and labels
    integral = isinstance(degree, (int, np.integer)) and not isinstance(degree, bool)
    if not integral or degree not in DEGREES:
        raise ConfigError(f"spline degree must be one of {DEGREES}, got {degree!r}")


@dataclass(frozen=True)
class SplineBasis:
    """Degree-q B-spline basis on [t_min, t_max] with the given inner knots.

    Knots, boundaries included, must increase by gaps with a finite reciprocal:
    the basis recursion divides by them, and a subnormal gap gives NaN rows.
    """

    degree: int
    inner_knots: tuple[float, ...]
    boundary: tuple[float, float]

    def __post_init__(self):
        check_degree(self.degree)
        lo, hi = self.boundary
        if not lo < hi:
            raise ConfigError(f"boundary knots must satisfy t_min < t_max, got {self.boundary}")
        if any(k2 <= k1 for k1, k2 in zip(self.inner_knots, self.inner_knots[1:])):
            raise ConfigError("inner knots must be strictly increasing")
        if any(not lo < k < hi for k in self.inner_knots):
            raise ConfigError("inner knots must lie strictly inside the boundary")
        knots = (lo, *self.inner_knots, hi)
        for a, b in zip(knots, knots[1:]):
            if not math.isfinite(1.0 / (b - a)):
                raise ConfigError(f"knots {a!r} and {b!r} are too close: their gap {b - a!r} "
                                  "has no finite reciprocal")

    @property
    def dim(self) -> int:
        return len(self.inner_knots) + self.degree + 1

    def padded_knots(self) -> np.ndarray:
        lo, hi = self.boundary
        rep = self.degree + 1  # boundary knots repeated q+1 times
        return np.array([lo] * rep + list(self.inner_knots) + [hi] * rep, dtype=float)


def knots_at(starts: Sequence[float], horizon: float, degree: int = 3) -> SplineBasis:
    """Basis with one polynomial piece per interval: inner knots at interval starts 2..S."""
    lo = float(starts[0])
    # duplicates and knots on/outside the boundary would create singular columns
    inner = tuple(sorted({float(k) for k in starts[1:] if lo < k < horizon}))
    return SplineBasis(degree=degree, inner_knots=inner, boundary=(lo, float(horizon)))


def preload() -> None:
    """Import what :func:`basis_matrix` imports, ahead of its first call."""
    import scipy.interpolate  # noqa: F401


def basis_matrix(times: np.ndarray, basis: SplineBasis) -> np.ndarray:
    """Evaluate all basis functions at the given times.

    Returns a C-ordered array of shape (len(times), basis.dim); each row
    sums to 1. The final interval is closed on the right so t == t_max is
    valid. The values are scipy's ``BSpline`` evaluated with identity
    coefficients, one spline per basis function: bit for bit the dense form
    of ``BSpline.design_matrix``, without its sparse array. Non-finite times
    and times outside the boundary raise ``ConfigError``.
    """
    from scipy.interpolate import BSpline  # deferred: importing it slows package import

    t = np.asarray(times, dtype=float)
    lo, hi = basis.boundary
    if t.size:
        t_min, t_max = t.min(), t.max()  # NaN if any time is NaN
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            raise ConfigError("spline times must be finite (NaN or infinite time)")
        if t_min < lo or t_max > hi:
            raise ConfigError(f"spline evaluated outside boundary [{lo}, {hi}]")
    return BSpline(basis.padded_knots(), np.eye(basis.dim), basis.degree, extrapolate=False)(t)
