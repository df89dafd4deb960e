"""Estimator front end: maps (dataset, evaluated arm, model spec) to a fit result."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import mixed_model, spline
from .datagen import TrialDataset
from .design import ConfigError, derive_calendar, derive_periods
from .regression_engine import build_design, ols_fit, wald_test


@dataclass(frozen=True)
class Estimator:
    """An estimator as one choice on each of three axes.

    ``timescale`` is the time partition the adjustment uses (``period``,
    ``calendar``, or None for the t-tests); ``family`` the model-based
    adjustment; ``covariance`` the structure of random interval intercepts.
    """

    timescale: str | None
    family: str
    covariance: str = "independent"

    @property
    def needs_c_length(self) -> bool:
        return self.timescale == "calendar"


ESTIMATORS = {
    "fixed_period": Estimator("period", "fixed"),
    "fixed_calendar": Estimator("calendar", "fixed"),
    "spline_period": Estimator("period", "spline"),
    "spline_calendar": Estimator("calendar", "spline"),
    "mixed_period": Estimator("period", "mixed"),
    "mixed_calendar": Estimator("calendar", "mixed"),
    "mixed_period_ar1": Estimator("period", "mixed", "ar1"),
    "mixed_calendar_ar1": Estimator("calendar", "mixed", "ar1"),
    "mixedint_period": Estimator("period", "mixedint"),
    "mixedint_calendar": Estimator("calendar", "mixedint"),
    "pooled": Estimator(None, "pooled"),
    "separate": Estimator(None, "separate"),
}

RESULT_FIELDS = ("estimator", "arm", "theta_hat", "se", "p_one", "p_two", "reject")


@dataclass(frozen=True)
class ModelSpec:
    """Choice of estimator plus its options."""

    estimator: str
    c_length: float | None = None
    spline_degree: int = 3
    alpha: float = 0.025
    sided: str = "one_greater"

    def __post_init__(self):
        if not isinstance(self.estimator, str) or self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.kind.needs_c_length and (
            self.c_length is None or not math.isfinite(self.c_length) or self.c_length < 1
        ):
            raise ConfigError(f"{self.estimator} requires a finite c_length >= 1")
        if self.kind.family == "spline":
            spline.check_degree(self.spline_degree)
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.sided not in ("one_greater", "two"):
            raise ConfigError(f"sided must be 'one_greater' or 'two', got {self.sided!r}")

    @property
    def kind(self) -> Estimator:
        return ESTIMATORS[self.estimator]

    @property
    def label(self) -> str:
        if self.kind.family == "spline":
            return f"{self.estimator}_q{self.spline_degree}"
        return self.estimator


@dataclass(frozen=True)
class FitResult:
    estimator: str
    arm: int
    theta_hat: float
    se: float
    t: float
    p_one: float
    p_two: float
    reject: bool
    diagnostics: dict = field(default_factory=dict)


def default_model_set(c_length: float, spline_degree: int = 3, **opts) -> tuple[ModelSpec, ...]:
    """The standard analysis battery: fixed, mixed (calendar), spline, baselines."""
    return (
        ModelSpec("fixed_period", **opts),
        ModelSpec("fixed_calendar", c_length=c_length, **opts),
        ModelSpec("mixed_calendar", c_length=c_length, **opts),
        ModelSpec("mixed_calendar_ar1", c_length=c_length, **opts),
        ModelSpec("spline_period", spline_degree=spline_degree, **opts),
        ModelSpec("spline_calendar", c_length=c_length, spline_degree=spline_degree, **opts),
        ModelSpec("pooled", **opts),
        ModelSpec("separate", **opts),
    )


@dataclass(frozen=True)
class _Prepared:
    t: np.ndarray
    arm: np.ndarray
    y: np.ndarray
    horizon: float
    origin: float
    treatments: tuple[int, ...]
    m_entry: float


def _prepare(dataset: TrialDataset, m: int) -> _Prepared:
    if m < 1:
        raise ConfigError("the evaluated arm must be an experimental arm (>= 1)")
    in_arm = dataset.arm == m
    if not in_arm.any():
        raise ConfigError(f"arm {m} has no records in the analysis set")
    horizon = float(dataset.t[in_arm].max())
    if float(dataset.t.max()) > horizon:
        raise ConfigError(
            "analysis set contains records after the evaluated arm's exit; use slice_for_arm"
        )
    treatments = tuple(sorted(int(k) for k in np.unique(dataset.arm) if k != 0))
    tl = dataset.timeline
    m_entry = tl.entry[m - 1] if tl is not None and m <= len(tl.entry) else float(
        dataset.t[in_arm].min()
    )
    return _Prepared(
        t=np.asarray(dataset.t, dtype=float),
        arm=np.asarray(dataset.arm),
        y=np.asarray(dataset.y, dtype=float),
        horizon=horizon,
        origin=float(dataset.t.min()),
        treatments=treatments,
        m_entry=float(m_entry),
    )


def fit(dataset: TrialDataset, m: int, spec: ModelSpec) -> FitResult:
    """Fit one estimator to the analysis set of arm m."""
    kind = spec.kind
    prep = _prepare(dataset, m)
    if kind.timescale is None:
        # regress on arm m's records and all (pooled) or the concurrent
        # (separate) controls, those randomized from arm m's entry on
        controls = prep.arm == 0
        diag = {}
        if kind.family == "separate":
            controls &= prep.t >= prep.m_entry
            diag["n_controls_concurrent"] = int(controls.sum())
        if not controls.any():
            raise ConfigError("no control records available for the t-test")
        in_arm = prep.arm == m
        # constant groups fit exactly, and the regression's residual would be
        # rounding noise rather than the zero it is
        if np.ptp(prep.y[in_arm]) == 0.0 and np.ptp(prep.y[controls]) == 0.0:
            raise ConfigError("degenerate test: zero standard error")
        rows = in_arm | controls
        dm = build_design(prep.t[rows], prep.arm[rows], prep.y[rows], treatments=(m,))
        diag.update(n_treatment=int(in_arm.sum()), n_controls=int(controls.sum()))
    else:
        if kind.timescale == "period":
            tl = dataset.timeline
            starts = derive_periods(tl.entry, tl.exit, prep.horizon, origin=prep.origin)
        else:
            starts = derive_calendar(prep.horizon, spec.c_length, start=prep.origin)
        diag = {"n_intervals": len(starts)}
        if kind.family == "spline":
            basis = spline.knots_at(starts, prep.horizon, degree=spec.spline_degree)
            dm = build_design(
                prep.t, prep.arm, prep.y, prep.treatments, adjustment="spline", basis=basis
            )
            diag.update(spline_degree=spec.spline_degree, n_inner_knots=len(basis.inner_knots))
        else:
            # mixed carries time in random interval intercepts only; mixedint keeps
            # the fixed interval effects and adds random treatment-by-interval terms
            fixed_time = kind.family in ("fixed", "mixedint")
            dm = build_design(
                prep.t, prep.arm, prep.y, prep.treatments,
                adjustment=kind.timescale if fixed_time else "none",
                starts=starts, horizon=prep.horizon,
            )

    estimate = None
    if kind.family in ("mixed", "mixedint"):
        try:
            groups, labels = mixed_model.build_random_design(
                prep.t, prep.arm,
                grouping="interaction" if kind.family == "mixedint" else "interval",
                starts=starts, horizon=prep.horizon,
                treatments=prep.treatments, exclude_arm=m,
            )
        except mixed_model.DegenerateRandomDesign:
            diag.update(fallback="ols_single_interval", converged=True)
        else:
            estimate = mixed_model.reml_fit(
                dm.X, groups, dm.y, cov_structure=kind.covariance, columns=dm.columns
            )
            boundary = estimate.sigma2_random <= mixed_model.BOUNDARY_GAMMA * estimate.sigma2
            diag.update(n_random_columns=len(labels), sigma2_random=estimate.sigma2_random,
                        converged=estimate.converged, iterations=estimate.iterations,
                        boundary=bool(boundary))
            if estimate.rho is not None:
                diag["rho"] = estimate.rho
    if estimate is None:
        estimate = ols_fit(dm)
    wt = wald_test(estimate, f"trt{m}", sided=spec.sided, alpha=spec.alpha)
    diag.update(df=estimate.df, n_obs=len(dm.y), n_columns=dm.X.shape[1])
    return FitResult(spec.label, m, *wt, diagnostics=diag)


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------

def _result_row(r: FitResult, diag_keys: Sequence[str]) -> dict:
    row = {
        "estimator": r.estimator,
        "arm": r.arm,
        "theta_hat": r.theta_hat,
        "se": r.se,
        "p_one": r.p_one,
        "p_two": r.p_two,
        "reject": r.reject,
    }
    for k in diag_keys:
        row[f"diag_{k}"] = r.diagnostics.get(k, "")
    return row


def results_table(results: Sequence[FitResult]) -> tuple[list[str], list[dict]]:
    diag_keys = sorted({k for r in results for k in r.diagnostics})
    header = list(RESULT_FIELDS) + [f"diag_{k}" for k in diag_keys]
    return header, [_result_row(r, diag_keys) for r in results]


def results_to_csv(results: Sequence[FitResult], path) -> None:
    header, rows = results_table(results)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        for row in rows:
            w.writerow({k: (repr(float(v)) if isinstance(v, float) else v) for k, v in row.items()})


def results_to_json(results: Sequence[FitResult], path) -> None:
    _, rows = results_table(results)
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, default=str)
        fh.write("\n")
