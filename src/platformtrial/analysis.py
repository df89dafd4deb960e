"""Estimator front end: maps (dataset, evaluated arm, model spec) to a fit result."""
from __future__ import annotations

import copyreg
import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import mixed_model, spline
from .datagen import TrialDataset
from .design import ConfigError, TrialTimeline, derive_calendar, derive_periods
from .regression_engine import (DEGENERATE_TEST, RankDeficiencyError, build_design, cell_ols_each,
                                exact_fits, ols_fit, sort_cells, wald_test)


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

# The known statistical failures of a fit, which fit keeps like results: a collinear
# design, a degenerate test (an exact fit included), a non-PD REML estimate.
FIT_FAILURES = (RankDeficiencyError, ConfigError, np.linalg.LinAlgError)

RESULT_FIELDS = ("estimator", "arm", "theta_hat", "se", "p_one", "p_two", "reject")


@dataclass(frozen=True)
class ModelSpec:
    """Choice of estimator plus its options; it keys a set's kept fits by its fields."""

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

    @cached_property
    def label(self) -> str:
        if self.kind.family == "spline":
            return f"{self.estimator}_q{self.spline_degree}"
        return self.estimator


class Diagnostics(dict):
    """A fit's diagnostics: a dict that refuses every change, so that the one
    kept result of a fit can be handed to every caller."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a fit's diagnostics are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


# pickle and copy rebuild it from a plain dict: the dict protocol would set each item
copyreg.pickle(Diagnostics, lambda diagnostics: (Diagnostics, (dict(diagnostics),)))


@dataclass(frozen=True)
class FitResult:
    """A fit's test of arm m's coefficient. Immutable, its diagnostics made
    a :class:`Diagnostics`, so one kept result serves every call."""

    estimator: str
    arm: int
    theta_hat: float
    se: float
    t: float
    p_one: float
    p_two: float
    reject: bool
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __post_init__(self):
        object.__setattr__(self, "diagnostics", Diagnostics(self.diagnostics))


def default_model_set(c_length: float | None = None, spline_degree: int = 3,
                      **opts) -> tuple[ModelSpec, ...]:
    """The standard analysis battery: fixed, mixed (calendar), spline, baselines;
    without a ``c_length``, its specs that need none."""
    calendar, knots = {"c_length": c_length}, {"spline_degree": spline_degree}
    battery = (("fixed_period", {}), ("fixed_calendar", calendar), ("mixed_calendar", calendar),
               ("mixed_calendar_ar1", calendar), ("spline_period", knots),
               ("spline_calendar", {**calendar, **knots}), ("pooled", {}), ("separate", {}))
    return tuple(ModelSpec(name, **kw, **opts) for name, kw in battery
                 if c_length is not None or not ESTIMATORS[name].needs_c_length)


@dataclass(frozen=True)
class AnalysisSet:
    """The analysis set of arm m, checked once and ready for every estimator.

    Built by :func:`slice_for_arm`. Its arrays are read-only, so one set can
    serve every fit of a replicate, and every grid cell that shares the data,
    without a fit being able to change it for the next. ``fits`` holds the
    outcome of every spec :func:`fit` has fitted on the set, its result or
    its known failure, so a spec shared by several cells is fitted once.
    ``planned`` lists the specs its callers will ask for: the first
    fixed-effect fit fits every fixed-effect spec planned there in one pass.
    """

    m: int
    t: np.ndarray
    arm: np.ndarray
    y: np.ndarray
    horizon: float
    origin: float
    treatments: tuple[int, ...]
    m_entry: float
    timeline: TrialTimeline
    fits: dict[ModelSpec, FitResult | Exception] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    planned: tuple[ModelSpec, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def period_starts(self) -> tuple[float, ...]:
        """Period starts at the horizon, derived when a period estimator first asks."""
        tl = self.timeline
        return derive_periods(tl.entry, tl.exit, self.horizon, origin=self.origin)


def slice_for_arm(dataset: TrialDataset, m: int, planned: Sequence[ModelSpec] = ()) -> AnalysisSet:
    """The analysis set of arm m: every record up to arm m's exit time.

    Partial data of arms still recruiting at that time is kept. Raises
    ``ConfigError`` when arm m has no records, or fewer than the dataset's
    ``n_target``. The set's arrays are read-only copies of the cut, so the
    caller's dataset stays writable. The set plans the specs in ``planned``.
    """
    if m < 1:
        raise ConfigError("the evaluated arm must be an experimental arm (>= 1)")
    in_arm = dataset.arm == m
    n_arm = int(in_arm.sum())
    if not n_arm:
        raise ConfigError(f"arm {m} has no records in the dataset")
    if dataset.n_target is not None and n_arm < dataset.n_target:
        raise ConfigError(f"arm {m} incomplete: {n_arm} of {dataset.n_target} patients")
    t_arm = dataset.t[in_arm]
    horizon = float(t_arm.max())
    keep = dataset.t <= horizon
    t = dataset.t[keep].astype(float, copy=False)
    arm = dataset.arm[keep]
    y = dataset.y[keep].astype(float, copy=False)
    for values in (t, arm, y):
        values.flags.writeable = False  # copies of the cut, not the caller's arrays
    tl = dataset.timeline
    m_entry = tl.entry[m - 1] if tl is not None and m <= len(tl.entry) else t_arm.min()
    return AnalysisSet(m=m, t=t, arm=arm, y=y, horizon=horizon, origin=float(t.min()),
                       treatments=tuple(sorted(int(k) for k in np.unique(arm) if k != 0)),
                       m_entry=float(m_entry), timeline=tl, planned=tuple(planned))


def fit(data: AnalysisSet, m: int, spec: ModelSpec) -> FitResult:
    """Fit one estimator to the analysis set of arm m.

    ``data`` is the set :func:`slice_for_arm` made for arm m. A fit's
    outcome is a function of (set, spec): its result, or one of the
    ``FIT_FAILURES``. The set keeps it in ``data.fits``, and an equal spec
    returns that one immutable result, or raises the failure, without
    fitting again. Any other exception is not kept. A fixed-effect spec is
    fitted in one pass with the set's ``planned`` fixed-effect specs that it
    has not kept; a batch leaves each fit as it would be alone.
    """
    if not isinstance(data, AnalysisSet):
        raise ConfigError(
            f"fit takes the AnalysisSet of slice_for_arm(dataset, {m}), not {type(data).__name__}"
        )
    if data.m != m:
        raise ConfigError(f"analysis set made for arm {data.m}, not for arm {m}")
    kept = data.fits.get(spec)
    if kept is None:
        if spec.kind.family == "fixed":
            batch = list(dict.fromkeys([spec, *(s for s in data.planned if s.kind.family == "fixed"
                                                and s not in data.fits)]))
            outcomes = _fit_fixed(data, batch)
        else:
            batch = [spec]
            try:
                outcomes = [_fit(data, spec)]
            except FIT_FAILURES as exc:
                outcomes = [exc]
        for s, outcome in zip(batch, outcomes):
            if isinstance(outcome, Exception):
                outcome.__traceback__ = None  # its frames would hold the set or a cell pass
            data.fits[s] = outcome
        kept = outcomes[0]
    if isinstance(kept, FitResult):
        return kept
    try:
        raise kept
    finally:
        kept.__traceback__ = None  # the frame of this call holds the set that keeps it


def _fit(prep: AnalysisSet, spec: ModelSpec) -> FitResult:
    kind, m = spec.kind, prep.m
    estimate = None
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
        rows = in_arm | controls
        y = prep.y[rows]
        dm = build_design(prep.t[rows], prep.arm[rows], y, treatments=(m,))
        diag.update(n_treatment=int(in_arm.sum()), n_controls=int(controls.sum()))
    else:
        starts = _interval_starts(prep, spec)
        diag = {"n_intervals": len(starts)}
        y = prep.y
        if kind.family == "spline":
            basis = spline.knots_at(starts, prep.horizon, degree=spec.spline_degree)
            dm = build_design(
                prep.t, prep.arm, prep.y, prep.treatments, adjustment="spline", basis=basis
            )
            diag.update(spline_degree=spec.spline_degree, n_inner_knots=len(basis.inner_knots))
        else:
            # mixed carries time in random interval intercepts only; mixedint keeps
            # the fixed interval effects and adds random treatment-by-interval terms
            dm = build_design(
                prep.t, prep.arm, prep.y, prep.treatments,
                adjustment=kind.timescale if kind.family == "mixedint" else "none",
                starts=starts, horizon=prep.horizon,
            )

    if kind.family in ("mixed", "mixedint"):
        groups, labels = mixed_model.build_random_design(
            prep.t, prep.arm,
            grouping="interaction" if kind.family == "mixedint" else "interval",
            starts=starts, horizon=prep.horizon,
            treatments=prep.treatments, exclude_arm=m,
        )
        try:
            estimate = mixed_model.reml_fit(
                dm.X, groups, dm.y, cov_structure=kind.covariance, columns=dm.columns
            )
        except mixed_model.DegenerateRandomDesign:
            diag.update(fallback="ols_single_interval", converged=True)
        else:
            boundary = estimate.sigma2_random <= mixed_model.BOUNDARY_GAMMA * estimate.sigma2
            diag.update(n_random_columns=len(labels), sigma2_random=estimate.sigma2_random,
                        converged=estimate.converged, iterations=estimate.iterations,
                        boundary=bool(boundary))
            if estimate.rho is not None:
                diag["rho"] = estimate.rho
    (outcome,) = _results(prep, [spec], [ols_fit(dm) if estimate is None else estimate], [diag], y)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fit_fixed(prep: AnalysisSet, specs: Sequence[ModelSpec]) -> list[FitResult | Exception]:
    """Each fixed-effect spec's fit, or the error it raises, from one cell pass
    and one Wald pass.

    The records are sorted for the pass and not kept: a set that plans its
    specs makes one pass, and a data-key group keeps every replicate's set.
    """
    estimates, diags, partitions = [], [], []
    for spec in specs:
        try:
            starts = _interval_starts(prep, spec)
        except ConfigError as exc:  # a calendar partition finer than the records
            estimates.append(exc)
            diags.append(None)
            continue
        estimates.append(None)
        diags.append({"n_intervals": len(starts)})
        partitions.append((spec.kind.timescale, starts))
    records = sort_cells(prep.t, prep.arm, prep.y, prep.treatments)
    fits = iter(cell_ols_each(records, partitions, prep.horizon))
    estimates = [next(fits) if e is None else e for e in estimates]
    return _results(prep, specs, estimates, diags, prep.y)


def _interval_starts(prep: AnalysisSet, spec: ModelSpec) -> tuple[float, ...]:
    """The starts of the spec's time partition; a calendar partition has at
    most one interval per record."""
    if spec.kind.timescale == "period":
        return prep.period_starts
    return derive_calendar(prep.horizon, spec.c_length, start=prep.origin,
                           max_intervals=prep.y.size)


def _results(prep: AnalysisSet, specs: Sequence[ModelSpec], estimates: list, diags: list[dict],
             y: np.ndarray) -> list[FitResult | Exception]:
    """Each estimate's Wald test of arm m's coefficient, from one pass, with the
    fit's sizes in its ``diag``. An error stays one, and a least-squares fit
    that reproduces y fails as a degenerate test."""
    m, n = prep.m, y.size
    out = list(estimates)
    done = [i for i, e in enumerate(estimates) if not isinstance(e, Exception)]
    fits = [estimates[i] for i in done]
    tests = wald_test(fits, f"trt{m}", sided=[specs[i].sided for i in done],
                      alpha=[specs[i].alpha for i in done])
    for i, estimate, test, exact in zip(done, fits, tests, exact_fits(fits, y)):
        if exact:
            out[i] = ConfigError(DEGENERATE_TEST)
        elif isinstance(test, Exception):
            out[i] = test
        else:
            # every fit has df = n - p, also the REML fits
            diags[i].update(df=estimate.df, n_obs=n, n_columns=n - estimate.df)
            out[i] = FitResult(specs[i].label, m, *test, diags[i])
    return out


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------

def _result_row(r: FitResult, diag_keys: Sequence[str]) -> dict:
    row = {name: getattr(r, name) for name in RESULT_FIELDS}
    row.update((f"diag_{k}", r.diagnostics.get(k, "")) for k in diag_keys)
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
