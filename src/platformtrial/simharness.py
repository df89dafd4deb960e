"""Monte-Carlo engine: scenario runs and cartesian scenario grids.

Replicate seeds are derived counter-style from (root seed, data-scenario
hash, replicate index), so results do not depend on worker count or
scheduling, and adding estimators to a scenario never changes the data
stream.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import blas, spline
from .analysis import AnalysisSet, FitResult, ModelSpec, fit, slice_for_arm
from .datagen import TrendSpec, generate_trial
from .design import ConfigError, TrialConfig

GRID_CSV_HEADER = (
    "setting", "pattern", "lambda", "d", "c_length", "estimator", "hypothesis",
    "reps", "reject_rate", "mc_se", "mean_est", "emp_se", "bias", "failures",
)

LAMBDA_PROFILES = {
    # multipliers applied to the scanned strength; index 0 is the control arm
    "equal": lambda K: (1.0,) * (K + 1),
    "arm1": lambda K: (0.0, 1.0) + (0.0,) * (K - 1),
    "arms12": lambda K: (0.0, 1.0, 1.0) + (0.0,) * (K - 2),
    "arms124": lambda K: (0.0, 1.0, 1.0, 0.0, 1.0) + (0.0,) * (K - 4),
    "arms124_graded": lambda K: (0.0, 1.0, 2.0, 0.0, 3.0) + (0.0,) * (K - 4),
}


def lambda_multipliers(profile: tuple[float, ...] | str, K: int) -> tuple[float, ...]:
    """Per-arm multipliers of the trend strength (control first) for K arms."""
    if isinstance(profile, str):
        if profile not in LAMBDA_PROFILES:
            raise ConfigError(f"unknown lambda profile {profile!r}")
        mult = LAMBDA_PROFILES[profile](K)
    else:
        mult = tuple(float(x) for x in profile)
    if len(mult) != K + 1:
        raise ConfigError(f"lambda profile needs K+1={K + 1} multipliers, got {len(mult)}")
    return mult


@dataclass(frozen=True)
class Scenario:
    config: TrialConfig
    trend: TrendSpec
    estimators: tuple[ModelSpec, ...]
    hypothesis: str = "null"
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.hypothesis not in ("null", "alternative"):
            raise ConfigError(f"hypothesis must be 'null' or 'alternative', got {self.hypothesis!r}")

    @property
    def true_effect(self) -> float:
        return 0.0 if self.hypothesis == "null" else float(self.config.theta[self.config.M - 1])


@dataclass(frozen=True)
class EstimatorStats:
    estimator: str
    reps: int
    reject_rate: float
    mc_se: float
    mean_est: float
    emp_se: float
    bias: float
    failures: int


@dataclass(frozen=True)
class OperatingCharacteristics:
    scenario: Scenario
    per_estimator: dict[str, EstimatorStats] = field(default_factory=dict)


def scenario_data_key(scenario: Scenario) -> int:
    """64-bit hash of the data-generating parameters (estimators excluded)."""
    cfg, tr = scenario.config, scenario.trend
    canon = "|".join(
        repr(v) for v in (
            cfg.K, cfg.d, cfg.n, cfg.eta0, tuple(cfg.theta), cfg.sigma, cfg.M,
            tr.pattern, tuple(tr.lam), tr.n_p, tr.psi, scenario.hypothesis,
        )
    )
    return int.from_bytes(hashlib.blake2b(canon.encode(), digest_size=8).digest(), "big")


def replicate_seed(scenario: Scenario, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=(int(scenario.seed), scenario_data_key(scenario), int(index))
    )


class _Group(NamedTuple):
    """A data-key group at one replicate: its cells' specs, and its set once made."""

    specs: tuple[ModelSpec, ...]
    sets: dict[int, AnalysisSet]


Outcome = tuple[str, bool, bool, float]


def run_replicate(scenario: Scenario, index: int, group: _Group) -> list[Outcome]:
    """One replicate: (estimator label, failed, reject, theta_hat) per estimator.

    The cell reads the set of ``group`` (see ``_run_group``), or makes it for
    the group's specs if it is the group's first cell.
    """
    M = scenario.config.M
    specs, sets = group
    analysis_set = sets.get(index)
    if analysis_set is None:
        dataset = generate_trial(
            scenario.config, scenario.trend, scenario.hypothesis, seed=replicate_seed(scenario, index)
        )
        # outside the per-fit try: a generated trial completes arm M, so it cannot raise
        analysis_set = sets[index] = slice_for_arm(dataset, M, planned=specs)
    out = []
    for spec in scenario.estimators:
        try:
            r: FitResult = fit(analysis_set, M, spec)
            failed = not bool(r.diagnostics.get("converged", True))
            out.append((spec.label, failed, bool(r.reject), float(r.theta_hat)))
        except Exception as exc:  # rank deficiency etc.: recorded, never fatal
            exc.__traceback__ = None  # a kept failure would hold this frame, and so the set
            out.append((spec.label, True, False, float("nan")))
    return out


def _run_group(cells: Sequence[Scenario], indices: Sequence[int]) -> list[list[list[Outcome]]]:
    """Each cell's outcomes of replicates ``indices``, in replicate order.

    The cells are one data-key group, run replicate by replicate: each set is
    made once, for every cell's specs, and dropped before the next is made.
    """
    specs = tuple(dict.fromkeys(spec for cell in cells for spec in cell.estimators))
    per_cell = [[] for _ in cells]
    for index in indices:
        group = _Group(specs, {})
        for cell, outcomes in zip(cells, per_cell):
            outcomes.append(run_replicate(cell, index, group))
    return per_cell


def run_scenario(
    scenario: Scenario, threads: int = 1, _outcomes: list[list[Outcome]] | None = None
) -> OperatingCharacteristics:
    """Estimate rejection rate, estimate moments, and failure counts per estimator.

    Failed replicates (non-convergence or fit errors) are excluded from the
    rates and reported in ``failures``. Replicates run with every OpenBLAS at
    one thread; ``threads`` worker processes (at most one per replicate) run
    them in parallel, in balanced contiguous chunks; the workers fork from
    this process and inherit the modules it has imported. Outcomes that the
    cell's data-key group has run (``_outcomes``, see ``run_grid``) are summarized.
    """
    n = scenario.replicates
    workers = min(threads, n)
    if _outcomes is None:
        with blas.single_thread():  # forked workers inherit the one-thread counts
            if workers > 1:
                if any(spec.kind.family == "spline" for spec in scenario.estimators):
                    spline.preload()  # once here, not in every forked worker
                chunks = [range(i * n // workers, (i + 1) * n // workers) for i in range(workers)]
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    chunk_results = pool.map(_run_group, itertools.repeat((scenario,)), chunks)
                    _outcomes = [rep for (results,) in chunk_results for rep in results]
            else:
                (_outcomes,) = _run_group((scenario,), range(n))
    per_estimator = {
        spec.label: _summary(spec.label, [rep[pos] for rep in _outcomes], scenario.true_effect)
        for pos, spec in enumerate(scenario.estimators)
    }
    return OperatingCharacteristics(scenario=scenario, per_estimator=per_estimator)


def _summary(label: str, outcomes: list[Outcome], true_effect: float) -> EstimatorStats:
    """Rejection rate, estimate moments and failures of one estimator's replicates.

    The moments are ``np.mean`` and ``np.std(ddof=1)`` bit for bit: the same
    ``np.add.reduce`` calls on one float64 array, without their wrappers.
    """
    kept = [(reject, theta) for _, failed, reject, theta in outcomes if not failed]
    n_ok = len(kept)
    rate = mc_se = mean_est = emp_se = float("nan")
    if n_ok:
        rate = sum(reject for reject, _ in kept) / n_ok
        mc_se = math.sqrt(rate * (1.0 - rate) / n_ok)
        estimates = np.array([theta for _, theta in kept])
        mean = np.add.reduce(estimates) / n_ok
        mean_est = float(mean)
        if n_ok > 1:
            dev = estimates - mean
            emp_se = math.sqrt(np.add.reduce(dev * dev) / (n_ok - 1))
    return EstimatorStats(
        estimator=label,
        reps=n_ok,
        reject_rate=rate,
        mc_se=mc_se,
        mean_est=mean_est,
        emp_se=emp_se,
        bias=mean_est - true_effect,
        failures=len(outcomes) - n_ok,
    )


# ---------------------------------------------------------------------------
# Scenario grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Cartesian scenario grid over trend pattern, strength, spacing, c_length."""

    setting: str
    K: int
    n: int
    M: int
    estimators: tuple[ModelSpec, ...]
    d_values: tuple[int, ...]
    patterns: tuple[str, ...]
    lambdas: tuple[float, ...]
    hypotheses: tuple[str, ...] = ("null",)
    c_lengths: tuple[float | None, ...] = (None,)
    profile: tuple[float, ...] | str = "equal"
    eta0: float = 0.0
    effect: float = 0.25
    sigma: float = 1.0
    n_p: int | None = None
    psi: float | None = None
    replicates: int = 1000
    seed: int = 0
    alpha: float = 0.025
    sided: str = "one_greater"

    def __post_init__(self):
        for name in ("estimators", "d_values", "patterns", "lambdas", "hypotheses", "c_lengths"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"empty grid: no values for {name}")

    def multipliers(self) -> tuple[float, ...]:
        return lambda_multipliers(self.profile, self.K)

    def cells(self) -> list[Scenario]:
        return [scenario for *_, scenario in self._cells_with_axes()]

    def _cells_with_axes(self) -> list[tuple[float, float | None, int, Scenario]]:
        """(lambda, c_length, data key, scenario) per cell, in axis-product order.

        The c_length axis applies only when some estimator needs it. Each part
        of a cell is made once and shared by the cells that hold it: a spec
        without a c_length is one object in every cell, and the cells of one
        (hypothesis, pattern, lambda, d) share its config, trend and data key.
        """
        mult = self.multipliers()
        needs_c_length = any(spec.kind.needs_c_length for spec in self.estimators)
        c_lengths = self.c_lengths if needs_c_length else (None,)
        tests = {"alpha": self.alpha, "sided": self.sided}
        free = [None if spec.kind.needs_c_length else replace(spec, **tests)
                for spec in self.estimators]
        estimators = [
            tuple(replace(spec, c_length=c_length, **tests) if same is None else same
                  for spec, same in zip(self.estimators, free))
            for c_length in c_lengths
        ]
        configs = [
            TrialConfig(K=self.K, d=d, n=self.n, eta0=self.eta0,
                        theta=(self.effect,) * self.K, sigma=self.sigma, M=self.M)
            for d in self.d_values
        ]
        trends = [
            [TrendSpec(pattern=pattern, lam=tuple(lam * m for m in mult),
                       n_p=self.n_p if pattern == "inverted_u" else None,
                       psi=self.psi if pattern == "seasonal" else None)
             for lam in self.lambdas]
            for pattern in self.patterns
        ]
        out = []
        for hypothesis, pattern_trends in itertools.product(self.hypotheses, trends):
            for (lam, trend), config in itertools.product(zip(self.lambdas, pattern_trends), configs):
                cells = [Scenario(config=config, trend=trend, estimators=specs, hypothesis=hypothesis,
                                  replicates=self.replicates, seed=self.seed)
                         for specs in estimators]
                key = scenario_data_key(cells[0])
                out += [(float(lam), c_length, key, scenario)
                        for c_length, scenario in zip(c_lengths, cells)]
        return out


def run_grid(grid: GridSpec, threads: int = 1) -> list[dict]:
    """Run every cell of the grid; one output row per (cell, estimator).

    The BLAS thread counts are set once for the whole grid: restoring them
    between cells would restart OpenBLAS threads that the next pool's fork
    stops again.

    Consecutive cells with the same data key (the c_length axis) simulate the
    same datasets. At one worker they run as one data-key group
    (``_run_group``), which makes and fits each replicate's set once for all
    of them; at two or more workers each cell runs in its own pool.
    """
    rows = []
    with blas.single_thread():
        groups = itertools.groupby(grid._cells_with_axes(), key=lambda cell: cell[2])
        for _, group in groups:
            lams, c_lengths, _, cells = zip(*group)
            per_cell = (_run_group(cells, range(grid.replicates)) if threads <= 1
                        else [None] * len(cells))
            for lam, c_length, scenario, outcomes in zip(lams, c_lengths, cells, per_cell):
                axes = {"setting": grid.setting, "pattern": scenario.trend.pattern,
                        "lambda": lam, "d": scenario.config.d, "c_length": c_length,
                        "hypothesis": scenario.hypothesis}
                for st in run_scenario(scenario, threads, outcomes).per_estimator.values():
                    row = {**axes, **vars(st)}
                    rows.append({key: row[key] for key in GRID_CSV_HEADER})
            del per_cell, outcomes  # the next group runs without this one's outcomes
    return rows


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def rows_to_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(GRID_CSV_HEADER)
        for row in rows:
            w.writerow([_format_cell(row[k]) for k in GRID_CSV_HEADER])


def rows_to_json(rows: Sequence[dict], path) -> None:
    with open(path, "w") as fh:
        json.dump(list(rows), fh, indent=2)
        fh.write("\n")
