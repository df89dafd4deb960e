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
    """What the cells of a data-key group share at one worker: the specs of
    all its cells, the analysis sets its cells have made, by replicate, and
    the summary of each spec a cell has summarized, by spec."""

    specs: tuple[ModelSpec, ...]
    sets: dict[int, AnalysisSet]
    stats: dict[ModelSpec, EstimatorStats]


def run_replicate(
    scenario: Scenario, index: int, _shared: _Group | None = None
) -> list[tuple[str, bool, bool, float]]:
    """One replicate: (estimator label, failed, reject, theta_hat) per estimator.

    ``_shared`` is the data-key group of this scenario's cell: a set its cells
    have already made is read, a missing one is made for the group's specs
    and added. Without a group, the set is made for this cell's specs.
    """
    M = scenario.config.M
    specs, sets, _ = _Group(scenario.estimators, {}, {}) if _shared is None else _shared
    analysis_set = sets.get(index)
    if analysis_set is None:
        dataset = generate_trial(
            scenario.config, scenario.trend, scenario.hypothesis, seed=replicate_seed(scenario, index)
        )
        # outside the per-fit try: a generated trial completes arm M, so this
        # cannot raise
        analysis_set = sets[index] = slice_for_arm(dataset, M, planned=specs)
    out = []
    for spec in scenario.estimators:
        try:
            r: FitResult = fit(analysis_set, M, spec)
            failed = not bool(r.diagnostics.get("converged", True))
            out.append((spec.label, failed, bool(r.reject), float(r.theta_hat)))
        except Exception as exc:  # rank deficiency etc.: recorded, never fatal
            exc.__traceback__ = None  # a kept failure would hold this frame, and the group's sets
            out.append((spec.label, True, False, float("nan")))
    return out


def _run_chunk(scenario: Scenario, indices: Sequence[int]):
    return [run_replicate(scenario, i) for i in indices]


def run_scenario(
    scenario: Scenario, threads: int = 1, _shared: _Group | None = None
) -> OperatingCharacteristics:
    """Estimate rejection rate, estimate moments, and failure counts per estimator.

    Failed replicates (non-convergence or fit errors) are excluded from the
    rates and reported in ``failures``. Replicates run with every OpenBLAS at
    one thread; ``threads`` worker processes (at most one per replicate) run
    them in parallel, in balanced contiguous chunks; the workers fork from
    this process and inherit the modules it has imported. Replicates run in this
    process read and fill ``_shared`` (see ``run_replicate``), and so does the
    summary of each spec: a spec another cell of the group has summarized is
    read, not summarized again.
    """
    n = scenario.replicates
    indices = range(n)
    workers = min(threads, n)
    with blas.single_thread():  # forked workers inherit the one-thread counts
        if workers > 1:
            if any(spec.kind.family == "spline" for spec in scenario.estimators):
                spline.preload()  # once here, not in every forked worker
            chunks = [indices[i * n // workers:(i + 1) * n // workers] for i in range(workers)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk_results = pool.map(_run_chunk, itertools.repeat(scenario), chunks)
                per_rep = [res for results in chunk_results for res in results]
        else:
            per_rep = [run_replicate(scenario, i, _shared) for i in indices]

    # a cell of a group reads the summary of a spec another cell has made: the
    # group's cells run the same replicates on the same sets, and a data key
    # fixes the true effect
    stats = {} if _shared is None else _shared.stats
    per_estimator: dict[str, EstimatorStats] = {}
    for pos, spec in enumerate(scenario.estimators):
        st = stats.get(spec)
        if st is None:
            st = stats[spec] = _summary(spec.label, [rep[pos] for rep in per_rep],
                                        scenario.true_effect)
        per_estimator[spec.label] = st
    return OperatingCharacteristics(scenario=scenario, per_estimator=per_estimator)


def _summary(label: str, outcomes: list[tuple[str, bool, bool, float]],
             true_effect: float) -> EstimatorStats:
    """Rejection rate, estimate moments and failures of one estimator's replicates."""
    rejects, estimates, failures = [], [], 0
    for _, failed, reject, theta in outcomes:
        if failed:
            failures += 1
        else:
            rejects.append(reject)
            estimates.append(theta)
    n_ok = len(rejects)
    if n_ok:
        rate = sum(rejects) / n_ok
        mc_se = math.sqrt(rate * (1.0 - rate) / n_ok)
        mean_est = float(np.mean(estimates))
        emp_se = float(np.std(estimates, ddof=1)) if n_ok > 1 else float("nan")
    else:
        rate = mc_se = mean_est = emp_se = float("nan")
    return EstimatorStats(
        estimator=label,
        reps=n_ok,
        reject_rate=rate,
        mc_se=mc_se,
        mean_est=mean_est,
        emp_se=emp_se,
        bias=mean_est - true_effect if n_ok else float("nan"),
        failures=failures,
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
    same datasets. At one worker they share each replicate's analysis set:
    the group's first cell makes it with every cell's specs planned, the
    others read it. They share each spec's summary as well, so a spec in
    every cell (one without a c_length) is summarized once. The sets and
    summaries are dropped when the group ends.
    """
    rows = []
    with blas.single_thread():
        groups = itertools.groupby(grid._cells_with_axes(), key=lambda cell: cell[2])
        for _, group in groups:
            group = list(group)
            shared = None
            if threads <= 1 and len(group) > 1:
                specs = dict.fromkeys(spec for *_, scenario in group for spec in scenario.estimators)
                shared = _Group(tuple(specs), {}, {})
            for lam, c_length, _, scenario in group:
                oc = run_scenario(scenario, threads, shared)
                for spec in scenario.estimators:
                    st = oc.per_estimator[spec.label]
                    rows.append({
                        "setting": grid.setting,
                        "pattern": scenario.trend.pattern,
                        "lambda": lam,
                        "d": scenario.config.d,
                        "c_length": c_length,
                        "estimator": st.estimator,
                        "hypothesis": scenario.hypothesis,
                        "reps": st.reps,
                        "reject_rate": st.reject_rate,
                        "mc_se": st.mc_se,
                        "mean_est": st.mean_est,
                        "emp_se": st.emp_se,
                        "bias": st.bias,
                        "failures": st.failures,
                    })
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
