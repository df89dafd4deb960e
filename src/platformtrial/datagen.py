"""Trial data generation: block randomization, time trends, normal responses."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .design import ConfigError, TrialConfig, TrialTimeline, entry_times

TREND_PATTERNS = ("none", "linear", "stepwise", "inverted_u", "seasonal")

CSV_HEADER = ("j", "arm", "time", "response")


@dataclass(frozen=True)
class TrendSpec:
    """Shape and per-arm strength of the systematic drift in mean response.

    ``lam`` holds K+1 strengths, index 0 being the control arm. ``n_p`` is
    the turning point of the inverted-U pattern (in patients), ``psi`` the
    cycle count of the seasonal pattern.
    """

    pattern: str
    lam: tuple[float, ...]
    n_p: int | None = None
    psi: float | None = None

    def __post_init__(self):
        if self.pattern not in TREND_PATTERNS:
            raise ConfigError(f"unknown trend pattern {self.pattern!r}")
        if self.pattern == "inverted_u":
            if self.n_p is None or self.n_p <= 1:
                raise ConfigError("inverted_u trend requires a turning point n_p > 1")
        if self.pattern == "seasonal":
            if self.psi is None or self.psi <= 0:
                raise ConfigError("seasonal trend requires a cycle count psi > 0")

    @classmethod
    def none(cls, n_arms: int) -> "TrendSpec":
        return cls(pattern="none", lam=(0.0,) * (n_arms + 1))


@dataclass(frozen=True)
class TrialDataset:
    """Column-oriented patient records plus the realized timeline.

    ``t`` equals ``j`` for generated data; imported real-world data may
    carry non-uniform times. ``n_target`` is the per-arm sample size used
    at generation (None for imported data).
    """

    j: np.ndarray
    arm: np.ndarray
    t: np.ndarray
    y: np.ndarray
    timeline: TrialTimeline
    n_target: int | None = None

    def __len__(self) -> int:
        return self.j.size


def arms_entered_by(times, entries: Sequence[float]):
    """Number of experimental arms that have entered at each time (i_j)."""
    return np.searchsorted(np.sort(np.asarray(entries, dtype=float)), np.asarray(times, dtype=float), side="right")


def trend_value(pattern, j, lam_k, n_total, n_p=None, psi=None, arms_entered=None):
    """Trend contribution f(j) for one or many patients.

    All patterns except ``stepwise`` rescale patient index to (j-1)/(N-1);
    ``stepwise`` jumps by lam_k whenever a new arm enters (``arms_entered``
    counts the arms that entered up to and including time j).
    """
    j = np.asarray(j, dtype=float)
    lam_k = np.asarray(lam_k, dtype=float)
    if pattern == "none":
        return np.zeros(np.broadcast(j, lam_k).shape) if j.ndim or lam_k.ndim else 0.0
    if n_total < 2:
        raise ConfigError("trend formulas need a total sample size of at least 2")
    frac = (j - 1.0) / (n_total - 1.0)
    if pattern == "linear":
        out = lam_k * frac
    elif pattern == "seasonal":
        if psi is None or psi <= 0:
            raise ConfigError("seasonal trend requires psi > 0")
        out = lam_k * np.sin(psi * 2.0 * np.pi * frac)
    elif pattern == "inverted_u":
        if n_p is None or not 1 < n_p < n_total:
            raise ConfigError("inverted_u trend requires 1 < n_p < N")
        rising = lam_k * frac
        falling = -lam_k * (j - n_p) / (n_total - 1.0) + lam_k * (n_p - 1.0) / (n_total - 1.0)
        out = np.where(j <= n_p, rising, falling)
    elif pattern == "stepwise":
        if arms_entered is None:
            raise ConfigError("stepwise trend requires the entered-arm count i_j")
        out = lam_k * (np.asarray(arms_entered, dtype=float) - 1.0)
    else:
        raise ConfigError(f"unknown trend pattern {pattern!r}")
    return out if out.ndim else float(out)


def _resolve_effects(config: TrialConfig, hypothesis) -> np.ndarray:
    """Per-arm treatment effects (index 0 = control) under the hypothesis."""
    if isinstance(hypothesis, str):
        if hypothesis == "null":
            flags = (False,) * config.K
        elif hypothesis == "alternative":
            flags = (True,) * config.K
        else:
            raise ConfigError(f"hypothesis must be 'null' or 'alternative', got {hypothesis!r}")
    else:
        flags = tuple(bool(f) for f in hypothesis)
        if len(flags) != config.K:
            raise ConfigError(f"need one hypothesis flag per arm ({config.K})")
    effects = np.zeros(config.K + 1)
    for k, on in enumerate(flags, start=1):
        if on:
            effects[k] = config.theta[k - 1]
    return effects


def _assign_all(config: TrialConfig, rng: np.random.Generator):
    """Run the randomization stream until every arm reaches n patients.

    Between two events (an arm entering, an arm completing) the set of
    recruiting arms is fixed, and patients are assigned in blocks holding
    the control and every recruiting arm twice, in uniformly shuffled order.
    An event discards the rest of the current block. While no experimental
    arm recruits, everyone goes to control.

    The blocks between two events are drawn in one ``rng.permuted`` call,
    which shuffles row by row exactly as that many ``rng.permutation`` calls
    would. The number of blocks is known in advance: every block holds each
    arm twice, so the arm closest to n completes in block ceil(need / 2),
    unless the next entry comes first.
    """
    K, n = config.K, config.n
    entries = entry_times(config)
    counts = np.zeros(K + 1, dtype=np.int64)
    exits = [0] * K
    segments = []
    j = 0  # patients assigned so far
    while (counts[1:] < n).any():
        upcoming = [e for e in entries if e > j + 1]
        horizon = upcoming[0] - (j + 1) if upcoming else None  # patients before the next entry
        active = [k for k in range(1, K + 1) if entries[k - 1] <= j + 1 and counts[k] < n]
        if not active:  # control only, until the next arm enters
            segment = np.zeros(horizon, dtype=np.int64)
        else:
            members = np.array([0] + active, dtype=np.int64).repeat(2)
            need = n - counts[active]
            n_blocks = -(-int(need.min()) // 2)
            if horizon is not None:
                n_blocks = min(n_blocks, -(-horizon // members.size))
            blocks = rng.permuted(np.tile(members, (n_blocks, 1)), axis=1)
            size = blocks.size if horizon is None else min(horizon, blocks.size)
            completing = 0
            for k, need_k in zip(active, need):
                block = (need_k - 1) // 2
                if block < n_blocks:
                    within = np.flatnonzero(blocks[block] == k)[(need_k - 1) % 2]
                    end = block * members.size + within + 1
                    if end <= size:
                        size, completing = int(end), k
            if completing:
                exits[completing - 1] = j + size
            segment = blocks.ravel()[:size]
        counts += np.bincount(segment, minlength=K + 1)
        segments.append(segment)
        j += segment.size
    return np.concatenate(segments), entries, tuple(exits)


def generate_trial(
    config: TrialConfig,
    trend: TrendSpec,
    hypothesis="alternative",
    seed: int | np.random.SeedSequence = 0,
) -> TrialDataset:
    """Generate one trial replicate.

    Patients arrive one per time unit; arm k recruits from its entry time
    until it holds n patients; the trial stops once every arm is complete.
    The response is control mean + treatment effect + trend + N(0, sigma^2)
    noise. Randomization and noise use separate sub-streams of ``seed``, so
    identical seeds give bit-identical datasets.
    """
    if len(trend.lam) != config.K + 1:
        raise ConfigError(
            f"trend needs K+1={config.K + 1} strengths (control first), got {len(trend.lam)}"
        )
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_assign, ss_noise = ss.spawn(2)
    arm, entries, exits = _assign_all(config, np.random.default_rng(ss_assign))
    n_total = arm.size
    j = np.arange(1, n_total + 1, dtype=np.int64)

    lam_by_arm = np.asarray(trend.lam, dtype=float)
    f = trend_value(
        trend.pattern,
        j,
        lam_by_arm[arm],
        n_total,
        n_p=trend.n_p,
        psi=trend.psi,
        arms_entered=arms_entered_by(j, entries) if trend.pattern == "stepwise" else None,
    )
    effects = _resolve_effects(config, hypothesis)
    noise = np.random.default_rng(ss_noise).standard_normal(n_total)
    y = config.eta0 + effects[arm] + np.asarray(f, dtype=float) + config.sigma * noise

    timeline = TrialTimeline(
        entry=tuple(float(e) for e in entries), exit=tuple(float(x) for x in exits)
    )
    return TrialDataset(j=j, arm=arm, t=j.astype(float), y=y, timeline=timeline, n_target=config.n)


def slice_for_arm(dataset: TrialDataset, m: int) -> TrialDataset:
    """Analysis data cut for arm m: every record up to arm m's exit time.

    Partial data of arms still recruiting at that time is kept.
    """
    if m < 1:
        raise ConfigError("the evaluated arm must be an experimental arm (>= 1)")
    in_arm = dataset.arm == m
    if not in_arm.any():
        raise ConfigError(f"arm {m} has no records in the dataset")
    if dataset.n_target is not None and int(in_arm.sum()) < dataset.n_target:
        raise ConfigError(
            f"arm {m} incomplete: {int(in_arm.sum())} of {dataset.n_target} patients"
        )
    horizon = float(dataset.t[in_arm].max())
    keep = dataset.t <= horizon
    return replace(
        dataset,
        j=dataset.j[keep],
        arm=dataset.arm[keep],
        t=dataset.t[keep],
        y=dataset.y[keep],
    )


def empirical_timeline(arm: np.ndarray, t: np.ndarray) -> TrialTimeline:
    """Timeline reconstructed from observed data (for imported datasets).

    An arm's entry is its first observed time and its exit its last one;
    arms whose last record coincides with the data horizon are treated as
    still active there.
    """
    arms = sorted(int(k) for k in np.unique(arm) if k != 0)
    if not arms:
        raise ConfigError("dataset contains no experimental-arm records")
    if arms != list(range(1, len(arms) + 1)):
        raise ConfigError(
            f"experimental arms must be labeled 1..K without gaps, got {arms}"
        )
    entries = tuple(float(t[arm == k].min()) for k in arms)
    exits = tuple(float(t[arm == k].max()) for k in arms)
    return TrialTimeline(entry=entries, exit=exits)


def write_csv(dataset: TrialDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for i in range(len(dataset)):
            w.writerow(
                [int(dataset.j[i]), int(dataset.arm[i]), repr(float(dataset.t[i])), repr(float(dataset.y[i]))]
            )


def read_csv(path) -> TrialDataset:
    """Load a dataset from CSV with header ``j,arm,time,response``."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None
    with fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != list(CSV_HEADER):
            raise ConfigError(f"expected CSV header {','.join(CSV_HEADER)}")
        j, arm, t, y = [], [], [], []
        line_of_j: dict[int, int] = {}
        for lineno, row in enumerate(r, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ConfigError(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                values = [float(field) for field in row]
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: non-numeric field ({exc})") from None
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"line {lineno}: non-finite value")
            for name, value in zip(("j", "arm"), values):
                if not value.is_integer():
                    raise ConfigError(f"line {lineno}: {name} must be an integer, got {value!r}")
            patient = int(values[0])
            if patient in line_of_j:
                raise ConfigError(
                    f"line {lineno}: duplicate j={patient} (first on line {line_of_j[patient]})"
                )
            line_of_j[patient] = lineno
            j.append(patient)
            arm.append(int(values[1]))
            t.append(values[2])
            y.append(values[3])
    if not j:
        raise ConfigError("dataset is empty")
    arm_arr = np.asarray(arm, dtype=np.int64)
    t_arr = np.asarray(t, dtype=float)
    return TrialDataset(
        j=np.asarray(j, dtype=np.int64),
        arm=arm_arr,
        t=t_arr,
        y=np.asarray(y, dtype=float),
        timeline=empirical_timeline(arm_arr, t_arr),
    )
