"""Trial layout: arm entry/exit schedule and the time partitions.

A time partition is a tuple of interval starts: periods open at arm entries
and exits, calendar intervals every ``c_length`` time units.

Time is measured in enrolled patients (one patient per time unit), so all
times are 1-based indices into the recruitment stream. Real-valued times
are accepted for imported datasets; the same half-open interval convention
applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ConfigError(ValueError):
    """Invalid trial or partition configuration."""


@dataclass(frozen=True)
class TrialConfig:
    """Design parameters of a staggered platform trial.

    K experimental arms plus a shared control; arm k becomes eligible after
    d*(k-1) patients have been enrolled (arm 1 is present from the start).
    """

    K: int
    d: int
    n: int
    eta0: float
    theta: tuple[float, ...]
    sigma: float
    M: int

    def __post_init__(self):
        if self.K < 2:
            raise ConfigError(f"K must be >= 2, got {self.K}")
        if self.d < 0:
            raise ConfigError(f"d must be >= 0, got {self.d}")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if not 1 <= self.M <= self.K:
            raise ConfigError(f"M must be in 1..{self.K}, got {self.M}")
        if len(self.theta) != self.K:
            raise ConfigError(
                f"theta must have one entry per arm ({self.K}), got {len(self.theta)}"
            )


@dataclass(frozen=True)
class TrialTimeline:
    """Realized entry/exit times of all arms.

    ``entry[k-1]`` is the first time arm k is eligible for randomization,
    ``exit[k-1]`` the time its last patient was enrolled. The periods at a
    given horizon follow from them through :func:`derive_periods`. Entries
    need not rise with k: arms of an imported trial enter at their first
    records, in whatever order those came.
    """

    entry: tuple[float, ...]
    exit: tuple[float, ...]

    def __post_init__(self):
        # equality only occurs for single-record arms in imported data
        if any(x < e for e, x in zip(self.entry, self.exit)):
            raise ConfigError("each exit time must come after the arm's entry")


def entry_times(config: TrialConfig) -> tuple[int, ...]:
    """Eligibility time of each arm under uniform one-per-unit recruitment."""
    return tuple(config.d * (k - 1) + 1 for k in range(1, config.K + 1))


def derive_periods(
    entries: Sequence[float],
    exits: Sequence[float],
    horizon: float,
    origin: float = 1.0,
) -> tuple[float, ...]:
    """Period start times at the given analysis horizon.

    Every arm entry at or before the horizon and every arm exit strictly
    before it opens a new period; the trial start (``origin``) always does.
    """
    if len(entries) == 0 or min(entries) > horizon:
        raise ConfigError("no arms active before the analysis horizon")
    starts = {origin}
    starts.update(e for e in entries if origin < e <= horizon)
    starts.update(x for x in exits if origin < x < horizon)
    return tuple(sorted(starts))


def derive_calendar(horizon: float, c_length: float, start: float = 1.0) -> tuple[float, ...]:
    """Start times of equidistant calendar units of size ``c_length``, cut at the horizon.

    The final unit is whatever is left before the horizon, so it is usually
    shorter than ``c_length``.
    """
    if not (math.isfinite(c_length) and c_length >= 1):  # NaN would never pass the horizon
        raise ConfigError(f"c_length must be a finite number >= 1, got {c_length}")
    if horizon < start:
        raise ConfigError(f"horizon {horizon} lies before trial start {start}")
    starts = []
    i = 0
    while True:
        b = start + i * c_length  # multiply, not accumulate: no float drift
        if b > horizon:
            break
        starts.append(b)
        i += 1
    return tuple(starts)


def interval_indices(times: np.ndarray, starts: Sequence[float], horizon: float) -> np.ndarray:
    """1-based index of the half-open interval [start_i, start_{i+1}) holding each time.

    The last interval is closed on the right so that t == horizon maps to it.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < starts[0] or times.max() > horizon):
        raise ConfigError("times outside partition range")
    return np.searchsorted(np.asarray(starts, dtype=float), times, side="right")
