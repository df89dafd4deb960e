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


def max_enrollment(K: int, n: int, d: int) -> int:
    """A bound on the patients a trial of K arms of n, entering d apart, enrolls:
    d(K-1) before the last entry, then at most n/2 full blocks (the last arm
    to complete gets 2 of each) and one cut block per completing arm, each
    of at most 2(K+1) patients."""
    return d * (K - 1) + (n + 2 * K) * (K + 1)


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


def derive_calendar(
    horizon: float, c_length: float, start: float = 1.0, max_intervals: int | None = None
) -> tuple[float, ...]:
    """Start times of equidistant calendar units of size ``c_length``, cut at the horizon.

    The final unit is whatever is left before the horizon, so it is usually
    shorter than ``c_length``. The units are counted before any start is
    built, and more than ``max_intervals`` of them raise ``ConfigError`` (an
    analysis set allows no more intervals than it has records).
    """
    if not (math.isfinite(c_length) and c_length >= 1):  # NaN would never pass the horizon
        raise ConfigError(f"c_length must be a finite number >= 1, got {c_length}")
    if horizon < start:
        raise ConfigError(f"horizon {horizon} lies before trial start {start}")
    units = (horizon - start) / c_length
    if not (abs(start) + abs(horizon)) / c_length < 2.0**48:  # NaN, inf, or starts floats blur
        raise ConfigError(f"c_length {c_length} cannot partition the span {start} to {horizon}")
    # unit i starts at start + i * c_length (multiply, not accumulate: no float
    # drift); the division may round the count of starts at or before the
    # horizon by one either way, so the rule that places them corrects it
    count = math.floor(units) + 1
    while count > 1 and start + (count - 1) * c_length > horizon:
        count -= 1
    while start + count * c_length <= horizon:
        count += 1
    if max_intervals is not None and count > max_intervals:
        raise ConfigError(
            f"c_length {float(c_length)!r} makes {count} calendar intervals; "
            f"at most {max_intervals} allowed"
        )
    return tuple([start + i * c_length for i in range(count)])


def interval_indices(times: np.ndarray, starts: Sequence[float], horizon: float) -> np.ndarray:
    """1-based index of the half-open interval [start_i, start_{i+1}) holding each time.

    The last interval is closed on the right so that t == horizon maps to it.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < starts[0] or times.max() > horizon):
        raise ConfigError("times outside partition range")
    return np.searchsorted(np.asarray(starts, dtype=float), times, side="right")
