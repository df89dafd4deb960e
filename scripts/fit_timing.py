#!/usr/bin/env python3
"""Time per fit, estimator by estimator, in a parent source tree and this checkout.

Takes the first data-key group of a config's grid (its first hypothesis,
pattern, strength and spacing, with every ``c_length``), generates the
datasets of its first five replicates, and times ``fit`` five times on each
for every distinct spec of the group, each time on a fresh analysis set, so
that every call fits and pays the set's lazily derived parts:

    git archive <parent-commit> --prefix=parent/ | tar -x -C /tmp
    python3 scripts/fit_timing.py /tmp/parent configs/setting2a_desk.json

Prints one line per spec: the estimator label, the ``c_length`` (``-`` for
an estimator without one), and the median microseconds per fit in the
parent tree and in this checkout, with their ratio. A spec whose fits raise
on every set reads ``nan``. Standard error gets one more line for the
group: the median microseconds to fit all of its distinct specs in turn on
a fresh set whose ``planned`` lists them (a tree whose sets have no
``planned`` fits them one by one), which is what a one-worker group pays
per replicate; it reads ``nan`` if a spec raises on every set. A second
line there gives the median microseconds of a ``fit`` call that the set answers
from its kept fits, which is what the later cells of a data-key group pay
per spec: each spec with a result is fitted once, then called again
``KEPT_CALLS`` times per timing. Each tree runs in its own interpreter with
its ``src`` on the path and every BLAS library at one thread, twice, in the
order parent, change, change, parent, and each spec reports the lower of a
tree's two medians, so that a drift in the host's load favours neither
tree. Both trees must generate the same data, which the script checks.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
DATASETS = 5  # analysis sets fitted
REPEATS = 5  # timed fits per set and spec
KEPT_CALLS = 100  # kept-fit reads per timing


def time_fits(config: str, out: str) -> None:
    """Write {"data": fingerprint, "us": [[label, c_length, median us], ...],
    "group_us": median us for the whole group, "kept_us": median us per kept read}."""
    import inspect
    import itertools

    from platformtrial.analysis import fit, slice_for_arm
    from platformtrial.cli import load_config
    from platformtrial.datagen import generate_trial
    from platformtrial.simharness import replicate_seed, scenario_data_key

    grid, _ = load_config(config)
    cells = grid.cells()
    key = scenario_data_key(cells[0])
    group = list(itertools.takewhile(lambda c: scenario_data_key(c) == key, cells))
    first = group[0]
    M = first.config.M
    datasets = [generate_trial(first.config, first.trend, first.hypothesis,
                               seed=replicate_seed(first, i)) for i in range(DATASETS)]
    specs = list(dict.fromkeys(spec for cell in group for spec in cell.estimators))
    made_for_plan = "planned" in inspect.signature(slice_for_arm).parameters

    def fresh_set(dataset, plan):
        """A new set that plans ``plan``: made for it, or, in a tree whose sets
        take no ``planned`` argument, told after it is made."""
        if made_for_plan:
            return slice_for_arm(dataset, M, planned=plan)
        fresh = slice_for_arm(dataset, M)
        getattr(fresh, "planned", []).extend(plan)
        return fresh

    def median_us(fitted, plan=()):
        """Median us to fit ``fitted`` in turn on a fresh set that plans ``plan``."""
        times = []
        for dataset in datasets:
            for _ in range(REPEATS):
                fresh = fresh_set(dataset, plan)
                start = time.perf_counter()
                try:
                    for spec in fitted:
                        fit(fresh, M, spec)
                except Exception:  # a failing fit is not timed
                    continue
                times.append(time.perf_counter() - start)
        return 1e6 * statistics.median(times) if times else float("nan")

    def kept_us():
        """Median us of a ``fit`` call answered from the set's kept result."""
        times = []
        for dataset in datasets:
            fitted = fresh_set(dataset, specs)
            for spec in specs:
                try:
                    fit(fitted, M, spec)
                except Exception:  # a kept failure is no kept result
                    continue
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    for _ in range(KEPT_CALLS):
                        fit(fitted, M, spec)
                    times.append((time.perf_counter() - start) / KEPT_CALLS)
        return 1e6 * statistics.median(times) if times else float("nan")

    rows = [[spec.label, spec.c_length if spec.kind.needs_c_length else None, median_us([spec])]
            for spec in specs]
    group_us = median_us(specs, plan=specs)
    fingerprint = repr(sum(float(dataset.y.sum()) for dataset in datasets))
    with open(out, "w") as fh:
        json.dump({"data": fingerprint, "us": rows, "group_us": group_us, "kept_us": kept_us()},
                  fh)


def run_stage(tree: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    subprocess.run([sys.executable, __file__, "--stage", *args], env=env, check=True)
    with open(args[-1]) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--stage"]:
        time_fits(*sys.argv[2:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent source tree")
    ap.add_argument("config", help="grid config JSON")
    args = ap.parse_args(argv)
    config = os.path.abspath(args.config)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    stages = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, side in enumerate(("parent", "change", "change", "parent")):
            out = run_stage(trees[side], config, os.path.join(tmp, str(i)))
            stages.append((side, out))
    if len({out["data"] for _, out in stages}) != 1:
        raise SystemExit("fit_timing: the two trees generated different data")
    medians: dict = {}
    for side, out in stages:
        for label, c_length, us in out["us"]:
            if not math.isnan(us):
                medians.setdefault((label, c_length, side), []).append(us)
    print(f"{'estimator':<22} {'c_length':>8} {'us_parent':>10} {'us_change':>10} {'ratio':>6}")
    for label, c_length, _ in stages[0][1]["us"]:
        us_parent, us_change = (min(medians.get((label, c_length, side), [math.nan]))
                                for side in ("parent", "change"))
        c = "-" if c_length is None else f"{c_length:g}"
        print(f"{label:<22} {c:>8} {us_parent:>10.1f} {us_change:>10.1f} "
              f"{us_change / us_parent:>6.3f}")
    for label, key in ((f"group ({len(stages[0][1]['us'])} specs)", "group_us"),
                       ("kept read", "kept_us")):
        us_parent, us_change = (min(out[key] for s, out in stages if s == side)
                                for side in ("parent", "change"))
        print(f"{label:<22} {'-':>8} {us_parent:>10.2f} {us_change:>10.2f} "
              f"{us_change / us_parent:>6.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
