#!/usr/bin/env python3
"""Grid-CSV comparison of a parent source tree and this checkout.

Runs ``platformtrial simulate`` on every bundled config (``configs/*.json``
of this checkout) at ``--threads`` 1 and 2, once with each tree's ``src`` on
the path, and compares this checkout's CSV with the parent's at the same
worker count:

    git archive <parent-commit> --prefix=parent/ | tar -x -C /tmp
    python3 scripts/grid_cmp.py /tmp/parent --reps 2
    python3 scripts/grid_cmp.py /tmp/parent --reps 2 --seed 4242

``--config NAME`` and ``--threads N`` (each repeatable) run only those
configs and worker counts, e.g. for the peak RSS of one config at many
replicates:

    python3 scripts/grid_cmp.py /tmp/parent --reps 1000 --config setting2a_desk --threads 1

Prints one line per config and worker count: whether the two CSVs are
byte-identical, each tree's peak RSS in MB (the largest ``ru_maxrss`` of the
simulating process and the workers it ran, from ``os.wait4``) and, where the
CSVs are not identical, the largest deviation of a float
column in units of perfbench's tolerance (FLOAT_ATOL + FLOAT_RTOL * |parent|,
from ``perfbench/run.py``) with the column and estimator where it occurs,
whether the text and integer columns are equal, and whether ``reject_rate``
is equal. A row count that differs is reported as such.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import FLOAT_ATOL, FLOAT_COLUMNS, FLOAT_RTOL  # noqa: E402

THREADS = (1, 2)


def simulate(tree: Path, config: Path, threads: int, reps: int,
             seed: int | None) -> tuple[bytes, float]:
    """The grid CSV that ``tree``'s package writes for ``config``, and the
    run's peak RSS in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid.csv"
        cmd = [sys.executable, "-m", "platformtrial.cli", "simulate", str(config),
               "--out", str(out), "--threads", str(threads), "--reps", str(reps)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        return out.read_bytes(), usage.ru_maxrss / 1024  # Linux reports KiB


def deviation(change: str, parent: str) -> float:
    """|change - parent| in units of perfbench's float tolerance; NaN equals NaN."""
    x, y = float(change), float(parent)
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return abs(x - y) / (FLOAT_ATOL + FLOAT_RTOL * abs(y))


def compare(change: bytes, parent: bytes) -> dict:
    """How this checkout's grid CSV differs from the parent's."""
    if change == parent:
        return {"identical": True}
    got = list(csv.DictReader(io.StringIO(change.decode())))
    want = list(csv.DictReader(io.StringIO(parent.decode())))
    if len(got) != len(want) or any(g.keys() != w.keys() for g, w in zip(got, want)):
        return {"identical": False, "rows": f"{len(got)} vs {len(want)} rows or other columns"}
    worst = (0.0, "-", "-")
    for g, w in zip(got, want):
        for col in FLOAT_COLUMNS:
            dev = deviation(g[col], w[col])
            if dev > worst[0]:
                worst = (dev, col, w["estimator"])
    return {
        "identical": False,
        "max_dev_tol": worst[0],
        "column": worst[1],
        "estimator": worst[2],
        "other_columns_equal": all(
            g[col] == w[col] for g, w in zip(got, want) for col in w if col not in FLOAT_COLUMNS
        ),
        "reject_rate_equal": all(g["reject_rate"] == w["reject_rate"] for g, w in zip(got, want)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent source tree")
    ap.add_argument("--reps", type=int, default=2, help="replicates per cell (default 2)")
    ap.add_argument("--seed", type=int, default=None, help="override the root seed")
    ap.add_argument("--config", action="append", help="only this bundled config (repeatable)")
    ap.add_argument("--threads", type=int, action="append",
                    help="only this worker count (repeatable; default 1 and 2)")
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    print(f"{'config':<16} {'threads':>7} {'identical':>9} {'rss_mb':>8} {'parent_rss_mb':>13} "
          f"{'max_dev_tol':>11} {'column':>11} {'estimator':>20} {'other_equal':>11} "
          f"{'reject_equal':>12}")
    configs = sorted((ROOT / "configs").glob("*.json"))
    for config in [c for c in configs if args.config is None or c.stem in args.config]:
        for threads in args.threads or THREADS:
            (change, rss), (parent_csv, parent_rss) = (
                simulate(tree, config, threads, args.reps, args.seed) for tree in (ROOT, parent))
            result = compare(change, parent_csv)
            if result["identical"]:
                cells = ("yes", "-", "-", "-", "-", "-")
            elif "rows" in result:
                cells = ("no", "-", "-", "-", result["rows"], "-")
            else:
                cells = ("no", f"{result['max_dev_tol']:.3g}", result["column"],
                         result["estimator"], str(result["other_columns_equal"]).lower(),
                         str(result["reject_rate_equal"]).lower())
            print(f"{config.stem:<16} {threads:>7} {cells[0]:>9} {rss:>8.1f} {parent_rss:>13.1f} "
                  f"{cells[1]:>11} {cells[2]:>11} {cells[3]:>20} {cells[4]:>11} {cells[5]:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
