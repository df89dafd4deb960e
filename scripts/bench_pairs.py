#!/usr/bin/env python3
"""Paired benchmark runs of a parent source tree and this checkout.

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, in a fresh
interpreter with the tree as working directory, for the run length that
run.py sets. The parent runs first in even-numbered pairs and this checkout
in odd-numbered ones, so a drift in the host's load favours neither side:

    git archive <parent-commit> --prefix=parent/ | tar -x -C /tmp
    python3 scripts/bench_pairs.py /tmp/parent --workload calendar_sweep --pairs 10
    python3 scripts/bench_pairs.py /tmp/parent --workload calendar_sweep --pairs 10 --seed 4242

Prints one JSON object: every run's metric values, ``correct`` and
``failed``, in the order the runs were made; and, per end-to-end metric of
BENCHMARK.json, each side's values, their quartiles (q1, median, q3; the
inclusive method) and the number of pairs the change wins by the metric's
``better`` direction. The metric block is keyed by the workload, with
``@seed<S>`` appended when ``--seed`` is given, as in BENCH_7.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """``correct``, ``failed`` and the metric values from run.py's last output line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if not isinstance(result, dict) or "correct" not in result:
        raise ValueError(f"no run.py result line in its output: {stdout[-500:]!r}")
    return {
        "correct": bool(result["correct"]),
        "failed": int(result["failed"]),
        "metrics": {name: float(m["value"]) for name, m in result["metrics"].items()},
    }


def run_once(tree: Path, workload: str, seed: int | None) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    # a run whose checks fail exits 1 but still prints its result line
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"bench_pairs: {tree}: {exc}\n{proc.stderr}") from None


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' values in pair order, quartiles and the change's wins.

    A metric is left out when some run reports no value for it (a run that
    fails its checks reports no metrics).
    """
    out = {}
    for name, direction in better.items():
        values = {side: [r["metrics"].get(name) for r in runs if r["side"] == side] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum(c > p if direction == "higher" else c < p for p, c in pairs)
        out[name] = {
            "parent": values["parent"],
            "change": values["change"],
            "parent_q1_median_q3": statistics.quantiles(values["parent"], n=4, method="inclusive"),
            "change_q1_median_q3": statistics.quantiles(values["change"], n=4, method="inclusive"),
            "change_wins": f"{wins}/{len(pairs)}",
        }
    return out


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int | None) -> dict:
    trees = {"parent": parent, "change": change}
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {e["name"]: e["better"] for e in spec["end_to_end"]}
    runs = []
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_once(trees[side], workload, seed)
            runs.append({"pair": pair, "side": side, **result})
            print(f"pair {pair} {side}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr)
    key = workload if seed is None else f"{workload}@seed{seed}"
    command = f"python3 perfbench/run.py --workload {workload} --trace 0"
    return {
        "command": command + ("" if seed is None else f" --seed {seed}"),
        "pairs": pairs,
        "end_to_end": {key: summarize(runs, better)},
        "all_runs_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "runs": runs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent source tree")
    ap.add_argument("--workload", required=True, help="perfbench workload name")
    ap.add_argument("--pairs", type=int, required=True, help="number of run pairs")
    ap.add_argument("--seed", type=int, default=None, help="root seed passed to run.py")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2: one pair gives no quartiles")
    result = run_pairs(args.parent.resolve(), ROOT, args.workload, args.pairs, args.seed)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
