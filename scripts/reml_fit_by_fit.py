#!/usr/bin/env python3
"""Fit-by-fit comparison of REML between a parent source tree and a change.

Runs a config's grid at one worker with the parent tree and captures the
inputs (X, groups, y, covariance structure) of every ``reml_fit`` call. Each
captured fit is then refitted with both trees, and both trees' estimates
(gamma, rho) are scored with the parent tree's objective, so the comparison
judges where each search stops, not how each tree rounds the objective:

    git archive <parent-commit> --prefix=parent/ | tar -x -C /tmp
    python3 scripts/reml_fit_by_fit.py /tmp/parent configs/setting2b_desk.json --reps 2
    python3 scripts/reml_fit_by_fit.py /tmp/parent configs/setting2b_desk.json --reps 2 --seed 4242

Prints, per covariance structure: the fit count, the number of fits whose
-2 REML under the change is worse than the parent's by more than 1e-9, the
worst such gap (change minus parent; negative when the change is better on
every fit), the number better by more than 1e-9, each tree's non-converged
and failed (raising) fits, each tree's boundary fits (gamma at or below
``mixed_model.BOUNDARY_GAMMA``), each tree's mean and maximum objective
evaluations per successful fit (``MixedFit.iterations``), and each tree's
median wall time per refit in ms. Each stage runs in its own interpreter
with that tree's ``src`` on the path. The refits run in ``CHUNKS`` contiguous
chunks, the two trees alternating chunk by chunk and taking turns to go
first, so that drift in the host's speed reaches both trees' times alike.

The refits share the parent tree's inputs, so they cannot see a change to
how those inputs are built (the random-effect codes, say). So the grid also
runs once with each tree, and standard error gets a second table, one line
per estimator: the ``fit`` calls, how many of them differ between the trees
(one fails and the other not, or theta-hat or its SE moves by more than
1e-9 relative), the largest such relative move, and each tree's failed
calls.
"""
from __future__ import annotations

import argparse
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9
CHUNKS = 8


def load(path: str):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def dump(obj, path: str) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh)


def capture(config: str, reps: str, seed: str, out: str, results_out: str) -> None:
    """Run the grid at one worker, pickle every reml_fit call's inputs to
    ``out`` and every fit call's result to ``results_out``."""
    from platformtrial import mixed_model

    fits = []
    original = mixed_model.reml_fit

    def recorded(X, groups, y, cov_structure="independent", columns=None):
        fits.append((X.copy(), groups.copy(), y.copy(), cov_structure))
        return original(X, groups, y, cov_structure=cov_structure, columns=columns)

    mixed_model.reml_fit = recorded
    fit_results(config, reps, seed, results_out)
    dump(fits, out)


def fit_results(config: str, reps: str, seed: str, out: str) -> None:
    """Run the grid at one worker and pickle (estimator, (theta_hat, se) or
    None where it raised) for every fit call, in call order.

    ``reps`` and ``seed`` override the config's unless they are empty.
    """
    from platformtrial import simharness
    from platformtrial.cli import load_config

    grid, _ = load_config(config)
    if reps:
        grid = replace(grid, replicates=int(reps))
    if seed:
        grid = replace(grid, seed=int(seed))
    results = []
    original = simharness.fit

    def recorded(data, m, spec):
        try:
            r = original(data, m, spec)
        except Exception:
            results.append((spec.label, None))
            raise
        results.append((spec.label, (r.theta_hat, r.se)))
        return r

    simharness.fit = recorded
    simharness.run_grid(grid, threads=1)
    dump(results, out)


def compare_fits(parent_path: str, change_path: str) -> None:
    """Print the per-estimator comparison of two trees' fit results to stderr."""
    parent, change = load(parent_path), load(change_path)
    if [label for label, _ in parent] != [label for label, _ in change]:
        raise SystemExit("reml_fit_by_fit: the two trees made different fit calls")
    rows: dict = {}
    for (label, a), (_, b) in zip(parent, change):
        row = rows.setdefault(label, [0, 0, 0.0, 0, 0])
        row[0] += 1
        row[3] += a is None
        row[4] += b is None
        if a is None or b is None:
            row[1] += (a is None) != (b is None)
            continue
        moves = [abs(x - y) / abs(x) if x else abs(y) for x, y in zip(a, b)]
        row[1] += max(moves) > TOL
        row[2] = max(row[2], *moves)
    print(f"{'estimator':<22} {'fits':>5} {'differ':>6} {'max_rel':>9} "
          f"{'failed_parent':>13} {'failed_change':>13}", file=sys.stderr)
    for label, (fits, differ, max_rel, failed_parent, failed_change) in rows.items():
        print(f"{label:<22} {fits:>5} {differ:>6} {max_rel:>9.2g} "
              f"{failed_parent:>13} {failed_change:>13}", file=sys.stderr)


def refit(fits_path: str, out: str, chunk: str) -> None:
    """Refit chunk ``chunk`` of ``CHUNKS`` of the captured fits: (gamma, rho,
    converged, evaluations), or None where it fails, each with the refit's
    wall time in seconds.

    A known fit failure counts as failed; any other exception stops the
    comparison.
    """
    import numpy as np

    from platformtrial import blas
    from platformtrial.design import ConfigError
    from platformtrial.mixed_model import reml_fit
    from platformtrial.regression_engine import RankDeficiencyError

    fits = load(fits_path)
    c = int(chunk)
    results = []
    with blas.single_thread():  # as the grid runs its fits
        for X, groups, y, structure in fits[len(fits) * c // CHUNKS:len(fits) * (c + 1) // CHUNKS]:
            start = time.perf_counter()
            try:
                fit = reml_fit(X, groups, y, cov_structure=structure)
            except (ConfigError, RankDeficiencyError, np.linalg.LinAlgError):
                results.append((None, time.perf_counter() - start))
            else:
                elapsed = time.perf_counter() - start
                estimate = (fit.sigma2_random / fit.sigma2, fit.rho or 0.0, fit.converged,
                            fit.iterations)
                results.append((estimate, elapsed))
    dump(results, out)


def score(fits_path: str, parent_path: str, change_path: str) -> None:
    """Score both trees' estimates with this tree's objective and print the table."""
    from platformtrial.mixed_model import BOUNDARY_GAMMA, _RemlWorkspace

    fits, parent_runs, change_runs = (load(path) for path in (fits_path, parent_path, change_path))
    parent, change = ([estimate for estimate, _ in runs] for runs in (parent_runs, change_runs))
    print(f"{'structure':<12} {'fits':>5} {'worse':>5} {'worst_gap':>10} {'better':>6} "
          f"{'nonconv_parent':>14} {'nonconv_change':>14} {'failed_parent':>13} {'failed_change':>13} "
          f"{'boundary_parent':>15} {'boundary_change':>15} "
          f"{'evals_mean_parent':>17} {'evals_mean_change':>17} "
          f"{'evals_max_parent':>16} {'evals_max_change':>16} "
          f"{'ms_p50_parent':>13} {'ms_p50_change':>13}")
    for structure in sorted({fit[3] for fit in fits}):
        rows = [i for i, fit in enumerate(fits) if fit[3] == structure]
        gaps = []
        for i in rows:
            if parent[i] is None or change[i] is None:
                continue
            work = _RemlWorkspace(*fits[i][:3])
            a, b = (work.neg2ll(gamma, rho, structure) for gamma, rho, *_ in (parent[i], change[i]))
            gaps.append(b - a)
        nonconv = [sum(1 for i in rows if r[i] is not None and not r[i][2]) for r in (parent, change)]
        failed = [sum(1 for i in rows if r[i] is None) for r in (parent, change)]
        boundary = [sum(1 for i in rows if r[i] is not None and r[i][0] <= BOUNDARY_GAMMA)
                    for r in (parent, change)]
        evals = [[r[i][3] for i in rows if r[i] is not None] or [0] for r in (parent, change)]
        ms = [1e3 * statistics.median(runs[i][1] for i in rows) for runs in (parent_runs, change_runs)]
        worst = f"{max(gaps):.3g}" if gaps else "-"
        print(f"{structure:<12} {len(rows):>5} {sum(g > TOL for g in gaps):>5} {worst:>10} "
              f"{sum(g < -TOL for g in gaps):>6} {nonconv[0]:>14} {nonconv[1]:>14} "
              f"{failed[0]:>13} {failed[1]:>13} {boundary[0]:>15} {boundary[1]:>15} "
              f"{statistics.mean(evals[0]):>17.2f} {statistics.mean(evals[1]):>17.2f} "
              f"{max(evals[0]):>16} {max(evals[1]):>16} {ms[0]:>13.3f} {ms[1]:>13.3f}")


def run_stage(tree: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, "--stage", *args], env=env, check=True)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--stage"]:
        stage, *args = sys.argv[2:]
        {"capture": capture, "fits": fit_results, "refit": refit, "score": score}[stage](*args)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent source tree")
    ap.add_argument("config", help="grid config JSON")
    ap.add_argument("--reps", type=int, default=None, help="override replicates per cell")
    ap.add_argument("--seed", type=int, default=None, help="override the root seed")
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        fits, res_parent, res_change, grid_parent, grid_change = (
            os.path.join(tmp, f) for f in ("fits", "parent", "change", "grid_parent", "grid_change"))
        grid = (os.path.abspath(args.config),
                *("" if v is None else str(v) for v in (args.reps, args.seed)))
        run_stage(parent, "capture", *grid, fits, grid_parent)
        run_stage(ROOT, "fits", *grid, grid_change)
        trees = [(parent, res_parent), (ROOT, res_change)]
        for c in range(CHUNKS):
            for tree, out in trees[::-1] if c % 2 else trees:
                run_stage(tree, "refit", fits, f"{out}.{c}", str(c))
        for _, out in trees:
            dump([r for c in range(CHUNKS) for r in load(f"{out}.{c}")], out)
        run_stage(parent, "score", fits, res_parent, res_change)
        compare_fits(grid_parent, grid_change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
