#!/usr/bin/env python3
"""Scenario-grid benchmark for platformtrial.

Runs one bundled scenario grid through ``load_config`` and ``run_grid`` for
about ``--seconds`` seconds, checks the result CSVs, and prints the metrics
as one JSON object on the last line of standard output:

    python3 perfbench/run.py --workload calendar_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run whose grid passes alternate between traced and untraced.
See perfbench/README.md for the workloads, the metrics and the checks.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
OUT_DIR = ROOT / ".bench_build" / "perfbench"


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str  # bundled config, relative to the repository root
    workers: int  # fixed worker count passed to run_grid
    reps: int  # replicates per cell in one grid pass


# Why each workload exists: perfbench/README.md. calendar_sweep runs 3 reps
# per cell so that per-cell aggregation stays a small share of its 4 ms
# replicates; interaction_2w runs 4 so that each worker gets 2 per cell.
WORKLOADS = {
    "calendar_sweep": Workload("configs/setting2a_desk.json", workers=1, reps=3),
    "spline_k10": Workload("configs/setting1b_desk.json", workers=1, reps=1),
    "interaction_2w": Workload("configs/setting3_desk.json", workers=2, reps=4),
}

# Every label ``ModelSpec.label`` gives the estimators of the workloads.
ESTIMATOR_LABELS = (
    "fixed_period", "fixed_calendar", "spline_period_q3", "spline_calendar_q3",
    "mixedint_period", "mixedint_calendar", "separate",
)
REML_LABELS = ("mixedint_period", "mixedint_calendar")

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PLATFORMTRIAL_THREADS")
SETUP_SAMPLES = 3

# Result-CSV columns compared with tolerance; all others must match as text.
FLOAT_COLUMNS = ("reject_rate", "mc_se", "mean_est", "emp_se", "bias")
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

# Timed in a fresh interpreter: import, load_config and GridSpec.cells().
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dataclasses
import platformtrial
from platformtrial.cli import load_config
grid, _ = load_config(sys.argv[2])
cells = dataclasses.replace(grid, seed=int(sys.argv[3])).cells()
print(time.perf_counter() - t0, len(cells))
"""


class CheckFailed(Exception):
    """The program's output failed one of the benchmark's checks."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _openblas_libraries() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.argtypes = config.argtypes = []
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                    info["threads"] = threads()
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    thread_env = {v: os.environ.get(v) for v in THREAD_VARIABLES}
    openblas = _openblas_libraries()
    nproc = len(os.sched_getaffinity(0))
    key = ";".join(
        [f"nproc={nproc}"]
        + [f"{v}={thread_env[v] or 'unset'}" for v in THREAD_VARIABLES]
        + [f"openblas_threads={','.join(str(lib.get('threads')) for lib in openblas)}"]
    )
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "thread_variables": thread_env,
        # runs are comparable only when this key is equal
        "thread_settings": key,
        "default_thread_settings": all(val is None for val in thread_env.values()),
    }


# ---------------------------------------------------------------------------
# Grid passes and output checks
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def grid_pass(simharness, grid, workers: int) -> tuple[bytes, float, float, list[dict]]:
    """Run the grid once; return (result CSV, wall s, CPU s, rows)."""
    path = OUT_DIR / f"result-{os.getpid()}.csv"
    c0, t0 = cpu_seconds(), time.perf_counter()
    rows = simharness.run_grid(grid, threads=workers)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    simharness.rows_to_csv(rows, path)
    data = path.read_bytes()
    path.unlink()
    return data, wall, cpu, rows


def guarded_pass(tracer, simharness, grid, workers: int):
    """``grid_pass`` with ``tracer`` installed, and the tracer's snapshot.

    Fails when a fit raised an exception that is not a known statistical failure.
    """
    with tracer:
        out = grid_pass(simharness, grid, workers)
    snap = tracer.snapshot()
    if snap["unknown_errors"]:
        raise CheckFailed(f"fits raised unknown exceptions: {snap['unknown_errors']}")
    return out, snap


def check_rows(rows: list[dict], n_rows: int, reps: int):
    if len(rows) != n_rows:
        raise CheckFailed(f"expected {n_rows} result rows, got {len(rows)}")
    for row in rows:
        if row["reps"] + row["failures"] != reps:
            raise CheckFailed(f"reps + failures != {reps} in row {row}")
        rate = row["reject_rate"]
        if row["reps"] and not 0.0 <= rate <= 1.0:
            raise CheckFailed(f"reject_rate outside [0, 1] in row {row}")


def _same_float(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= FLOAT_ATOL + FLOAT_RTOL * abs(y)


def compare_with_reference(data: bytes, reference: Path):
    """Integer and text columns must match exactly, float columns within tolerance."""
    got = list(csv.DictReader(io.StringIO(data.decode())))
    want = list(csv.DictReader(io.StringIO(reference.read_text())))
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} result rows, reference {reference.name} has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys():
            raise CheckFailed(f"result columns {list(g)} differ from the reference's {list(w)}")
        for col in w:
            ok = _same_float(g[col], w[col]) if col in FLOAT_COLUMNS else g[col] == w[col]
            if not ok:
                raise CheckFailed(
                    f"row {i + 2} column {col}: {g[col]!r}, reference {w[col]!r} ({reference.name})"
                )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def measure_setup(config: Path, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config), str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"setup subprocess failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[0]))
    return statistics.median(samples)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def layer_metrics(snaps: list[dict], walls: list[float], workers: int) -> dict[str, float]:
    """Per-pass layer metrics, as the median over the traced passes."""
    def per_pass(fn):
        return statistics.median(fn(s, w) for s, w in zip(snaps, walls))

    def calls(name):
        return per_pass(lambda s, w: s["calls"].get(name, 0))

    def busy(name):
        return per_pass(lambda s, w: s["busy"].get(name, 0.0))

    def self_s(name):
        return per_pass(lambda s, w: s["busy"].get(name, 0.0) - s["child"].get(name, 0.0))

    def share(name):
        return per_pass(lambda s, w: s["busy"].get(name, 0.0) / (workers * w))

    def count(name):
        return per_pass(lambda s, w: s["counts"].get(name, 0))

    def ratio(num, den):
        return per_pass(lambda s, w: num(s) / den(s) if den(s) else 0.0)

    m: dict[str, float] = {}
    for name in ("datagen.generate_trial", "datagen.slice_for_arm"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["datagen.generate_trial.share_of_wall"] = share("datagen.generate_trial")
    m["datagen.useful_ratio"] = ratio(
        lambda s: len(s["data_keys"]), lambda s: s["calls"].get("datagen.generate_trial", 0)
    )

    fit_names = [f"analysis.fit.{est}" for est in ESTIMATOR_LABELS]
    for name in fit_names:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.self_s"] = self_s(name)
    m["analysis.fit.useful_ratio"] = ratio(
        lambda s: len(s["fit_keys"]),
        lambda s: sum(v for k, v in s["calls"].items() if k.startswith("analysis.fit.")),
    )
    from layertrace import KNOWN_FIT_ERROR_NAMES  # importable only after load_package()

    for cls in KNOWN_FIT_ERROR_NAMES:
        m[f"analysis.fit.errors.{cls}"] = count(f"analysis.fit.errors.{cls}")
    m["analysis.fit.nonconverged"] = count("analysis.fit.nonconverged")

    for name in ("build_design", "ols_fit", "wald_test"):
        m[f"regression_engine.{name}.calls"] = calls(f"regression_engine.{name}")
        m[f"regression_engine.{name}.busy_s"] = busy(f"regression_engine.{name}")
    for name in ("build_design", "ols_fit"):
        m[f"regression_engine.{name}.share_of_wall"] = share(f"regression_engine.{name}")
    m["spline.basis_matrix.calls"] = calls("spline.basis_matrix")
    m["spline.basis_matrix.busy_s"] = busy("spline.basis_matrix")

    for name in ("build_random_design", "reml_fit"):
        m[f"mixed_model.{name}.calls"] = calls(f"mixed_model.{name}")
        m[f"mixed_model.{name}.busy_s"] = busy(f"mixed_model.{name}")
    m["mixed_model.reml_fit.share_of_wall"] = share("mixed_model.reml_fit")
    for est in REML_LABELS:
        m[f"mixed_model.reml_evals_per_fit.{est}"] = ratio(
            lambda s, est=est: sum(s["reml_evals"].get(est, ())),
            lambda s, est=est: len(s["reml_evals"].get(est, ())),
        )
    m["mixed_model.boundary_hits"] = count("mixed_model.boundary_hits")
    m["mixed_model.nonconverged"] = count("mixed_model.nonconverged")

    rr = "simharness.run_replicate"
    m["simharness.cells"] = calls("simharness.run_scenario")
    m[f"{rr}.calls"] = calls(rr)
    m[f"{rr}.busy_s"] = busy(rr)
    m[f"{rr}.self_s"] = self_s(rr)
    m[f"{rr}.share_of_wall"] = share(rr)
    replicate_ms = [x for s in snaps for x in s["replicate_ms"]]
    m[f"{rr}.ms_p50"] = statistics.median(replicate_ms) if replicate_ms else 0.0
    m[f"{rr}.ms_p99"] = _percentile(replicate_ms, 99)
    m["simharness.run_scenario.self_s"] = self_s("simharness.run_scenario")
    m["simharness.pools_started"] = count("simharness.pools_started")
    m["simharness.worker_busy_s"] = count("simharness.worker_busy_s")
    m["simharness.worker_utilization"] = (
        per_pass(lambda s, w: s["counts"].get("simharness.worker_busy_s", 0.0) / (workers * w))
        if workers > 1 else 0.0
    )
    m["simharness.grid_wall_s"] = statistics.median(walls)
    return m


def metric_units() -> dict[str, tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        **{e["name"]: (e["unit"], "end_to_end") for e in spec["end_to_end"]},
        **{e["name"]: (e["unit"], "per_layer") for e in spec["per_layer"]},
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="root seed of the grid (default: the config's seed)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="write the workload's reference CSV (config seed, 1 worker) and exit")
    return p.parse_args(argv)


def load_package():
    if not (SRC / "platformtrial" / "__init__.py").is_file():
        sys.exit(f"perfbench: no platformtrial package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import platformtrial

    if Path(platformtrial.__file__).resolve().parent != (SRC / "platformtrial").resolve():
        sys.exit(f"perfbench: imported platformtrial from {platformtrial.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    config = ROOT / wl.config
    if not config.is_file():
        sys.exit(f"perfbench: missing config {config}")
    load_package()
    from platformtrial import simharness
    from platformtrial.cli import load_config

    import layertrace

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    reference = REFERENCE / f"{args.workload}.csv"
    t0 = time.perf_counter()
    grid, _ = load_config(config)
    load_config_s = time.perf_counter() - t0
    ref_grid = dataclasses.replace(grid, replicates=wl.reps)
    if args.write_reference:
        data, *_ = grid_pass(simharness, ref_grid, 1)
        reference.parent.mkdir(exist_ok=True)
        reference.write_bytes(data)
        print(f"wrote {reference}")
        return 0

    env = environment()
    print(json.dumps({"environment": env}))
    seed = grid.seed if args.seed is None else args.seed
    run_grid_spec = dataclasses.replace(ref_grid, seed=seed)
    n_cells = len(run_grid_spec.cells())
    n_rows = n_cells * len(grid.estimators)
    fits_per_pass = n_rows * wl.reps

    units = metric_units()
    correct, attempted, failed = True, 0, 0
    metrics: dict[str, float] = {}
    try:
        setup_s = measure_setup(config, seed)

        # Output check at the config's seed; also warms caches before timing.
        (data, *_), _ = guarded_pass(layertrace.Tracer(timed=False), simharness, ref_grid, wl.workers)
        compare_with_reference(data, reference)

        walls, cpus, traced_walls, snaps = [], [], [], []
        first = None
        t_start = time.perf_counter()
        n = 0
        # at least two passes; no pass that would end after --seconds
        while n < 2 or (
            time.perf_counter() - t_start + statistics.median(walls + traced_walls) <= args.seconds
        ):
            traced = args.trace == 1 and n % 2 == 0
            (data, wall, cpu, rows), snap = guarded_pass(
                layertrace.Tracer(timed=traced), simharness, run_grid_spec, wl.workers
            )
            check_rows(rows, n_rows, wl.reps)
            if first is None:
                first = data
            elif data != first:
                raise CheckFailed("a grid pass gave a different CSV than the first pass")
            if traced:
                fit_calls = sum(v for k, v in snap["calls"].items() if k.startswith("analysis.fit."))
                if fit_calls != fits_per_pass:
                    raise CheckFailed(f"traced {fit_calls} fits, expected {fits_per_pass}")
                traced_walls.append(wall)
                snaps.append(snap)
            else:
                walls.append(wall)
                cpus.append(cpu)
                attempted += fits_per_pass
                failed += sum(row["failures"] for row in rows)
            n += 1

        if wl.workers > 1:
            one_worker, *_ = grid_pass(simharness, run_grid_spec, 1)
            if one_worker != first:
                raise CheckFailed(f"{wl.workers}-worker CSV differs from the 1-worker CSV")

        cell_reps = n_cells * wl.reps
        if args.trace == 0:
            metrics = {
                "cell_reps_per_s": statistics.median(cell_reps / w for w in walls),
                "cpu_ms_per_cell_rep": statistics.median(1000.0 * c / cell_reps for c in cpus),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "fit_success_rate": 1.0 - failed / attempted,
            }
        else:
            metrics = layer_metrics(snaps, traced_walls, wl.workers)
            metrics["cli.load_config.calls"] = 1
            metrics["cli.load_config.busy_s"] = load_config_s
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_share"] = overhead / statistics.median(walls)
        kind = "end_to_end" if args.trace == 0 else "per_layer"
        expected = {name for name, (_, k) in units.items() if k == kind}
        if set(metrics) != expected:
            raise CheckFailed(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ expected)}")
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name][0]}")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name][0]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
