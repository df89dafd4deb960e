"""Command-line front end: simulate, analyze, trend-preview, validate."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import ESTIMATORS, ModelSpec, default_model_set, fit, results_to_csv, results_to_json
from .datagen import TREND_PATTERNS, arms_entered_by, read_csv, slice_for_arm, trend_value
from .design import ConfigError
from .simharness import GridSpec, LAMBDA_PROFILES, rows_to_csv, rows_to_json, run_grid

CONFIG_SCHEMA_VERSION = 1

_SECTION_KEYS = {
    "trial": {"K", "d", "n", "eta0", "sigma", "M", "effect"},
    "trend": {"patterns", "lambda", "profile", "n_p", "psi"},
    "calendar": {"c_length"},
    "run": {"hypotheses", "replicates", "seed", "alpha", "sided", "threads"},
}


class ConfigValidationError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class _Validator:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def require(self, obj: dict, path: str, key: str):
        if key not in obj:
            self.fail(f"{path}.{key}" if path else key, "missing required key")
            return None
        return obj[key]

    def unknown_keys(self, obj: dict, path: str, allowed):
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def number(self, value, path, lo=None, hi=None, integer=False):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, "must be a number")
            return None
        if integer and int(value) != value:
            self.fail(path, "must be an integer")
            return None
        if lo is not None and value < lo:
            self.fail(path, f"must be >= {lo}")
            return None
        if hi is not None and value > hi:
            self.fail(path, f"must be <= {hi}")
            return None
        return int(value) if integer else float(value)

    def number_list(self, value, path, lo=None, integer=False):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = [value]
        if not isinstance(value, list) or not value:
            self.fail(path, "must be a non-empty list of numbers")
            return None
        out = []
        for i, v in enumerate(value):
            n = self.number(v, f"{path}[{i}]", lo=lo, integer=integer)
            if n is None:
                return None
            out.append(n)
        return tuple(out)


def _validate_models(v: _Validator, models) -> tuple[ModelSpec, ...]:
    if not isinstance(models, list) or not models:
        v.fail("models", "must be a non-empty list")
        return ()
    out = []
    for i, entry in enumerate(models):
        path = f"models[{i}]"
        if not isinstance(entry, dict):
            v.fail(path, "must be an object with an 'estimator' key")
            continue
        v.unknown_keys(entry, path, {"estimator", "degree"})
        name = entry.get("estimator")
        if not isinstance(name, str) or name not in ESTIMATORS:
            v.fail(f"{path}.estimator", f"must be one of {', '.join(ESTIMATORS)}")
            continue
        degree = entry.get("degree", 3)
        if degree not in (1, 2, 3):
            v.fail(f"{path}.degree", "must be 1, 2 or 3")
            continue
        # calendar estimators get the real c_length injected per grid cell
        try:
            placeholder = 1 if ESTIMATORS[name].needs_c_length else None
            out.append(ModelSpec(name, c_length=placeholder, spline_degree=degree))
        except ConfigError as exc:
            v.fail(path, str(exc))
    return tuple(out)


def load_config(path) -> tuple[GridSpec, dict]:
    """Parse and validate a scenario-grid config; returns (grid, normalized doc)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigValidationError([f"cannot read config: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"invalid JSON at line {exc.lineno}: {exc.msg}"]) from None
    if not isinstance(doc, dict):
        raise ConfigValidationError(["config must be a JSON object"])

    v = _Validator()
    v.unknown_keys(doc, "", {"schema", "setting", "trial", "trend", "calendar", "models", "run"})
    schema = doc.get("schema")
    if schema != CONFIG_SCHEMA_VERSION:
        v.fail("schema", f"must be {CONFIG_SCHEMA_VERSION}")
    setting = doc.get("setting", "scenario")
    if not isinstance(setting, str) or not setting:
        v.fail("setting", "must be a non-empty string")

    trial = doc.get("trial")
    if not isinstance(trial, dict):
        v.fail("trial", "missing or not an object")
        raise ConfigValidationError(v.errors)
    v.unknown_keys(trial, "trial", _SECTION_KEYS["trial"])
    K = v.number(v.require(trial, "", "K"), "trial.K", lo=2, integer=True)
    d_values = v.number_list(v.require(trial, "", "d"), "trial.d", lo=0, integer=True)
    n = v.number(v.require(trial, "", "n"), "trial.n", lo=2, integer=True)
    M = v.number(v.require(trial, "", "M"), "trial.M", lo=1, integer=True)
    eta0 = v.number(trial.get("eta0", 0.0), "trial.eta0")
    sigma = v.number(trial.get("sigma", 1.0), "trial.sigma", lo=1e-12)
    effect = v.number(trial.get("effect", 0.25), "trial.effect")
    if K is not None and M is not None and M > K:
        v.fail("trial.M", f"must be <= K ({K})")

    trend = doc.get("trend")
    if not isinstance(trend, dict):
        v.fail("trend", "missing or not an object")
        raise ConfigValidationError(v.errors)
    v.unknown_keys(trend, "trend", _SECTION_KEYS["trend"])
    patterns = trend.get("patterns")
    if (
        not isinstance(patterns, list)
        or not patterns
        or any(p not in TREND_PATTERNS for p in patterns)
    ):
        v.fail("trend.patterns", f"must be a non-empty list from {', '.join(TREND_PATTERNS)}")
        patterns = ()
    lambdas = v.number_list(trend.get("lambda", [0.0]), "trend.lambda")
    profile = trend.get("profile", "equal")
    if isinstance(profile, list):
        profile = v.number_list(profile, "trend.profile") or "equal"
    elif profile not in LAMBDA_PROFILES:
        v.fail("trend.profile", f"must be one of {', '.join(LAMBDA_PROFILES)} or a list")
        profile = "equal"
    n_p = trend.get("n_p")
    if n_p is not None:
        n_p = v.number(n_p, "trend.n_p", lo=2, integer=True)
    elif "inverted_u" in patterns:
        v.fail("trend.n_p", "required when patterns include inverted_u")
    psi = trend.get("psi")
    if psi is not None:
        psi = v.number(psi, "trend.psi", lo=1e-9)
    elif "seasonal" in patterns:
        v.fail("trend.psi", "required when patterns include seasonal")

    models = _validate_models(v, doc.get("models"))
    needs_calendar = any(s.kind.needs_c_length for s in models)
    calendar = doc.get("calendar")
    c_lengths: tuple = (None,)
    if calendar is not None:
        if not isinstance(calendar, dict):
            v.fail("calendar", "must be an object")
        else:
            v.unknown_keys(calendar, "calendar", _SECTION_KEYS["calendar"])
            c_lengths = v.number_list(calendar.get("c_length"), "calendar.c_length", lo=1) or (None,)
    elif needs_calendar:
        v.fail("calendar.c_length", "required by calendar-based estimators")

    run = doc.get("run")
    if not isinstance(run, dict):
        v.fail("run", "missing or not an object")
        raise ConfigValidationError(v.errors)
    v.unknown_keys(run, "run", _SECTION_KEYS["run"])
    hypotheses = run.get("hypotheses", ["null"])
    if (
        not isinstance(hypotheses, list)
        or not hypotheses
        or any(h not in ("null", "alternative") for h in hypotheses)
    ):
        v.fail("run.hypotheses", "must be a non-empty list of 'null'/'alternative'")
        hypotheses = ("null",)
    replicates = v.number(run.get("replicates", 1000), "run.replicates", lo=1, integer=True)
    seed = v.number(run.get("seed", 0), "run.seed", integer=True)
    alpha = v.number(run.get("alpha", 0.025), "run.alpha", lo=1e-9, hi=1 - 1e-9)
    sided = run.get("sided", "one_greater")
    if sided not in ("one_greater", "two"):
        v.fail("run.sided", "must be 'one_greater' or 'two'")
    threads = v.number(run.get("threads", 1), "run.threads", lo=1, integer=True)

    if v.errors:
        raise ConfigValidationError(v.errors)

    grid = GridSpec(
        setting=setting, K=K, n=n, M=M, estimators=models,
        d_values=d_values, patterns=tuple(patterns), lambdas=lambdas,
        hypotheses=tuple(hypotheses), c_lengths=c_lengths, profile=profile,
        eta0=eta0, effect=effect, sigma=sigma, n_p=n_p, psi=psi,
        replicates=replicates, seed=seed, alpha=alpha, sided=sided,
    )
    normalized = {
        "schema": CONFIG_SCHEMA_VERSION,
        "setting": setting,
        "trial": {"K": K, "d": list(d_values), "n": n, "eta0": eta0, "sigma": sigma,
                  "M": M, "effect": effect},
        "trend": {"patterns": list(patterns), "lambda": list(lambdas),
                  "profile": profile if isinstance(profile, str) else list(profile),
                  "n_p": n_p, "psi": psi},
        "calendar": {"c_length": list(c_lengths)} if needs_calendar else None,
        "models": [
            {"estimator": s.estimator, "degree": s.spline_degree}
            if s.kind.family == "spline" else {"estimator": s.estimator}
            for s in models
        ],
        "run": {"hypotheses": list(hypotheses), "replicates": replicates, "seed": seed,
                "alpha": alpha, "sided": sided, "threads": threads},
    }
    if normalized["calendar"] is None:
        del normalized["calendar"]
    return grid, normalized


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("PLATFORMTRIAL_THREADS", "1")))
    except ValueError:
        return 1


def cmd_simulate(args) -> int:
    grid, normalized = load_config(args.config)
    if args.reps is not None:
        grid = replace(grid, replicates=args.reps)
        normalized["run"]["replicates"] = args.reps
    if args.seed is not None:
        grid = replace(grid, seed=args.seed)
        normalized["run"]["seed"] = args.seed
    if args.print_config:
        json.dump(normalized, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    threads = args.threads if args.threads is not None else _default_threads()
    rows = run_grid(grid, threads=threads)
    rows_to_csv(rows, args.out)
    if args.json_out:
        rows_to_json(rows, args.json_out)
    for row in rows:
        print(
            f"{row['setting']} {row['hypothesis']} {row['pattern']} "
            f"lambda={row['lambda']} d={row['d']} c_length={row['c_length']} "
            f"{row['estimator']}: reject_rate={row['reject_rate']:.4f} "
            f"(mc_se={row['mc_se']:.4f}) mean_est={row['mean_est']:.4f} "
            f"failures={row['failures']}"
        )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _parse_models(args) -> list[ModelSpec]:
    opts = {"alpha": args.alpha, "sided": args.sided}
    if args.models is None:
        if args.c_length is not None:
            return list(default_model_set(args.c_length, spline_degree=args.spline_degree, **opts))
        return [
            ModelSpec("fixed_period", **opts),
            ModelSpec("spline_period", spline_degree=args.spline_degree, **opts),
            ModelSpec("pooled", **opts),
            ModelSpec("separate", **opts),
        ]
    specs = []
    for name in args.models.split(","):
        name = name.strip()
        if name not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {name!r} in --models")
        calendar = ESTIMATORS[name].needs_c_length
        if calendar and args.c_length is None:
            raise ConfigError(f"{name} requires --c-length")
        specs.append(
            ModelSpec(
                name,
                c_length=args.c_length if calendar else None,
                spline_degree=args.spline_degree,
                **opts,
            )
        )
    return specs


def cmd_analyze(args) -> int:
    dataset = read_csv(args.data)
    if not (dataset.arm == args.arm).any():
        raise ConfigError(f"arm {args.arm} absent from {args.data}")
    analysis_set = slice_for_arm(dataset, args.arm)
    results = [fit(analysis_set, args.arm, spec) for spec in _parse_models(args)]
    print(f"{'estimator':<22} {'estimate':>10} {'std.error':>10} {'p_one':>8} {'p_two':>8}")
    for r in results:
        print(
            f"{r.estimator:<22} {r.theta_hat:>10.4f} {r.se:>10.4f} "
            f"{r.p_one:>8.4f} {r.p_two:>8.4f}"
        )
    if args.out:
        results_to_csv(results, args.out)
        print(f"wrote {len(results)} rows to {args.out}")
    if args.json_out:
        results_to_json(results, args.json_out)
    return 0


def cmd_trend_preview(args) -> int:
    if args.entries:
        try:
            entries = tuple(float(e) for e in args.entries.split(","))
        except ValueError:
            raise ConfigError("--entries must be a comma-separated list of times") from None
    else:
        entries = tuple(args.d * (k - 1) + 1 for k in range(1, args.K + 1))
    j = np.arange(1, args.n_total + 1)
    f = trend_value(
        args.pattern, j, args.lam, args.n_total, n_p=args.n_p, psi=args.psi,
        arms_entered=arms_entered_by(j, entries) if args.pattern == "stepwise" else None,
    )
    f = np.broadcast_to(np.asarray(f, dtype=float), j.shape)
    lines = ["j,f"] + [f"{int(ji)},{float(fi)!r}" for ji, fi in zip(j, f)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    grid, normalized = load_config(args.config)
    if args.print_config:
        json.dump(normalized, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"config OK: {len(grid.cells())} scenario cells, "
              f"{len(grid.estimators)} estimators, {grid.replicates} replicates/cell")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platformtrial",
        description="Simulate platform trials and analyze them with time-adjusted models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario grid from a JSON config")
    p.add_argument("config", help="path to a JSON scenario config")
    p.add_argument("--out", default="results.csv", help="output CSV path")
    p.add_argument("--json-out", default=None, help="optional JSON output path")
    p.add_argument("--reps", type=int, default=None, help="override replicates per cell")
    p.add_argument("--seed", type=int, default=None, help="override the root seed")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: $PLATFORMTRIAL_THREADS or 1)")
    p.add_argument("--print-config", action="store_true",
                   help="print the normalized config and exit without running")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="fit estimators to a dataset CSV (header j,arm,time,response)")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--arm", required=True, type=int, help="evaluated experimental arm")
    p.add_argument("--models", default=None,
                   help="comma-separated estimator names (default: standard battery)")
    p.add_argument("--c-length", type=float, default=None, help="calendar unit length")
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--sided", choices=("one_greater", "two"), default="one_greater")
    p.add_argument("--spline-degree", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--out", default=None, help="optional result CSV path")
    p.add_argument("--json-out", default=None, help="optional result JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("trend-preview", help="emit (j, trend value) pairs for plotting")
    p.add_argument("--pattern", required=True, choices=TREND_PATTERNS)
    p.add_argument("--lam", type=float, default=0.15, help="trend strength")
    p.add_argument("--n-total", type=int, required=True, help="total sample size N")
    p.add_argument("--n-p", type=int, default=None, help="inverted-U turning point")
    p.add_argument("--psi", type=float, default=1.0, help="seasonal cycle count")
    p.add_argument("--entries", default=None,
                   help="comma-separated arm entry times (stepwise pattern)")
    p.add_argument("--K", type=int, default=1, help="arms for derived entries")
    p.add_argument("--d", type=int, default=0, help="entry spacing for derived entries")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_trend_preview)

    p = sub.add_parser("validate", help="validate a scenario config")
    p.add_argument("config", help="path to a JSON scenario config")
    p.add_argument("--print-config", action="store_true",
                   help="print the normalized config")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigValidationError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
