"""Command-line front end: simulate, analyze, trend-preview, validate."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from .analysis import (
    ESTIMATORS, FIT_FAILURES, ModelSpec, default_model_set, fit, results_to_csv, results_to_json,
    slice_for_arm,
)
from .datagen import TREND_PATTERNS, arms_entered_by, read_csv, trend_value
from .design import ConfigError, max_enrollment
from .simharness import (
    GridSpec, LAMBDA_PROFILES, lambda_multipliers, rows_to_csv, rows_to_json, run_grid,
)
from .spline import check_degree

CONFIG_SCHEMA_VERSION = 1
# Patients a trial may enroll (by max_enrollment) and a trend preview's length:
# generating and slicing 10^6 patients takes ~0.2 s and 124 MB of peak RSS.
MAX_TRIAL_PATIENTS = 1_000_000
# Bound of |eta0|, |effect|, sigma and |lambda| x the largest profile multiplier.
# N <= MAX_TRIAL_PATIENTS patients come in K < sqrt(N/2) arms, so a response
# (eta0 + effect + K-1 stepwise steps + sigma x a normal draw below 40) is below
# sqrt(N) x the bound, and y'y below N^2 x its square: the float maximum.
MAX_MODEL_SCALE = math.sqrt(sys.float_info.max) / MAX_TRIAL_PATIENTS
# A run keeps only a data-key group's outcome lists across replicates: ~11 KB per
# replicate on setting2a_desk, so ~1 GB at this bound, 100x the paper's 1000.
MAX_REPLICATES = 100_000
_TOP_KEYS = ("schema", "setting", "trial", "trend", "calendar", "models", "run")


class ConfigValidationError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _fail(path: str, msg: str):
    raise ConfigValidationError([f"{path}: {msg}"])


def _unknown_keys(obj: dict, path: str, allowed) -> list[str]:
    return [f"{path}.{key}: unknown key" if path else f"{key}: unknown key"
            for key in obj if key not in allowed]


def _number(lo=None, hi=None, integer=False):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, "must be a number")
        if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
            _fail(path, "must be finite")
        if integer and int(value) != value:
            _fail(path, "must be an integer")
        if lo is not None and value < lo:
            _fail(path, f"must be >= {lo}")
        if hi is not None and value > hi:
            _fail(path, f"must be <= {hi}")
        return int(value) if integer else float(value)
    return check


def _numbers(item):
    """A non-empty list of ``item`` values; a bare number is a list of one."""
    def check(value, path):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = [value]
        if not isinstance(value, list) or not value:
            _fail(path, "must be a non-empty list of numbers")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    return check


def _subset(allowed):
    def check(value, path):
        if not isinstance(value, list) or not value or any(v not in allowed for v in value):
            _fail(path, f"must be a non-empty list from {', '.join(allowed)}")
        return tuple(value)
    return check


def _distinct(check):
    """``check``, then no value may repeat an earlier one: a repeated grid axis
    value would run its cells twice."""
    def distinct(value, path):
        values, first, errors = check(value, path), {}, []
        for i, v in enumerate(values):
            if first.setdefault(v, i) != i:
                errors.append(f"{path}[{i}]: duplicate of {path}[{first[v]}]")
        if errors:
            raise ConfigValidationError(errors)
        return values
    return distinct


def _one_of(allowed):
    def check(value, path):
        if value not in allowed:
            _fail(path, f"must be one of {', '.join(allowed)}")
        return value
    return check


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _profile(value, path):
    if isinstance(value, list):
        return _numbers(_number())(value, path)
    if not isinstance(value, str) or value not in LAMBDA_PROFILES:
        _fail(path, f"must be one of {', '.join(LAMBDA_PROFILES)} or a list")
    return value


# section -> config key -> (GridSpec field, check[, default]). A key without a
# default here takes the GridSpec default, and is required when there is none.
_CONFIG = {
    "trial": {
        "K": ("K", _number(lo=2, integer=True)),
        "d": ("d_values", _distinct(_numbers(_number(lo=0, integer=True)))),
        "n": ("n", _number(lo=2, integer=True)),
        "eta0": ("eta0", _number(lo=-MAX_MODEL_SCALE, hi=MAX_MODEL_SCALE)),
        "sigma": ("sigma", _number(lo=1e-12, hi=MAX_MODEL_SCALE)),
        "M": ("M", _number(lo=1, integer=True)),
        "effect": ("effect", _number(lo=-MAX_MODEL_SCALE, hi=MAX_MODEL_SCALE)),
    },
    "trend": {
        "patterns": ("patterns", _distinct(_subset(TREND_PATTERNS))),
        "lambda": ("lambdas", _distinct(_numbers(_number())), (0.0,)),
        "profile": ("profile", _profile),
        "n_p": ("n_p", _optional(_number(lo=2, integer=True))),
        "psi": ("psi", _optional(_number(lo=1e-9))),
    },
    "calendar": {"c_length": ("c_lengths", _distinct(_numbers(_number(lo=1))))},
    "run": {
        "hypotheses": ("hypotheses", _distinct(_subset(("null", "alternative")))),
        "replicates": ("replicates", _number(lo=1, hi=MAX_REPLICATES, integer=True)),
        "seed": ("seed", _number(lo=0, integer=True)),
        "alpha": ("alpha", _number(lo=1e-9, hi=1 - 1e-9)),
        "sided": ("sided", _one_of(("one_greater", "two"))),
    },
}


def _model(entry, path) -> ModelSpec:
    if not isinstance(entry, dict):
        _fail(path, "must be an object with an 'estimator' key")
    unknown = _unknown_keys(entry, path, ("estimator", "degree"))
    if unknown:
        raise ConfigValidationError(unknown)
    name = entry.get("estimator")
    if not isinstance(name, str) or name not in ESTIMATORS:
        _fail(f"{path}.estimator", f"must be one of {', '.join(ESTIMATORS)}")
    degree = entry.get("degree", 3)
    try:
        check_degree(degree)
    except ConfigError as exc:
        _fail(f"{path}.degree", str(exc))
    # calendar estimators get the real c_length injected per grid cell
    placeholder = 1 if ESTIMATORS[name].needs_c_length else None
    return ModelSpec(name, c_length=placeholder, spline_degree=degree)


def _models(models, errors: list[str]) -> tuple[ModelSpec, ...]:
    if not isinstance(models, list) or not models:
        errors.append("models: must be a non-empty list")
        return ()
    out, seen = [], {}
    for i, entry in enumerate(models):
        try:
            spec = _model(entry, f"models[{i}]")
        except ConfigValidationError as exc:
            errors += exc.errors
            continue
        first = seen.setdefault(spec.label, i)
        if first != i:
            errors.append(f"models[{i}]: duplicate of models[{first}] ({spec.label})")
        out.append(spec)
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

    errors = _unknown_keys(doc, "", _TOP_KEYS)
    if doc.get("schema") != CONFIG_SCHEMA_VERSION:
        errors.append(f"schema: must be {CONFIG_SCHEMA_VERSION}")
    values = {f.name: f.default for f in fields(GridSpec) if f.default is not MISSING}
    values["setting"] = doc.get("setting", "scenario")
    if not isinstance(values["setting"], str) or not values["setting"]:
        errors.append("setting: must be a non-empty string")
    for section, keys in _CONFIG.items():
        obj = doc.get(section)
        if obj is None and section == "calendar":
            obj = {}
        if not isinstance(obj, dict):
            raise ConfigValidationError(errors + [f"{section}: missing or not an object"])
        errors += _unknown_keys(obj, section, keys)
        for key, (field, check, *default) in keys.items():
            if key in obj:
                try:
                    values[field] = check(obj[key], f"{section}.{key}")
                except ConfigValidationError as exc:
                    errors += exc.errors
                    values.pop(field, None)
            elif default:
                values[field] = default[0]
            elif field not in values:
                errors.append(f"{section}.{key}: missing required key")

    # cross-field rules; a field that failed its own check is absent from values
    models = values["estimators"] = _models(doc.get("models"), errors)
    if "K" in values and "M" in values and values["M"] > values["K"]:
        errors.append(f"trial.M: must be <= K ({values['K']})")
    if {"K", "n", "d_values"} <= values.keys():
        trial = {"K": values["K"], "n": values["n"], "d": max(values["d_values"])}
        if (bound := max_enrollment(**trial)) > MAX_TRIAL_PATIENTS:
            # name the field whose smallest value shrinks the bound the most
            smallest = {"K": 2, "n": 2, "d": 0}
            key = min(smallest, key=lambda k: max_enrollment(**{**trial, k: smallest[k]}))
            errors.append(f"trial.{key}: a trial of {trial} can enroll {bound} patients, "
                          f"more than {MAX_TRIAL_PATIENTS}")
            del values["K"]  # no per-arm check of a trial that size
    if "K" in values and "profile" in values:
        try:
            mult = lambda_multipliers(values["profile"], values["K"])
        except ConfigError as exc:
            errors.append(f"trend.profile: {exc}")
        else:
            top = max(map(abs, values.get("lambdas", (0.0,)))) * max(map(abs, mult))
            if top > MAX_MODEL_SCALE:
                errors.append(f"trend.lambda: |lambda| x the largest profile multiplier is {top}, "
                              f"more than {MAX_MODEL_SCALE}")
    patterns = values.get("patterns", ())
    if "inverted_u" in patterns and "n_p" in values and values["n_p"] is None:
        errors.append("trend.n_p: required when patterns include inverted_u")
    if "seasonal" in patterns and "psi" in values and values["psi"] is None:
        errors.append("trend.psi: required when patterns include seasonal")
    needs_calendar = any(s.kind.needs_c_length for s in models)
    if needs_calendar and values.get("c_lengths") == (None,):
        errors.append("calendar.c_length: required by calendar-based estimators")
    if errors:
        raise ConfigValidationError(errors)

    out = {"schema": CONFIG_SCHEMA_VERSION, "setting": values["setting"], "models": [
        {"estimator": s.estimator, "degree": s.spline_degree}
        if s.kind.family == "spline" else {"estimator": s.estimator}
        for s in models
    ]}
    for section, keys in _CONFIG.items():
        if section != "calendar" or needs_calendar:
            out[section] = {
                key: list(v) if isinstance(v := values[field], tuple) else v
                for key, (field, *_) in keys.items()
            }
    return GridSpec(**values), {key: out[key] for key in _TOP_KEYS if key in out}


def _worker_count(value, source: str) -> int:
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"{source}: must be an integer >= 1, got {value!r}")
    return count


def _default_threads() -> int:
    """Worker count from PLATFORMTRIAL_THREADS, 1 when it is unset."""
    return _worker_count(os.environ.get("PLATFORMTRIAL_THREADS", "1"), "PLATFORMTRIAL_THREADS")


def cmd_simulate(args) -> int:
    grid, normalized = load_config(args.config)
    for flag, key in (("reps", "replicates"), ("seed", "seed")):
        value = getattr(args, flag)
        if value is not None:
            field, check = _CONFIG["run"][key][:2]  # the bounds the config key has
            value = check(value, f"--{flag}")
            grid = replace(grid, **{field: value})
            normalized["run"][key] = value
    threads = (_default_threads() if args.threads is None
               else _worker_count(args.threads, "--threads"))
    if args.print_config:
        print(json.dumps(normalized, indent=2))
        return 0
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
        return list(default_model_set(args.c_length, spline_degree=args.spline_degree, **opts))
    specs = []
    for name in args.models.split(","):
        name = name.strip()
        if name not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {name!r} in --models")
        calendar = ESTIMATORS[name].needs_c_length
        if calendar and args.c_length is None:
            raise ConfigError(f"{name} requires --c-length")
        specs.append(ModelSpec(name, c_length=args.c_length if calendar else None,
                               spline_degree=args.spline_degree, **opts))
    return specs


def cmd_analyze(args) -> int:
    dataset = read_csv(args.data)
    if not (dataset.arm == args.arm).any():
        raise ConfigError(f"arm {args.arm} absent from {args.data}")
    specs = _parse_models(args)
    analysis_set = slice_for_arm(dataset, args.arm, planned=specs)
    results = []
    for spec in specs:
        try:
            results.append(fit(analysis_set, args.arm, spec))
        except FIT_FAILURES as exc:  # a known failure on this data: bad input, not a crash
            raise ConfigError(f"{spec.label}: {exc}") from None
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
    for flag, check in (("lam", _number()), ("psi", _number(lo=1e-9)),
                        ("n_total", _number(lo=2, hi=MAX_TRIAL_PATIENTS)),
                        ("K", _number(lo=1, hi=MAX_TRIAL_PATIENTS)), ("d", _number(lo=0))):
        check(getattr(args, flag), "--" + flag.replace("_", "-"))
    if args.pattern == "inverted_u":
        _number(lo=2, hi=args.n_total - 1)(args.n_p, "--n-p")
    if args.entries:
        try:
            entries = _numbers(_number())([float(e) for e in args.entries.split(",")], "--entries")
        except ValueError:
            raise ConfigError("--entries must be a comma-separated list of times") from None
    else:
        entries = tuple(args.d * (k - 1) + 1 for k in range(1, args.K + 1))
    j = np.arange(1, args.n_total + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        f = trend_value(
            args.pattern, j, args.lam, args.n_total, n_p=args.n_p, psi=args.psi,
            arms_entered=arms_entered_by(j, entries) if args.pattern == "stepwise" else None,
        )
    f = np.broadcast_to(np.asarray(f, dtype=float), j.shape)
    if not np.isfinite(f).all():
        flag = "--psi" if args.pattern == "seasonal" else "--lam"
        raise ConfigError(f"{flag} too large: the trend values overflow")
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
        print(json.dumps(normalized, indent=2))
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
