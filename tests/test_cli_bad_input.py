"""Generated bad input for validate, analyze and trend-preview.

Every command exits 0 or 2, never 1 (a runtime error) or by a signal, and
an exit-2 message names the field, flag or line at fault. Each example runs
the command in a child process, one at a time, under an address-space limit
and a timeout, so that an input the checks miss fails the test rather than
hang or exhaust the host.
"""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from platformtrial.analysis import ESTIMATORS
from platformtrial.datagen import TREND_PATTERNS, TrendSpec, generate_trial, write_csv
from platformtrial.design import TrialConfig

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1 << 30  # bytes a child may map
TIMEOUT_S = 60
CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
from platformtrial.cli import main
sys.exit(main(sys.argv[2:]))
"""
EXAMPLES = settings(max_examples=10, deadline=None)

NON_FINITE = [math.nan, math.inf, -math.inf]
OVERSIZED = [10**7, 10**12, 10**30, -(10**12), 1e308, -1e308]


def run_cli(*args) -> subprocess.CompletedProcess:
    """The command's exit, which must be 0 or 2, and its output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", CHILD, str(ADDRESS_SPACE), *map(str, args)],
                         capture_output=True, text=True, timeout=TIMEOUT_S, env=env)
    assert run.returncode in (0, 2), run.stderr
    return run


CONFIG = {
    "schema": 1,
    "setting": "bad-input",
    "trial": {"K": 2, "d": [20], "n": 20, "eta0": 0.0, "sigma": 1.0, "M": 2, "effect": 0.25},
    "trend": {"patterns": ["linear"], "lambda": [0.5]},
    "calendar": {"c_length": [10]},
    "models": [{"estimator": "fixed_calendar"}, {"estimator": "pooled"}],
    "run": {"hypotheses": ["null"], "replicates": 10, "seed": 42},
}
CONFIG_NUMBERS = [("trial", key) for key in ("K", "d", "n", "eta0", "sigma", "M", "effect")] + [
    ("trend", "lambda"), ("calendar", "c_length"),
    ("run", "replicates"), ("run", "seed"), ("run", "alpha"),
]


@EXAMPLES
@given(field=st.sampled_from(CONFIG_NUMBERS),
       value=st.sampled_from(NON_FINITE + OVERSIZED + [0, -1, 0.5]),
       cut=st.none() | st.integers(min_value=0, max_value=200))
def test_validate(tmp_path_factory, field, value, cut):
    # a bad number in one field; with a cut, also the JSON text cut short there
    section, key = field
    doc = json.loads(json.dumps(CONFIG))
    doc[section][key] = value
    text = json.dumps(doc)  # NaN and Infinity as json writes them
    path = tmp_path_factory.mktemp("validate") / "config.json"
    path.write_text(text if cut is None else text[:cut])
    run = run_cli("validate", path)
    if run.returncode == 2:
        named = "invalid JSON at line 1" if cut is not None else f"config error: {section}.{key}"
        assert named in run.stderr


DATASET = generate_trial(TrialConfig(K=2, d=60, n=60, eta0=0.0, theta=(0.3, 0.3), sigma=1.0, M=2),
                         TrendSpec.none(2), "alternative", seed=5)
BAD_FIELDS = ["nan", "inf", "-inf", "1e400", "1e300", "-1e300", "1e12", "-1e12", "abc", "",
              "1.5", "-3", "99"]
NAMED_IN_ANALYZE = re.compile(
    r"line \d+|c_length|--[a-z-]+|\barms?\b|header|" + "|".join(ESTIMATORS))


@EXAMPLES
@given(line=st.integers(min_value=2, max_value=len(DATASET) + 1),
       column=st.integers(min_value=0, max_value=3),
       field=st.sampled_from(BAD_FIELDS),
       shape=st.sampled_from(["field", "drop a field", "add a field", "wide span"]),
       c_length=st.sampled_from([None, "1", "2.5", "0.5", "nan", "inf", "1e308"]))
def test_analyze(tmp_path_factory, line, column, field, shape, c_length):
    # one line of a valid dataset made bad, or its time moved far out
    path = tmp_path_factory.mktemp("analyze") / "data.csv"
    write_csv(DATASET, path)
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    if shape == "field":
        fields[column] = field
    elif shape == "drop a field":
        del fields[column]
    elif shape == "add a field":
        fields.insert(column, field)
    else:
        fields[2] = repr(float(fields[2]) + 10.0 ** (6 + column * 3))
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    flags = [] if c_length is None else ["--c-length", c_length]
    run = run_cli("analyze", "--data", path, "--arm", 2, *flags)
    if run.returncode == 2:
        assert NAMED_IN_ANALYZE.search(run.stderr), run.stderr


TREND_FLAGS = {
    "--lam": st.sampled_from(NON_FINITE + OVERSIZED + [0.15]),
    "--psi": st.sampled_from(NON_FINITE + OVERSIZED + [0, -1, 2]),
    "--n-total": st.sampled_from([-5, 0, 1, 2, 50, 10**7, 10**12]),
    "--n-p": st.sampled_from([-1, 1, 25, 10**12]),
    "--entries": st.sampled_from(["1,nan", "1,inf", "1e400", ",", "a,b", "1,20,40",
                                  "-1e308,1e308"]),
    "--K": st.sampled_from([-1, 0, 3, 10**12]),
    "--d": st.sampled_from([-2, 0, 10, 10**18]),
}


@EXAMPLES
@given(pattern=st.sampled_from(TREND_PATTERNS),
       flags=st.dictionaries(st.sampled_from(sorted(TREND_FLAGS)), st.just(None), min_size=1)
       .flatmap(lambda chosen: st.fixed_dictionaries({f: TREND_FLAGS[f] for f in chosen})))
def test_trend_preview(tmp_path_factory, pattern, flags):
    flags.setdefault("--n-total", 50)
    out = tmp_path_factory.mktemp("trend") / "trend.csv"
    args = [arg for flag, value in flags.items() for arg in (flag, value)]
    run = run_cli("trend-preview", "--pattern", pattern, *args, "--out", out)
    if run.returncode == 2:
        assert re.search(r"--(lam|psi|n-total|n-p|entries|K|d)\b", run.stderr), run.stderr
        assert not out.exists()
