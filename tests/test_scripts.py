import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reml_fit_by_fit_compares_a_tree_with_itself(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1,
        "setting": "reml-smoke",
        "trial": {"K": 2, "d": [20], "n": 20, "eta0": 0.0, "sigma": 1.0, "M": 2, "effect": 0.25},
        "trend": {"patterns": ["linear"], "lambda": [0.5]},
        "models": [{"estimator": "mixed_period"}, {"estimator": "mixed_period_ar1"}],
        "run": {"hypotheses": ["null"], "replicates": 3, "seed": 7},
    }))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reml_fit_by_fit.py"), str(ROOT), str(config)],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert out[0].split()[:4] == ["structure", "fits", "worse", "worst_gap"]
    rows = {line.split()[0]: line.split()[1:] for line in out[1:]}
    assert set(rows) == {"ar1", "independent"}
    for fits, worse, worst_gap, better, *counts in rows.values():
        # the same tree refits the same fits to the same estimates
        assert int(fits) == 3 and int(worse) == int(better) == 0
        assert float(worst_gap) == 0.0
        assert len(counts) == 4
