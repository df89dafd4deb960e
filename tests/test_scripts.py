import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reml_fit_by_fit.py"), str(ROOT), str(config)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    out = run.stdout.splitlines()
    # the grid run once per tree: every fit call the same in both
    per_estimator = [line.split() for line in run.stderr.splitlines()]
    assert per_estimator[0] == ["estimator", "fits", "differ", "max_rel",
                                "failed_parent", "failed_change"]
    assert [row[:4] for row in per_estimator[1:]] == [
        ["mixed_period", "3", "0", "0"], ["mixed_period_ar1", "3", "0", "0"]]
    assert out[0].split()[:4] == ["structure", "fits", "worse", "worst_gap"]
    rows = {line.split()[0]: line.split()[1:] for line in out[1:]}
    assert set(rows) == {"ar1", "independent"}
    for fits, worse, worst_gap, better, *counts in rows.values():
        # the same tree refits the same fits to the same estimates
        assert int(fits) == 3 and int(worse) == int(better) == 0
        assert float(worst_gap) == 0.0
        assert len(counts) == 12
        # ... with the same boundary fits and evaluations, and times its refits
        boundary, evals_mean, evals_max, ms_p50 = (counts[i:i + 2] for i in (4, 6, 8, 10))
        assert boundary[0] == boundary[1]
        assert evals_mean[0] == evals_mean[1] and float(evals_mean[0]) > 0
        assert evals_max[0] == evals_max[1] and int(evals_max[0]) >= float(evals_mean[0])
        assert all(float(ms) > 0 for ms in ms_p50)


def test_fit_timing_compares_a_tree_with_itself(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1,
        "setting": "timing-smoke",
        "trial": {"K": 2, "d": [20], "n": 20, "eta0": 0.0, "sigma": 1.0, "M": 2, "effect": 0.25},
        "trend": {"patterns": ["linear"], "lambda": [0.5]},
        "calendar": {"c_length": [10, 25]},
        "models": [{"estimator": "fixed_calendar"}, {"estimator": "separate"}],
        "run": {"hypotheses": ["null"], "replicates": 3, "seed": 7},
    }))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fit_timing.py"), str(ROOT), str(config)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    out = run.stdout.splitlines()
    # the whole group on a fresh set: its 3 distinct specs; then a kept read
    group, kept = [line.split() for line in run.stderr.splitlines()]
    assert group[:4] == ["group", "(3", "specs)", "-"] and all(float(us) > 0 for us in group[4:])
    assert kept[:3] == ["kept", "read", "-"] and all(float(us) > 0 for us in kept[3:])
    assert out[0].split() == ["estimator", "c_length", "us_parent", "us_change", "ratio"]
    rows = [line.split() for line in out[1:]]
    # one row per distinct spec of the group: separate ignores c_length
    assert [row[:2] for row in rows] == [
        ["fixed_calendar", "10"], ["separate", "-"], ["fixed_calendar", "25"]]
    assert all(float(us) > 0 for row in rows for us in row[2:])


sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402
import grid_cmp  # noqa: E402

RESULT_LINE = (
    '{"correct": true, "attempted": 720, "failed": 0, "metrics": {'
    '"cell_reps_per_s": {"value": %s, "unit": "1/s"}, '
    '"peak_rss_mb": {"value": %s, "unit": "MB"}}}'
)

# Stands in for perfbench/run.py: logs which tree ran, prints the canned lines.
FAKE_RUN = '''
import sys
from pathlib import Path
here = Path.cwd()
with open(here.parent / "order.log", "a") as fh:
    fh.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
print('{"environment": {}}')
print("calendar_sweep cell_reps_per_s = %s 1/s")
print(%r)
'''


def fake_tree(root, name, reps_per_s, rss):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    line = RESULT_LINE % (reps_per_s, rss)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN % (reps_per_s, line))
    (tree / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    return tree


def test_bench_pairs_parses_result_lines():
    out = '{"environment": {}}\nw cell_reps_per_s = 5 1/s\n' + RESULT_LINE % (5.5, 80) + "\n"
    assert bench_pairs.parse_run(out) == {
        "correct": True, "failed": 0, "metrics": {"cell_reps_per_s": 5.5, "peak_rss_mb": 80.0}}
    failed_check = '{"correct": false, "attempted": 1, "failed": 0, "metrics": {}}'
    assert bench_pairs.parse_run(failed_check)["correct"] is False
    with pytest.raises(ValueError, match="no run.py result line"):
        bench_pairs.parse_run("perfbench: no platformtrial package under src\n")


def test_bench_pairs_summary_counts_wins_by_direction():
    runs = [
        {"pair": i, "side": side, "correct": True, "failed": 0,
         "metrics": {"cell_reps_per_s": v, "peak_rss_mb": rss}}
        for i, (p, c) in enumerate([(10.0, 12.0), (11.0, 10.5), (9.0, 13.0)])
        for side, v, rss in (("parent", p, 80.0), ("change", c, 81.0 - i))
    ]
    out = bench_pairs.summarize(runs, {"cell_reps_per_s": "higher", "peak_rss_mb": "lower",
                                       "setup_s": "lower"})
    assert set(out) == {"cell_reps_per_s", "peak_rss_mb"}  # no run reported setup_s
    assert out["cell_reps_per_s"]["parent"] == [10.0, 11.0, 9.0]
    assert out["cell_reps_per_s"]["parent_q1_median_q3"] == [9.5, 10.0, 10.5]
    assert out["cell_reps_per_s"]["change_wins"] == "2/3"
    assert out["peak_rss_mb"]["change_wins"] == "1/3"  # 81 > 80, 80 == 80, 79 < 80


def test_bench_pairs_alternates_which_tree_runs_first(tmp_path):
    parent = fake_tree(tmp_path, "parent", 100.0, 80.0)
    change = fake_tree(tmp_path, "change", 200.0, 80.0)
    result = bench_pairs.run_pairs(parent, change, "calendar_sweep", 3, 4242)
    order = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in order] == [
        "parent", "change", "change", "parent", "parent", "change"]
    assert order[0].split()[1:] == [
        "--workload", "calendar_sweep", "--trace", "0", "--seed", "4242"]
    assert [(r["pair"], r["side"]) for r in result["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change")]
    block = result["end_to_end"]["calendar_sweep@seed4242"]
    assert block["cell_reps_per_s"]["change"] == [200.0] * 3
    assert block["cell_reps_per_s"]["change_wins"] == "3/3"
    assert block["peak_rss_mb"]["change_wins"] == "0/3"
    assert result["all_runs_correct"] is True
    assert result["command"].endswith("--workload calendar_sweep --trace 0 --seed 4242")


def test_grid_cmp_compares_a_tree_with_itself(tmp_path):
    # a tree holding the script, perfbench/run.py, this checkout's package and
    # one small config, so that "every bundled config" is that one
    for part in ("scripts/grid_cmp.py", "perfbench/run.py"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        (tmp_path / part).write_bytes((ROOT / part).read_bytes())
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "tiny.json").write_text(json.dumps({
        "schema": 1,
        "setting": "tiny",
        "trial": {"K": 2, "d": [20], "n": 20, "eta0": 0.0, "sigma": 1.0, "M": 2, "effect": 0.25},
        "trend": {"patterns": ["linear"], "lambda": [0.5]},
        "calendar": {"c_length": [10, 20]},
        "models": [{"estimator": "fixed_calendar"}, {"estimator": "fixed_period"}],
        "run": {"hypotheses": ["null"], "replicates": 3, "seed": 7},
    }))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "grid_cmp.py"), str(tmp_path), "--reps", "2"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert out[0].split()[:3] == ["config", "threads", "identical"]
    assert [line.split()[:3] for line in out[1:]] == [["tiny", "1", "yes"], ["tiny", "2", "yes"]]


def grid_csv(*rows):
    header = "estimator,reps,reject_rate,mc_se,mean_est,emp_se,bias,failures\n"
    return (header + "".join(f"{row}\n" for row in rows)).encode()


def test_grid_cmp_reports_deviations_in_tolerance_units():
    parent = grid_csv("a,10,0.1,0.01,0.5,1.0,0.5,0", "b,10,0.2,0.02,nan,nan,nan,10")
    assert grid_cmp.compare(parent, parent) == {"identical": True}
    # mean_est 0.5 -> 0.5 + 2 tolerances
    moved = 0.5 + 2 * (grid_cmp.FLOAT_ATOL + grid_cmp.FLOAT_RTOL * 0.5)
    change = grid_csv(f"a,10,0.1,0.01,{moved!r},1.0,0.5,0", "b,10,0.2,0.02,nan,nan,nan,10")
    out = grid_cmp.compare(change, parent)
    assert out["max_dev_tol"] == pytest.approx(2.0)
    assert (out["column"], out["estimator"]) == ("mean_est", "a")
    assert out["other_columns_equal"] and out["reject_rate_equal"]
    change = grid_csv("a,10,0.2,0.01,0.5,1.0,0.5,0", "b,9,0.2,0.02,1.0,nan,nan,10")
    out = grid_cmp.compare(change, parent)
    assert out["max_dev_tol"] == math.inf and out["column"] == "mean_est"
    assert not out["other_columns_equal"] and not out["reject_rate_equal"]
    assert "rows" in grid_cmp.compare(grid_csv("a,10,0.1,0.01,0.5,1.0,0.5,0"), parent)
