import csv
import json
import math
from pathlib import Path

import pytest

from platformtrial.cli import MAX_MODEL_SCALE, MAX_REPLICATES, MAX_TRIAL_PATIENTS, load_config, main
from platformtrial.datagen import TrendSpec, generate_trial, read_csv, write_csv
from platformtrial.design import TrialConfig, max_enrollment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, **overrides):
    doc = {
        "schema": 1,
        "setting": "clitest",
        "trial": {"K": 2, "d": [20], "n": 20, "eta0": 0.0, "sigma": 1.0, "M": 2, "effect": 0.25},
        "trend": {"patterns": ["none"], "lambda": [0.0]},
        "models": [{"estimator": "fixed_period"}, {"estimator": "pooled"}],
        "run": {"hypotheses": ["null"], "replicates": 10, "seed": 42},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def make_dataset_csv(tmp_path, seed=0, K=2, d=60, n=60, M=2):
    cfg = TrialConfig(K=K, d=d, n=n, eta0=0.0, theta=(0.3,) * K, sigma=1.0, M=M)
    ds = generate_trial(cfg, TrendSpec.none(K), "alternative", seed=seed)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    return path, ds


def set_field(path, lineno, column, value):
    """Replace one field on the given 1-based line of a dataset CSV."""
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split(",")
    fields[("j", "arm", "time", "response").index(column)] = value
    lines[lineno - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestValidate:
    def test_bundled_configs_validate(self, capsys):
        for cfg in sorted(CONFIGS.glob("*.json")):
            assert main(["validate", str(cfg)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_setting2a_expands_to_thirty_cells_per_pattern(self):
        grid, _ = load_config(CONFIGS / "setting2a_desk.json")
        cells = grid.cells()
        per_pattern = {}
        for c in cells:
            key = (c.hypothesis, c.trend.pattern)
            per_pattern[key] = per_pattern.get(key, 0) + 1
        assert set(per_pattern.values()) == {30}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["trial"]["blocks"] = 4
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "trial.blocks" in capsys.readouterr().err

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["trial"]["n"] = 1
        doc["run"]["alpha"] = 3.0
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trial.n" in err and "run.alpha" in err

    def test_missing_calendar_section(self, tmp_path, capsys):
        path = write_config(tmp_path, models=[{"estimator": "fixed_calendar"}])
        assert main(["validate", str(path)]) == 2
        assert "calendar.c_length" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, field", [
        ("run", "threads", 2, "run.threads"),
        ("run", "seed", -1, "run.seed"),
        ("trend", "profile", [0.0, 1.0], "trend.profile"),
        ("trend", "profile", "arms124", "trend.profile"),
        ("trial", "eta0", float("nan"), "trial.eta0"),
    ])
    def test_value_rejected_with_field_path(self, tmp_path, capsys, section, key,
                                            value, field):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", [2.0, True])
    def test_non_integer_degree_rejected(self, tmp_path, capsys, degree):
        path = write_config(tmp_path, models=[{"estimator": "pooled"},
                                              {"estimator": "spline_period", "degree": degree}])
        assert main(["validate", str(path)]) == 2
        assert "models[1].degree" in capsys.readouterr().err

    def test_duplicate_model_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, models=[{"estimator": "pooled"}, {"estimator": "pooled"}])
        assert main(["validate", str(path)]) == 2
        assert "models[1]: duplicate of models[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, values", [
        ("calendar", "c_length", [50, 50.0]),
        ("trend", "lambda", [0.25, 0.5, 0.25]),
        ("trial", "d", [20, 20]),
        ("trend", "patterns", ["none", "none"]),
        ("run", "hypotheses", ["null", "null"]),
    ])
    def test_repeated_axis_value_rejected(self, tmp_path, capsys, section, key, values):
        # each value of a grid axis makes its own cells: a repeat ran them twice
        path = write_config(tmp_path, models=[{"estimator": "fixed_calendar"}],
                            calendar={"c_length": [50]})
        doc = json.loads(path.read_text())
        doc[section][key] = values
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        first = values.index(values[-1])
        assert (f"{section}.{key}[{len(values) - 1}]: duplicate of {section}.{key}[{first}]"
                in capsys.readouterr().err)
        doc[section][key] = values[:-1]
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("trial, named", [
        ({"n": 10**12}, "trial.n"), ({"d": [10**9]}, "trial.d"), ({"K": 10**6, "M": 1}, "trial.K"),
    ])
    def test_trial_enrolling_too_many_patients_rejected(self, tmp_path, capsys, trial, named):
        doc = json.loads((CONFIGS / "smoke.json").read_text())
        doc["trial"].update(trial)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {named}:" in err and f"more than {MAX_TRIAL_PATIENTS}" in err

    def test_replicates_bounded(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "smoke.json").read_text())
        for replicates, code in ((MAX_REPLICATES, 0), (MAX_REPLICATES + 1, 2), (10**30, 2)):
            doc["run"]["replicates"] = replicates
            path = tmp_path / "reps.json"
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path)]) == code
            assert (f"config error: run.replicates: must be <= {MAX_REPLICATES}"
                    in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("section, key, value, ok, named", [
        ("trial", "eta0", 1e200, MAX_MODEL_SCALE, "trial.eta0"),
        ("trial", "eta0", -1e200, -MAX_MODEL_SCALE, "trial.eta0"),
        ("trial", "effect", 1e200, MAX_MODEL_SCALE, "trial.effect"),
        ("trial", "sigma", 1e200, MAX_MODEL_SCALE, "trial.sigma"),
        ("trend", "lambda", [0.5, -1e200], [0.5, -MAX_MODEL_SCALE], "trend.lambda"),
        # the largest |lambda| times the largest |multiplier|
        ("trend", "profile", [0.0, -1e150, 1.0], [0.0, -MAX_MODEL_SCALE, 1.0], "trend.lambda"),
    ])
    def test_response_scale_bounded(self, tmp_path, capsys, section, key, value, ok, named):
        # each at most MAX_MODEL_SCALE, so that y'y of a trial stays finite
        doc = json.loads((CONFIGS / "smoke.json").read_text())
        doc["trend"] = {"patterns": ["stepwise"], "lambda": [0.5, 1.0]}
        doc[section][key] = value
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert f"config error: {named}:" in capsys.readouterr().err
        doc[section][key] = ok
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0

    def test_largest_trial_at_the_scale_bound_has_finite_sum_of_squares(self):
        # every scale at the bound, a stepwise trend with the most arms a trial
        # within MAX_TRIAL_PATIENTS can have, and every arm under the alternative
        K = max(k for k in range(2, 2000) if max_enrollment(k, 2, 0) <= MAX_TRIAL_PATIENTS)
        config = TrialConfig(K=K, d=0, n=2, eta0=MAX_MODEL_SCALE, theta=(MAX_MODEL_SCALE,) * K,
                             sigma=MAX_MODEL_SCALE, M=K)
        trend = TrendSpec("stepwise", (MAX_MODEL_SCALE,) * (K + 1))
        y = generate_trial(config, trend, "alternative", seed=1).y
        assert math.isfinite(float(y @ y))

    def test_bundled_configs_enroll_below_the_limit(self):
        enrolled = []
        for grid, _ in map(load_config, sorted(CONFIGS.glob("*.json"))):
            d = max(grid.d_values)
            config = TrialConfig(K=grid.K, d=d, n=grid.n, eta0=0.0, theta=(0.0,) * grid.K,
                                 sigma=1.0, M=grid.M)
            enrolled.append(len(generate_trial(config, TrendSpec.none(grid.K), "null")))
            assert enrolled[-1] <= max_enrollment(grid.K, grid.n, d) <= MAX_TRIAL_PATIENTS
        assert max(enrolled) == 5000  # the setting1*_desk trials at d = 500 (bound 7470)

    def test_print_config_round_trips(self, tmp_path, capsys):
        path = write_config(tmp_path, calendar={"c_length": [50, 100]})
        assert main(["validate", str(path), "--print-config"]) == 0
        printed = capsys.readouterr().out
        assert "calendar" not in json.loads(printed)  # no estimator needs c_length
        round_trip = tmp_path / "normalized.json"
        round_trip.write_text(printed)
        assert main(["validate", str(round_trip), "--print-config"]) == 0
        assert capsys.readouterr().out == printed
        for cfg in sorted(CONFIGS.glob("*.json")):
            assert main(["validate", str(cfg), "--print-config"]) == 0
            printed = capsys.readouterr().out
            round_trip.write_text(printed)
            assert main(["validate", str(round_trip), "--print-config"]) == 0
            assert capsys.readouterr().out == printed, cfg.name


class TestSimulate:
    def test_smoke_run_is_deterministic(self, tmp_path):
        import time

        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = CONFIGS / "smoke.json"
        started = time.time()
        assert main(["simulate", str(cfg), "--out", str(out1), "--seed", "42"]) == 0
        assert time.time() - started < 5.0
        assert main(["simulate", str(cfg), "--out", str(out2), "--seed", "42"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ("setting,pattern,lambda,d,c_length,estimator,hypothesis,"
                          "reps,reject_rate,mc_se,mean_est,emp_se,bias,failures")

    def test_thread_count_does_not_change_output(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        cfg = CONFIGS / "smoke.json"
        assert main(["simulate", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "-1"], "--seed"),
        (["--reps", "0"], "--reps"),
        (["--threads", "0"], "--threads"),
        (["--threads", "-3"], "--threads"),
        (["--reps", str(MAX_REPLICATES + 1)], f"--reps: must be <= {MAX_REPLICATES}"),
        (["--reps", str(10**30), "--print-config"], "--reps"),
    ])
    def test_out_of_range_flag_exits_two(self, tmp_path, capsys, monkeypatch, flags, named):
        monkeypatch.delenv("PLATFORMTRIAL_THREADS", raising=False)
        out = tmp_path / "never.csv"
        assert main(["simulate", str(write_config(tmp_path)), "--out", str(out), *flags]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_bad_thread_variable_exits_two(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("PLATFORMTRIAL_THREADS", value)
        out = tmp_path / "never.csv"
        assert main(["simulate", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert "PLATFORMTRIAL_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_reps_override_and_json_mirror(self, tmp_path):
        out = tmp_path / "r.csv"
        jout = tmp_path / "r.json"
        assert main([
            "simulate", str(CONFIGS / "smoke.json"),
            "--out", str(out), "--json-out", str(jout), "--reps", "5",
        ]) == 0
        rows = json.loads(jout.read_text())
        assert all(row["reps"] + row["failures"] == 5 for row in rows)
        with open(out) as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(rows)

    def test_print_config_skips_run(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["simulate", str(CONFIGS / "smoke.json"), "--out", str(out),
                     "--print-config"]) == 0
        assert not out.exists()
        json.loads(capsys.readouterr().out)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 2


class TestAnalyze:
    def test_default_battery_has_eight_rows(self, tmp_path, capsys):
        data, _ = make_dataset_csv(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["analyze", "--data", str(data), "--arm", "2",
                     "--c-length", "30", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["estimator"] for r in rows] == [
            "fixed_period", "fixed_calendar", "mixed_calendar", "mixed_calendar_ar1",
            "spline_period_q3", "spline_calendar_q3", "pooled", "separate",
        ]
        for r in rows:
            float(r["theta_hat"]), float(r["se"]), float(r["p_two"])

    def test_battery_without_c_length_has_its_four_period_and_baseline_rows(self, tmp_path):
        data, _ = make_dataset_csv(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["analyze", "--data", str(data), "--arm", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["estimator"] for r in rows] == [
            "fixed_period", "spline_period_q3", "pooled", "separate",
        ]

    def test_first_arm_pooled_equals_separate(self, tmp_path):
        data, _ = make_dataset_csv(tmp_path, seed=1)
        out = tmp_path / "res.csv"
        assert main(["analyze", "--data", str(data), "--arm", "1",
                     "--models", "pooled,separate", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = {r["estimator"]: r for r in csv.DictReader(fh)}
        assert math.isclose(float(rows["pooled"]["theta_hat"]),
                            float(rows["separate"]["theta_hat"]), abs_tol=1e-12)
        assert math.isclose(float(rows["pooled"]["p_two"]),
                            float(rows["separate"]["p_two"]), abs_tol=1e-12)

    def test_separate_estimate_is_concurrent_mean_difference(self, tmp_path):
        data, ds = make_dataset_csv(tmp_path, seed=2)
        out = tmp_path / "res.csv"
        assert main(["analyze", "--data", str(data), "--arm", "2",
                     "--models", "separate", "--out", str(out)]) == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        entry2 = ds.timeline.entry[1]
        exit2 = ds.timeline.exit[1]
        keep = ds.t <= exit2
        trt = ds.y[keep & (ds.arm == 2)]
        ctl = ds.y[keep & (ds.arm == 0) & (ds.t >= entry2)]
        assert math.isclose(float(row["theta_hat"]), trt.mean() - ctl.mean(), abs_tol=1e-10)

    @pytest.mark.parametrize("seed", [12, 3])
    def test_arms_entering_together_exit_zero(self, tmp_path, seed):
        # with d = 0 every arm is eligible from t = 1, so the empirical entries
        # (each arm's first record) come in the random order of randomization
        data, _ = make_dataset_csv(tmp_path, seed=seed, K=4, d=0)
        entries = read_csv(data).timeline.entry
        assert list(entries) != sorted(entries)
        assert main(["analyze", "--data", str(data), "--arm", "3",
                     "--models", "fixed_period,pooled"]) == 0

    def test_missing_column_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("j,arm,response\n1,0,0.4\n")
        assert main(["analyze", "--data", str(bad), "--arm", "1"]) == 2
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("response", "nan"), ("time", "inf")])
    def test_non_finite_value_exits_two(self, tmp_path, capsys, column, value):
        data, _ = make_dataset_csv(tmp_path, seed=5)
        set_field(data, 10, column, value)
        assert main(["analyze", "--data", str(data), "--arm", "1",
                     "--models", "fixed_period,pooled"]) == 2
        assert "line 10: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("models", ["fixed_period,pooled", "mixed_period"])
    def test_overflowing_sum_of_squares_exits_two_naming_the_line(self, tmp_path, capsys,
                                                                  models):
        # finite responses whose squares overflow: line 12's is the largest
        data, _ = make_dataset_csv(tmp_path, seed=5)
        set_field(data, 10, "response", "1e155")
        set_field(data, 12, "response", "-1e300")
        assert main(["analyze", "--data", str(data), "--arm", "2", "--models", models]) == 2
        err = capsys.readouterr().err
        assert "line 12: response -1e+300 too large" in err

    @pytest.mark.parametrize("column, value", [("j", "5.7"), ("arm", "1.5")])
    def test_non_integer_id_exits_two(self, tmp_path, capsys, column, value):
        data, _ = make_dataset_csv(tmp_path, seed=5)
        set_field(data, 10, column, value)
        assert main(["analyze", "--data", str(data), "--arm", "2",
                     "--models", "fixed_period,pooled"]) == 2
        assert f"line 10: {column} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["j", "arm"])
    def test_id_beyond_int64_exits_two(self, tmp_path, capsys, column):
        data, _ = make_dataset_csv(tmp_path, seed=5)
        set_field(data, 10, column, "1e300")
        assert main(["analyze", "--data", str(data), "--arm", "2"]) == 2
        assert f"line 10: {column} must be an integer" in capsys.readouterr().err

    def test_unfittable_estimator_exits_two_naming_it(self, tmp_path, capsys):
        # a record a trillion time units after the others: the spline basis
        # has empty columns, a known failure of the fit, not a runtime error
        data, _ = make_dataset_csv(tmp_path, seed=5)
        last = len(data.read_text().splitlines())
        set_field(data, last, "time", "1e12")
        assert main(["analyze", "--data", str(data), "--arm", "2"]) == 2
        assert "error: spline_period_q3: collinear design columns" in capsys.readouterr().err

    def test_duplicate_patient_exits_two(self, tmp_path, capsys):
        data, _ = make_dataset_csv(tmp_path, seed=5)
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines + [lines[4]]) + "\n")
        assert main(["analyze", "--data", str(data), "--arm", "1",
                     "--models", "fixed_period,pooled"]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}: duplicate" in err and "first on line 5" in err

    def test_absent_arm_exits_two(self, tmp_path, capsys):
        data, _ = make_dataset_csv(tmp_path, seed=3)
        assert main(["analyze", "--data", str(data), "--arm", "7"]) == 2
        assert "absent" in capsys.readouterr().err

    def test_calendar_model_without_c_length_exits_two(self, tmp_path):
        data, _ = make_dataset_csv(tmp_path, seed=4)
        assert main(["analyze", "--data", str(data), "--arm", "2",
                     "--models", "fixed_calendar"]) == 2

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        assert main(["analyze", "--data", str(tmp_path / "nope.csv"), "--arm", "1"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_uniform_recruitment_times(self, tmp_path):
        # real-world style data: irregular entry dates, second arm added mid-trial
        rng = __import__("numpy").random.default_rng(12)
        days = rng.uniform(0.0, 730.0, size=240)
        days.sort()
        arm = []
        for i, day in enumerate(days):
            if day < 300.0:
                arm.append(i % 2)  # control and arm 1 alternate
            else:
                arm.append((0, 1, 2)[i % 3])
        arm[-1] = 2  # evaluated arm recruits through the data horizon
        y = rng.normal(size=240) - 0.002 * days
        path = tmp_path / "realworld.csv"
        lines = ["j,arm,time,response"] + [
            f"{i + 1},{a},{float(d)!r},{float(v)!r}"
            for i, (a, d, v) in enumerate(zip(arm, days, y))
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "res.csv"
        assert main(["analyze", "--data", str(path), "--arm", "2",
                     "--c-length", "90", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        by_est = {r["estimator"]: r for r in rows}
        assert int(by_est["fixed_period"]["diag_n_intervals"]) >= 2
        # calendar units span [first patient, arm-2 horizon] in day units
        horizon = max(d for a, d in zip(arm, days) if a == 2)
        expected_units = int((horizon - days.min()) // 90) + 1
        assert int(by_est["fixed_calendar"]["diag_n_intervals"]) == expected_units
        for r in rows:
            assert math.isfinite(float(r["theta_hat"]))
            assert 0.0 <= float(r["p_two"]) <= 1.0


class TestTrendPreview:
    def run_preview(self, tmp_path, *args):
        out = tmp_path / "trend.csv"
        assert main(["trend-preview", *args, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "j,f"
        return [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows[1:]]

    def test_linear_ends_at_lambda(self, tmp_path):
        rows = self.run_preview(tmp_path, "--pattern", "linear", "--lam", "0.15",
                                "--n-total", "100")
        assert rows[0] == (1, 0.0)
        assert rows[-1][0] == 100
        assert math.isclose(rows[-1][1], 0.15, abs_tol=1e-12)

    def test_seasonal_cycle_count(self, tmp_path):
        rows = self.run_preview(tmp_path, "--pattern", "seasonal", "--lam", "1.0",
                                "--psi", "2", "--n-total", "1000")
        vals = [f for _, f in rows if abs(f) > 1e-9]
        sign_changes = sum(a * b < 0 for a, b in zip(vals, vals[1:]))
        assert sign_changes == 3  # two full cycles
        assert vals[0] > 0

    def test_stepwise_jumps_at_entries(self, tmp_path):
        rows = self.run_preview(tmp_path, "--pattern", "stepwise", "--lam", "0.2",
                                "--n-total", "30", "--entries", "1,11,21")
        values = [f for _, f in rows]
        assert values[0] == 0.0
        assert all(v == 0.0 for v in values[:10])
        assert all(math.isclose(v, 0.2) for v in values[10:20])
        assert all(math.isclose(v, 0.4) for v in values[20:])

    @pytest.mark.parametrize("flags, named", [
        (["--lam", "nan"], "--lam"),
        (["--pattern", "seasonal", "--psi", "nan"], "--psi"),
        (["--lam", "inf"], "--lam"),
        (["--pattern", "stepwise", "--entries", "1,nan"], "--entries"),
        (["--pattern", "stepwise", "--K", "0"], "--K"),
        (["--pattern", "stepwise", "--d", "-2"], "--d"),
    ], ids=["lam_nan", "psi_nan", "lam_inf", "entries_nan", "K_zero", "d_negative"])
    def test_bad_flag_exits_two_before_any_row(self, tmp_path, capsys, flags, named):
        out = tmp_path / "trend.csv"
        args = ["trend-preview", "--pattern", "linear", "--n-total", "20", *flags]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")
        assert not out.exists()

    def test_invalid_pattern_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trend-preview", "--pattern", "cubic", "--n-total", "10"])
        assert exc.value.code == 2


def test_thread_default_from_environment(monkeypatch):
    from platformtrial.cli import _default_threads

    from platformtrial.design import ConfigError

    monkeypatch.delenv("PLATFORMTRIAL_THREADS", raising=False)
    assert _default_threads() == 1
    monkeypatch.setenv("PLATFORMTRIAL_THREADS", "3")
    assert _default_threads() == 3
    for bad in ("not-a-number", "0"):
        monkeypatch.setenv("PLATFORMTRIAL_THREADS", bad)
        with pytest.raises(ConfigError, match="PLATFORMTRIAL_THREADS"):
            _default_threads()
