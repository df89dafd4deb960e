"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
from platformtrial import ModelSpec, analysis, mixed_model, regression_engine, simharness  # noqa: E402
from platformtrial.simharness import GridSpec  # noqa: E402


def small_grid(reps=2):
    """A few cells touching every wrapped layer: fixed, spline, REML, t-test."""
    estimators = (
        ModelSpec("fixed_period"), ModelSpec("fixed_calendar", c_length=1),
        ModelSpec("spline_period"), ModelSpec("mixed_period"),
        ModelSpec("mixed_calendar_ar1", c_length=1), ModelSpec("mixedint_period"),
        ModelSpec("separate"),
    )
    return GridSpec(
        setting="small", K=3, n=30, M=2, estimators=estimators, d_values=(15,),
        patterns=("linear",), lambdas=(0.5,), hypotheses=("null", "alternative"),
        c_lengths=(20.0, 40.0), replicates=reps, seed=3,
    )


def wrapped_names():
    names = [(module, attr) for module, attr, _ in layertrace.TIMED_NAMES]
    return names + [(simharness, "ProcessPoolExecutor")]


@pytest.fixture(autouse=True)
def out_dir():
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_pass_writes_the_untraced_csv(workers):
    grid = small_grid()
    untraced, *_ = run.grid_pass(simharness, grid, workers)
    (traced, *_), snap = run.guarded_pass(layertrace.Tracer(), simharness, grid, workers)
    assert traced == untraced
    n_cells = len(grid.cells())
    assert snap["calls"]["simharness.run_replicate"] == n_cells * grid.replicates
    assert len(snap["replicate_ms"]) == n_cells * grid.replicates
    fits = sum(v for k, v in snap["calls"].items() if k.startswith("analysis.fit."))
    assert fits == n_cells * grid.replicates * len(grid.estimators)
    assert snap["calls"]["mixed_model.reml_fit"] > 0
    assert snap["calls"]["spline.basis_matrix"] > 0
    assert snap["counts"].get("simharness.pools_started", 0) == (n_cells if workers > 1 else 0)
    # the two c_length cells of a hypothesis share each dataset
    assert len(snap["data_keys"]) == 2 * grid.replicates
    # calendar fits differ by c_length; the others are shared by both cells
    assert len(snap["fit_keys"]) == 2 * grid.replicates * (len(grid.estimators) + 2)


def test_every_wrapped_name_is_restored():
    before = {(m.__name__, a): getattr(m, a) for m, a in wrapped_names()}
    for timed in (True, False):
        with layertrace.Tracer(timed=timed):
            run.grid_pass(simharness, small_grid(reps=1), 2)
            assert simharness.fit is not before[(simharness.__name__, "fit")]
        after = {(m.__name__, a): getattr(m, a) for m, a in wrapped_names()}
        assert all(after[k] is v for k, v in before.items())
        assert layertrace._active is None
    assert analysis.ols_fit is regression_engine.ols_fit
    assert mixed_model.reml_fit.__module__ == "platformtrial.mixed_model"


@pytest.mark.parametrize("timed", [True, False])
@pytest.mark.parametrize("workers", [1, 2])
def test_fit_exceptions_are_classified(monkeypatch, timed, workers):
    orig = simharness.fit

    def flaky_fit(dataset, m, spec):
        if spec.estimator == "separate":
            raise TypeError("programming error")
        if spec.estimator == "fixed_period":
            raise regression_engine.RankDeficiencyError(["trt1"])
        return orig(dataset, m, spec)

    monkeypatch.setattr(simharness, "fit", flaky_fit)
    with pytest.raises(run.CheckFailed, match="TypeError"):
        run.guarded_pass(layertrace.Tracer(timed=timed), simharness, small_grid(reps=1), workers)
    tracer = layertrace.Tracer(timed=timed)
    with tracer:
        *_, rows = run.grid_pass(simharness, small_grid(reps=1), workers)
    assert {r["estimator"]: r["failures"] for r in rows}["separate"] == 1
    snap = tracer.snapshot()
    assert sum(snap["unknown_errors"].values()) == len(small_grid().cells())
    if timed:
        assert snap["counts"]["analysis.fit.errors.RankDeficiencyError"] == len(small_grid().cells())


def test_reference_comparison_tolerates_float_noise_only(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("estimator,reps,mean_est,emp_se,failures\nsep,4,0.25,nan,0\n")
    run.compare_with_reference(b"estimator,reps,mean_est,emp_se,failures\nsep,4,0.2500000001,nan,0\n", ref)
    for bad in (b"estimator,reps,mean_est,emp_se,failures\nsep,4,0.2501,nan,0\n",
                b"estimator,reps,mean_est,emp_se,failures\nsep,3,0.25,nan,1\n",
                b"estimator,reps,mean_est,emp_se,failures\nsep,4,0.25,0.1,0\n"):
        with pytest.raises(run.CheckFailed):
            run.compare_with_reference(bad, ref)
