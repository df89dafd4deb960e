import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platformtrial import analysis, blas, simharness
from platformtrial.analysis import ModelSpec, slice_for_arm
from platformtrial.datagen import TREND_PATTERNS, TrendSpec, generate_trial
from platformtrial.design import ConfigError, TrialConfig
from platformtrial.regression_engine import RankDeficiencyError
from platformtrial.simharness import (
    GridSpec,
    Scenario,
    replicate_seed,
    rows_to_csv,
    run_grid,
    run_replicate,
    run_scenario,
    scenario_data_key,
)


def small_scenario(**kw):
    base = dict(
        config=TrialConfig(K=2, d=40, n=40, eta0=0.0, theta=(0.25, 0.25), sigma=1.0, M=2),
        trend=TrendSpec.none(2),
        estimators=(ModelSpec("fixed_period"), ModelSpec("pooled")),
        hypothesis="null",
        replicates=60,
        seed=7,
    )
    base.update(kw)
    return Scenario(**base)


class TestScenario:
    def test_true_effect_follows_hypothesis(self):
        assert small_scenario().true_effect == 0.0
        assert small_scenario(hypothesis="alternative").true_effect == 0.25

    def test_replicates_validated(self):
        with pytest.raises(ConfigError):
            small_scenario(replicates=0)

    def test_data_key_ignores_estimators(self):
        a = small_scenario()
        b = small_scenario(estimators=(ModelSpec("separate"),))
        assert scenario_data_key(a) == scenario_data_key(b)
        c = small_scenario(hypothesis="alternative")
        assert scenario_data_key(a) != scenario_data_key(c)

    def test_replicate_seeds_differ(self):
        sc = small_scenario()
        s0 = replicate_seed(sc, 0).generate_state(4)
        s1 = replicate_seed(sc, 1).generate_state(4)
        assert not np.array_equal(s0, s1)


class TestRunScenario:
    def test_same_seed_reproducible(self):
        a = run_scenario(small_scenario())
        b = run_scenario(small_scenario())
        for label in ("fixed_period", "pooled"):
            assert a.per_estimator[label] == b.per_estimator[label]

    def test_thread_count_does_not_change_results(self):
        serial = run_scenario(small_scenario(), threads=1)
        parallel = run_scenario(small_scenario(), threads=2)
        assert serial.per_estimator == parallel.per_estimator

    @pytest.mark.parametrize("estimator, threads, preloads", [
        ("spline_period", 2, 1), ("spline_period", 1, 0), ("fixed_period", 2, 0),
    ])
    def test_spline_module_loaded_once_before_a_pool(self, monkeypatch, estimator, threads,
                                                      preloads):
        calls = []
        monkeypatch.setattr(simharness.spline, "preload", lambda: calls.append(1))
        run_scenario(small_scenario(estimators=(ModelSpec(estimator),), replicates=2), threads)
        assert len(calls) == preloads

    def test_mc_se_formula(self):
        oc = run_scenario(small_scenario())
        st = oc.per_estimator["fixed_period"]
        assert st.mc_se == pytest.approx(
            math.sqrt(st.reject_rate * (1 - st.reject_rate) / st.reps), abs=1e-15
        )
        assert 0.0 <= st.reject_rate <= 1.0

    def test_failures_counted_and_excluded(self, monkeypatch):
        real_fit = simharness.fit

        def flaky_fit(analysis_set, m, spec):
            if spec.estimator == "pooled":
                raise RuntimeError("synthetic failure")
            return real_fit(analysis_set, m, spec)

        monkeypatch.setattr(simharness, "fit", flaky_fit)
        oc = run_scenario(small_scenario(replicates=10))
        assert oc.per_estimator["pooled"].failures == 10
        assert math.isnan(oc.per_estimator["pooled"].reject_rate)
        assert oc.per_estimator["fixed_period"].failures == 0
        assert oc.per_estimator["fixed_period"].reps == 10

    @pytest.mark.parametrize("threads, replicates, pools", [(4, 2, [2]), (3, 7, [3]), (2, 1, []), (1, 5, [])])
    def test_at_most_one_worker_per_replicate(self, monkeypatch, threads, replicates, pools):
        started, chunk_sizes = [], []

        class RecordingPool:
            """Runs the tasks in this process; records what a real pool would start."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, scenarios, chunks):
                chunks = list(chunks)
                chunk_sizes.extend(len(c) for c in chunks)
                return map(fn, scenarios, chunks)

        monkeypatch.setattr(simharness, "ProcessPoolExecutor", RecordingPool)
        oc = run_scenario(small_scenario(replicates=replicates), threads=threads)
        assert started == pools
        assert all(chunk_sizes) and sum(chunk_sizes) == (replicates if pools else 0)
        serial = run_scenario(small_scenario(replicates=replicates)).per_estimator
        for label, st in oc.per_estimator.items():  # emp_se is nan at one replicate
            assert (st.reps, st.reject_rate, st.mean_est) == (
                serial[label].reps, serial[label].reject_rate, serial[label].mean_est)

    def test_replicate_output_shape(self):
        sc = small_scenario()
        rows = run_replicate(sc, 0)
        assert [r[0] for r in rows] == ["fixed_period", "pooled"]
        assert all(isinstance(r[2], bool) for r in rows)


class TestGridSpec:
    @staticmethod
    def grid(**kw):
        base = dict(
            setting="demo",
            K=2, n=30, M=2,
            estimators=(ModelSpec("fixed_period"),),
            d_values=(30,),
            patterns=("linear",),
            lambdas=(0.0,),
            replicates=5,
            seed=1,
        )
        base.update(kw)
        return GridSpec(**base)

    def test_calendar_axis_cell_count(self):
        # one cell per c_length step, per pattern
        grid = self.grid(
            estimators=(ModelSpec("fixed_calendar", c_length=1),),
            c_lengths=tuple(range(25, 751, 25)),
            patterns=("linear", "stepwise"),
        )
        cells = grid.cells()
        assert len(cells) == 30 * 2

    def test_lambda_axis_count(self):
        lambdas = tuple(np.arange(-0.5, 0.501, 0.125))
        assert len(self.grid(lambdas=lambdas).cells()) == 9

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty grid"):
            self.grid(patterns=())

    def test_profile_multipliers(self):
        grid = self.grid(K=4, M=3, profile="arms124_graded", lambdas=(0.5,))
        cell = grid.cells()[0]
        assert cell.trend.lam == (0.0, 0.5, 1.0, 0.0, 1.5)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            self.grid(profile="everything").multipliers()

    def test_hypothesis_axis(self):
        grid = self.grid(hypotheses=("null", "alternative"))
        assert len(grid.cells()) == 2


class TestRunGrid:
    def test_rows_have_contract_columns(self, tmp_path):
        grid = TestGridSpec.grid(lambdas=(0.0, 0.25), replicates=4)
        rows = run_grid(grid)
        assert len(rows) == 2
        assert set(simharness.GRID_CSV_HEADER) <= set(rows[0])
        path = tmp_path / "rows.csv"
        rows_to_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(simharness.GRID_CSV_HEADER)

    def test_custom_profile_reports_lambda_exactly(self):
        grid = TestGridSpec.grid(profile=(0.0, 0.3, 0.7), lambdas=(-0.875,), replicates=1)
        assert [row["lambda"] for row in run_grid(grid)] == [-0.875]

    def test_zero_profile_reports_each_lambda(self):
        grid = TestGridSpec.grid(profile=(0.0, 0.0, 0.0), lambdas=(-0.5, 0.5), replicates=1)
        assert [row["lambda"] for row in run_grid(grid)] == [-0.5, 0.5]

    def test_c_length_axis_dropped_without_calendar_estimator(self):
        grid = TestGridSpec.grid(c_lengths=(50, 100), replicates=1)
        assert len(grid.cells()) == 1
        assert [row["c_length"] for row in run_grid(grid)] == [None]

    def test_grid_deterministic_across_threads(self):
        grid = TestGridSpec.grid(replicates=20)
        assert run_grid(grid, threads=1) == run_grid(grid, threads=2)


class TestSharedAnalysisSets:
    @staticmethod
    def grid(**kw):
        """2 hypotheses x 3 c_lengths: each hypothesis's 3 cells share one data key."""
        base = dict(
            estimators=(ModelSpec("fixed_calendar", c_length=1), ModelSpec("spline_period"),
                        ModelSpec("mixed_calendar", c_length=1), ModelSpec("separate")),
            hypotheses=("null", "alternative"), c_lengths=(10.0, 25.0, 40.0),
            lambdas=(0.5,), replicates=4,
        )
        base.update(kw)
        return TestGridSpec.grid(**base)

    def test_each_dataset_generated_once_and_rows_as_cells_alone(self, monkeypatch, tmp_path):
        grid = self.grid()
        calls = []
        real_generate = simharness.generate_trial

        def counting_generate(*args, **kwargs):
            calls.append(kwargs["seed"].entropy)
            return real_generate(*args, **kwargs)

        monkeypatch.setattr(simharness, "generate_trial", counting_generate)
        rows_to_csv(run_grid(grid, threads=1), tmp_path / "grid.csv")
        assert len(calls) == len(set(calls)) == 2 * grid.replicates
        monkeypatch.undo()
        alone = []
        for hypothesis in grid.hypotheses:
            for c_length in grid.c_lengths:
                cell = dataclasses.replace(grid, hypotheses=(hypothesis,), c_lengths=(c_length,))
                alone += run_grid(cell, threads=1)
        rows_to_csv(alone, tmp_path / "alone.csv")
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_group_fits_each_distinct_spec_once(self, monkeypatch):
        # per replicate, the 3 cells call fit 4 times each, but spline_period
        # and separate ignore c_length: 3 + 1 + 3 + 1 distinct fits, the 3
        # fixed_calendar partitions in one cell pass
        grid = self.grid(replicates=2)
        fits, core_calls, cell_passes = [], [], []
        real_fit, real_core, real_cells = simharness.fit, analysis._fit, analysis.cell_ols_each

        def counting_fit(*args):
            fits.append(args)
            return real_fit(*args)

        def counting_core(*args, **kwargs):
            core_calls.append(args)
            return real_core(*args, **kwargs)

        def counting_cells(records, partitions, horizon):
            core_calls.extend(partitions)
            cell_passes.append(len(partitions))
            return real_cells(records, partitions, horizon)

        monkeypatch.setattr(simharness, "fit", counting_fit)
        monkeypatch.setattr(analysis, "_fit", counting_core)
        monkeypatch.setattr(analysis, "cell_ols_each", counting_cells)
        run_grid(grid, threads=1)
        assert len(fits) == 2 * grid.replicates * 3 * 4
        assert len(core_calls) == 2 * grid.replicates * 8
        assert cell_passes == [3] * (2 * grid.replicates)

    @staticmethod
    def fail_fixed_period(monkeypatch):
        """Make every fixed_period fit fail; return the partitions of each cell pass."""
        passes = []
        real_cells = analysis.cell_ols_each

        def failing_period(records, partitions, horizon):
            passes.append(len(partitions))
            outcomes = real_cells(records, partitions, horizon)
            return [RankDeficiencyError(["per2"]) if adjustment == "period" else outcome
                    for (adjustment, _), outcome in zip(partitions, outcomes)]

        monkeypatch.setattr(analysis, "cell_ols_each", failing_period)
        return passes

    def test_failing_fixed_spec_costs_one_pass_per_replicate(self, monkeypatch, tmp_path):
        # the group's first cell keeps the failure; its other cells read it
        passes = self.fail_fixed_period(monkeypatch)
        grid = self.grid(hypotheses=("null",), replicates=2, estimators=(
            ModelSpec("fixed_period"), ModelSpec("fixed_calendar", c_length=1)))
        rows = run_grid(grid, threads=1)
        assert passes == [4, 4]
        assert [r["failures"] for r in rows if r["estimator"] == "fixed_period"] == [2, 2, 2]
        rows_to_csv(rows, tmp_path / "grid.csv")
        alone = []
        for c_length in grid.c_lengths:
            alone += run_grid(dataclasses.replace(grid, c_lengths=(c_length,)), threads=1)
        rows_to_csv(alone, tmp_path / "alone.csv")
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_shared_spec_failing_on_some_replicates_summarized_once_as_alone(self, monkeypatch,
                                                                             tmp_path):
        # fixed_period fails on the sets whose first sorted response is positive;
        # each c_length-free spec is summarized by the group's first cell, and
        # its other cells read that summary
        real_cells, real_summary, summarized = analysis.cell_ols_each, simharness._summary, []

        def failing_on_some(records, partitions, horizon):
            outcomes = real_cells(records, partitions, horizon)
            return [RankDeficiencyError(["per2"]) if adjustment == "period" and records.y[0] > 0
                    else outcome for (adjustment, _), outcome in zip(partitions, outcomes)]

        def counting_summary(label, outcomes, true_effect):
            summarized.append(label)
            return real_summary(label, outcomes, true_effect)

        monkeypatch.setattr(analysis, "cell_ols_each", failing_on_some)
        monkeypatch.setattr(simharness, "_summary", counting_summary)
        grid = self.grid(hypotheses=("null",), replicates=6, estimators=(
            ModelSpec("fixed_period"), ModelSpec("fixed_calendar", c_length=1), ModelSpec("separate")))
        rows = run_grid(grid, threads=1)
        failures = [r["failures"] for r in rows if r["estimator"] == "fixed_period"]
        assert failures == [failures[0]] * 3 and 0 < failures[0] < grid.replicates
        assert sorted(summarized) == ["fixed_calendar"] * 3 + ["fixed_period", "separate"]
        rows_to_csv(rows, tmp_path / "grid.csv")
        alone = []
        for c_length in grid.c_lengths:
            alone += run_grid(dataclasses.replace(grid, c_lengths=(c_length,)), threads=1)
        rows_to_csv(alone, tmp_path / "alone.csv")
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_kept_failure_keeps_no_group_alive(self, monkeypatch):
        # without the cyclic collector, a group's sets die with the group
        self.fail_fixed_period(monkeypatch)
        (scenario, *_) = self.grid(replicates=1).cells()
        gc.disable()
        try:
            group = simharness._Group(scenario.estimators + (ModelSpec("fixed_period"),), {}, {})
            for _ in range(2):  # the second cell reads the kept failure
                run_replicate(dataclasses.replace(
                    scenario, estimators=(ModelSpec("fixed_period"),)), 0, group)
            assert isinstance(group.sets[0].fits[ModelSpec("fixed_period")], RankDeficiencyError)
            dropped = weakref.ref(group.sets[0])
            del group
            assert dropped() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cells_share_a_mapping_only_within_a_data_key_group(self, monkeypatch, threads):
        seen = []
        real_run_scenario = simharness.run_scenario

        def recording_run_scenario(scenario, threads, _shared=None):
            seen.append((scenario.hypothesis, _shared))
            return real_run_scenario(scenario, threads, _shared)

        monkeypatch.setattr(simharness, "run_scenario", recording_run_scenario)
        run_grid(self.grid(replicates=2), threads=threads)
        assert [h for h, _ in seen] == ["null"] * 3 + ["alternative"] * 3
        shared = [m for _, m in seen]
        if threads > 1:
            assert shared == [None] * 6  # workers cannot fill the parent's mapping
        else:
            assert shared[0] is shared[1] is shared[2] and shared[3] is shared[4] is shared[5]
            assert shared[0] is not shared[3]
            assert sorted(shared[0].sets) == sorted(shared[3].sets) == [0, 1]
            # every cell's specs, each once: c_length-free specs are equal
            assert [s.label for s in shared[0].specs] == [
                "fixed_calendar", "spline_period_q3", "mixed_calendar", "separate",
                "fixed_calendar", "mixed_calendar", "fixed_calendar", "mixed_calendar"]
        seen.clear()
        run_grid(self.grid(c_lengths=(10.0,)), threads=threads)
        assert [m for _, m in seen] == [None, None]  # groups of one cell keep no mapping

    @settings(max_examples=30, deadline=None)
    @given(
        K=st.integers(min_value=2, max_value=6),
        d=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=2, max_value=40),
        pattern=st.sampled_from(TREND_PATTERNS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_prepare_cannot_fail_after_slice_for_arm(self, K, d, n, pattern, seed, data):
        # run_replicate slices outside the per-fit try: a ConfigError there
        # would end the run instead of counting as a failed fit
        M = data.draw(st.integers(min_value=1, max_value=K), label="M")
        cfg = TrialConfig(K=K, d=d, n=n, eta0=0.0, theta=(0.25,) * K, sigma=1.0, M=M)
        trend = TrendSpec(pattern, (0.3,) * (K + 1), n_p=2, psi=1.0)
        prepared = slice_for_arm(generate_trial(cfg, trend, "null", seed=seed), M)
        assert prepared.m == M and prepared.period_starts[0] == 1.0


class TestBlasThreads:
    @pytest.fixture
    def two_blas_threads(self):
        """Every OpenBLAS at 2 threads for the test, then back to its own count."""
        found = blas.controls()
        if not found:
            pytest.skip("no OpenBLAS whose thread count can be set")
        saved = blas.thread_counts()
        for _, put in found:
            put(2)
        yield (2,) * len(found)
        for (_, put), count in zip(found, saved):
            put(count)

    @pytest.fixture
    def checked_fit(self, monkeypatch):
        """A fit that fails unless every OpenBLAS runs one thread; pooled always fails."""
        real_fit = simharness.fit

        def fit(analysis_set, m, spec):
            if blas.thread_counts() != (1,) * len(blas.controls()):
                raise RuntimeError(f"BLAS threads {blas.thread_counts()} inside a replicate")
            if spec.estimator == "pooled":
                raise RuntimeError("synthetic failure")
            return real_fit(analysis_set, m, spec)

        monkeypatch.setattr(simharness, "fit", fit)

    def test_fits_run_single_threaded_and_counts_are_restored(self, two_blas_threads, checked_fit):
        stats = {}
        for threads in (1, 2):
            stats[threads] = run_scenario(small_scenario(replicates=6), threads=threads).per_estimator
            assert blas.thread_counts() == two_blas_threads
            assert stats[threads]["fixed_period"].failures == 0
            assert stats[threads]["pooled"].failures == 6
        assert stats[1]["fixed_period"] == stats[2]["fixed_period"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_counts_restored_when_a_replicate_raises(self, monkeypatch, two_blas_threads, threads):
        def broken_generate_trial(*args, **kwargs):
            raise RuntimeError("synthetic data failure")

        monkeypatch.setattr(simharness, "generate_trial", broken_generate_trial)
        with pytest.raises(RuntimeError, match="synthetic data failure"):
            run_scenario(small_scenario(replicates=4), threads=threads)
        assert blas.thread_counts() == two_blas_threads

    def test_only_counts_other_than_one_are_set(self, monkeypatch):
        calls = []
        fake = (
            (lambda: 1, lambda n: calls.append(("at_one", n))),
            (lambda: 4, lambda n: calls.append(("at_four", n))),
        )
        monkeypatch.setattr(blas, "_controls", fake)
        with pytest.raises(RuntimeError):
            with blas.single_thread():
                assert calls == [("at_four", 1)]
                raise RuntimeError
        assert calls == [("at_four", 1), ("at_four", 4)]

    def test_grid_sets_threads_once(self, monkeypatch):
        # stateful fakes: two libraries at 4 threads each
        counts = {"numpy": 4, "scipy": 4}
        calls = []

        def control(lib):
            def put(n):
                calls.append((lib, n))
                counts[lib] = n
            return (lambda: counts[lib], put)

        monkeypatch.setattr(blas, "_controls", (control("numpy"), control("scipy")))
        grid = TestGridSpec.grid(lambdas=(0.0, 0.5, 1.0), replicates=2)
        rows = run_grid(grid, threads=2)
        assert len(rows) == 3
        assert calls == [("numpy", 1), ("scipy", 1), ("numpy", 4), ("scipy", 4)]
