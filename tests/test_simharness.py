import math

import numpy as np
import pytest

from platformtrial import simharness
from platformtrial.analysis import ModelSpec
from platformtrial.datagen import TrendSpec
from platformtrial.design import ConfigError, TrialConfig
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
