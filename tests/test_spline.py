import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platformtrial.design import ConfigError, derive_calendar
from platformtrial.regression_engine import DesignMatrix, build_design, ols_fit
from platformtrial.spline import SplineBasis, basis_matrix, knots_at

from oracles import dense_spline_basis, naive_basis_row


class TestKnotPlacement:
    def test_period_knots(self):
        basis = knots_at((1, 251, 501), horizon=750)
        assert basis.inner_knots == (251, 501)
        assert basis.boundary == (1.0, 750.0)

    def test_single_period_no_inner_knots(self):
        assert knots_at((1,), horizon=400).inner_knots == ()

    def test_knot_at_horizon_dropped(self):
        assert knots_at((1, 500), horizon=500).inner_knots == ()

    def test_calendar_knots(self):
        assert knots_at(derive_calendar(900, 450), 900).inner_knots == (451,)
        assert knots_at(derive_calendar(400, 450), 400).inner_knots == ()
        assert knots_at(derive_calendar(1528, 450), 1528).inner_knots == (451, 901, 1351)

    def test_duplicate_knots_dropped(self):
        basis = knots_at((1, 251, 251.0, 501), horizon=750)
        assert basis.inner_knots == (251, 501)

    def test_dim(self):
        basis = SplineBasis(degree=3, inner_knots=(10.0, 20.0), boundary=(0.0, 30.0))
        assert basis.dim == 6

    def test_invalid_degree(self):
        with pytest.raises(ConfigError):
            SplineBasis(degree=4, inner_knots=(), boundary=(0.0, 1.0))

    @pytest.mark.parametrize("degree", [2.0, True])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(ConfigError, match="spline degree"):
            SplineBasis(degree=degree, inner_knots=(), boundary=(0.0, 1.0))

    def test_unsorted_inner_knots(self):
        with pytest.raises(ConfigError):
            SplineBasis(degree=2, inner_knots=(5.0, 2.0), boundary=(0.0, 10.0))

    # both evaluated to a row of NaN at t = 0 before they were rejected
    @pytest.mark.parametrize("degree, knot, gap", [(1, 5e-324, "5e-324"), (3, 1e-310, "1e-310")])
    def test_knots_without_finite_reciprocal_gap_rejected(self, degree, knot, gap):
        with pytest.raises(ConfigError, match=f"knots 0.0 and {gap} are too close: their gap {gap}"):
            SplineBasis(degree=degree, inner_knots=(knot,), boundary=(0.0, 1.0))

    def test_close_knots_with_finite_reciprocal_gap_accepted(self):
        basis = SplineBasis(degree=3, inner_knots=(1e-308,), boundary=(0.0, 1.0))
        B = basis_matrix(np.array([0.0, 1e-308, 0.5, 1.0]), basis)
        assert np.isfinite(B).all()
        assert np.abs(B.sum(axis=1) - 1.0).max() < 1e-12


class TestBasisMatrix:
    def test_degree_one_hat_functions(self):
        basis = SplineBasis(degree=1, inner_knots=(5.0,), boundary=(0.0, 10.0))
        row = basis_matrix(np.array([2.5]), basis)[0]
        assert row == pytest.approx([0.5, 0.5, 0.0], abs=1e-14)

    def test_partition_of_unity_includes_right_boundary(self):
        basis = SplineBasis(degree=3, inner_knots=(3.0, 7.0), boundary=(1.0, 10.0))
        t = np.r_[np.linspace(1.0, 10.0, 301), 10.0]
        B = basis_matrix(t, basis)
        assert np.abs(B.sum(axis=1) - 1.0).max() < 1e-12
        assert B.min() >= 0.0

    def test_matches_naive_recursion_oracle(self):
        rng = np.random.default_rng(42)
        inner = tuple(sorted(rng.uniform(1.0, 99.0, size=4)))
        basis = SplineBasis(degree=3, inner_knots=inner, boundary=(0.0, 100.0))
        knots = basis.padded_knots()
        times = rng.uniform(0.0, 99.999, size=100)  # oracle is half-open at t_max
        B = basis_matrix(times, basis)
        for row, x in zip(B, times):
            assert np.abs(row - naive_basis_row(float(x), 3, knots)).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_local_support(self, degree):
        basis = SplineBasis(degree=degree, inner_knots=(2.0, 4.0, 6.0, 8.0), boundary=(0.0, 10.0))
        knots = basis.padded_knots()
        t = np.linspace(0.0, 10.0, 501)
        B = basis_matrix(t, basis)
        for i in range(basis.dim):
            lo, hi = knots[i], knots[i + degree + 1]
            outside = (t < lo - 1e-12) | (t > hi + 1e-12)
            assert np.abs(B[outside, i]).max(initial=0.0) == 0.0

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_continuity_at_inner_knots(self, degree):
        basis = SplineBasis(degree=degree, inner_knots=(4.0,), boundary=(0.0, 10.0))
        for h in (1e-4, 1e-6):
            left = basis_matrix(np.array([4.0 - h]), basis)
            right = basis_matrix(np.array([4.0 + h]), basis)
            assert np.abs(left - right).max() < 5.0 * h  # basis is Lipschitz across the knot

    @pytest.mark.parametrize("degree", [2, 3])
    def test_derivative_continuity_under_grid_refinement(self, degree):
        # one-sided derivative estimates agree across the knot as h -> 0
        basis = SplineBasis(degree=degree, inner_knots=(4.0,), boundary=(0.0, 10.0))

        def derivative_gap(h):
            at = lambda x: basis_matrix(np.array([x]), basis)[0]
            d_left = (at(4.0) - at(4.0 - h)) / h
            d_right = (at(4.0 + h) - at(4.0)) / h
            return np.abs(d_right - d_left).max()

        assert derivative_gap(1e-3) < derivative_gap(1e-2) / 4.0

    def test_out_of_range_time(self):
        basis = SplineBasis(degree=2, inner_knots=(), boundary=(0.0, 1.0))
        with pytest.raises(ConfigError):
            basis_matrix(np.array([1.5]), basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time(self, bad):
        basis = SplineBasis(degree=2, inner_knots=(0.5,), boundary=(0.0, 1.0))
        with pytest.raises(ConfigError, match="spline times must be finite"):
            basis_matrix(np.array([0.25, bad, 0.75]), basis)


@settings(max_examples=200, deadline=None)
@given(
    degree=st.sampled_from([1, 2, 3]),
    lo=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    width=st.floats(min_value=1e-2, max_value=1e4, allow_nan=False),
    # inner knots at least 1e-6 of the width from a boundary; SplineBasis
    # rejects a knot a subnormal distance away, and the example below holds
    # one 1e-308 away, which it accepts
    fractions=st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(degree=3, lo=0.0, width=1.0, fractions=[1e-308], seed=0)
def test_basis_matrix_equals_sparse_design_matrix(degree, lo, width, fractions, seed):
    hi = lo + width
    inner = tuple(sorted({k for k in (lo + f * width for f in fractions) if lo < k < hi}))
    basis = SplineBasis(degree=degree, inner_knots=inner, boundary=(lo, hi))
    rng = np.random.default_rng(seed)
    integers = np.arange(math.ceil(lo), math.floor(hi) + 1.0)
    times = np.r_[lo, hi, inner, rng.choice(integers, min(integers.size, 50), replace=False),
                  rng.uniform(lo, hi, size=50)]
    times = rng.permutation(times)
    assert np.array_equal(basis_matrix(times, basis), dense_spline_basis(times, basis))


@settings(max_examples=60, deadline=None)
@given(
    degree=st.sampled_from([1, 2, 3]),
    inner=st.lists(
        st.floats(min_value=1.0, max_value=99.0, allow_nan=False), min_size=0, max_size=6
    ),
)
def test_partition_of_unity_property(degree, inner):
    inner = tuple(sorted(set(round(k, 6) for k in inner)))
    basis = SplineBasis(degree=degree, inner_knots=inner, boundary=(0.0, 100.0))
    t = np.linspace(0.0, 100.0, 257)
    B = basis_matrix(t, basis)
    assert np.abs(B.sum(axis=1) - 1.0).max() < 1e-12
    assert B.min() >= -1e-15


class TestModelReduction:
    def test_degree_one_no_knots_equals_linear_regression(self):
        # with a single linear piece the spline adjustment is the linear-time model
        rng = np.random.default_rng(7)
        n = 120
        t = np.arange(1.0, n + 1.0)
        arms = rng.integers(0, 2, size=n)
        y = 0.3 * arms + 0.01 * t + rng.normal(size=n)
        basis = SplineBasis(degree=1, inner_knots=(), boundary=(1.0, float(n)))
        dm = build_design(t, arms, y, treatments=[1], adjustment="spline", basis=basis)
        spline_fit = ols_fit(dm)
        X_lin = np.column_stack([np.ones(n), (arms == 1).astype(float), t])
        lin_fit = ols_fit(DesignMatrix(X=X_lin, y=y, columns=("intercept", "trt1", "time")))
        # remaining basis column is (t - 1)/(n - 1): same slope after rescaling
        slope = spline_fit.beta[dm.columns.index("bs2")] / (n - 1.0)
        assert slope == pytest.approx(lin_fit.beta[2], abs=1e-8)
        assert spline_fit.beta[1] == pytest.approx(lin_fit.beta[1], abs=1e-8)

    def test_theta_invariant_to_dropped_basis_column(self):
        rng = np.random.default_rng(8)
        n = 150
        t = np.arange(1.0, n + 1.0)
        arms = rng.integers(0, 2, size=n)
        y = 0.4 * arms + np.sin(t / 40.0) + rng.normal(size=n)
        basis = SplineBasis(degree=3, inner_knots=(50.0, 100.0), boundary=(1.0, float(n)))
        B = basis_matrix(t, basis)
        X_drop_first = np.column_stack([np.ones(n), (arms == 1).astype(float), B[:, 1:]])
        X_drop_last = np.column_stack([np.ones(n), (arms == 1).astype(float), B[:, :-1]])
        f1 = ols_fit(DesignMatrix(X=X_drop_first, y=y, columns=tuple(f"c{i}" for i in range(X_drop_first.shape[1]))))
        f2 = ols_fit(DesignMatrix(X=X_drop_last, y=y, columns=tuple(f"c{i}" for i in range(X_drop_last.shape[1]))))
        assert f1.beta[1] == pytest.approx(f2.beta[1], abs=1e-10)
        assert f1.cov[1, 1] == pytest.approx(f2.cov[1, 1], rel=1e-8)
