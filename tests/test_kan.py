import re

import numpy as np
import pytest

import fuzzykan.kan as kan
import fuzzykan.tensor as T
from fuzzykan.checks import GRAD_TOL, SPLINE_ORACLE_TOL, gradient_check
from fuzzykan.kan import SplineGrid, bspline_basis, kan_init, kan_layer_forward, kan_stack_forward
from fuzzykan.oracles import spline_oracle

# every order up to quartic on the default range, and an asymmetric range
GRIDS = [SplineGrid(order=k) for k in range(5)] + [SplineGrid(order=3, intervals=5, lo=-0.3, hi=0.7)]


def edge_points(grid):
    """The extension zones and beyond, every knot and one ulp either side of it, and hi."""
    knots = grid.knots()
    return np.concatenate([
        np.linspace(knots[0] - grid.step, knots[-1] + grid.step, 97),
        knots,
        np.nextafter(knots, -np.inf),
        np.nextafter(knots, np.inf),
        [grid.hi],
    ])


class TestSplineGrid:
    def test_knot_count(self):
        g = SplineGrid()
        assert len(g.knots()) == g.intervals + 2 * g.order + 1
        assert g.num_basis == 8

    def test_knots_nondecreasing(self):
        knots = SplineGrid(order=2, intervals=7, lo=-3, hi=2).knots()
        assert (np.diff(knots) > 0).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            SplineGrid(lo=1.0, hi=-1.0)
        with pytest.raises(ValueError):
            SplineGrid(intervals=0)
        with pytest.raises(ValueError, match="lo=-inf"):
            SplineGrid(lo=-np.inf)
        with pytest.raises(ValueError, match="step"):
            SplineGrid(lo=-1e308, hi=1e308)  # finite bounds, infinite step
        with pytest.raises(ValueError, match="spline order must be >= 0"):
            SplineGrid(order=-1)


class TestBasis:
    def test_partition_of_unity_at_lo(self):
        g = SplineGrid()
        assert abs(bspline_basis(np.array(g.lo), g).sum() - 1.0) < 1e-12

    def test_partition_of_unity_across_range(self):
        for g in (SplineGrid(), SplineGrid(order=2, intervals=7), SplineGrid(order=1, intervals=3, lo=0, hi=4)):
            x = np.linspace(g.lo, g.hi, 501)
            assert np.abs(bspline_basis(x, g).sum(axis=-1) - 1.0).max() < 1e-9

    def test_degree_zero_is_one_hot(self):
        g = SplineGrid(order=0, intervals=5)
        basis = bspline_basis(np.array([-0.9, -0.1, 0.5, 0.99]), g)
        assert (basis.sum(axis=-1) == 1.0).all()
        assert ((basis == 0.0) | (basis == 1.0)).all()

    def test_nonnegative(self):
        for g in GRIDS:
            x = np.concatenate([np.linspace(-2.5, 2.5, 1001), edge_points(g)])  # includes the extension zone
            assert bspline_basis(x, g).min() >= 0.0, g

    def test_local_support(self):
        rng = np.random.default_rng(14)
        for g in GRIDS:
            knots = g.knots()
            x = np.concatenate([edge_points(g), rng.uniform(knots[0] - g.step, knots[-1] + g.step, 500)])
            basis, deriv = bspline_basis(x, g, with_derivative=True)
            for i in range(g.num_basis):
                inside = (x >= knots[i]) & (x <= knots[i + g.order + 1])
                assert np.abs(basis[~inside, i]).max(initial=0.0) == 0.0, (g, i)
                assert np.abs(deriv[~inside, i]).max(initial=0.0) == 0.0, (g, i)

    def test_against_recursive_oracle(self):
        rng = np.random.default_rng(12)
        for g in GRIDS:
            xs = np.concatenate([rng.uniform(g.lo, g.hi, 50), edge_points(g), [np.nan, np.inf, -np.inf]])
            basis, deriv = bspline_basis(xs, g, with_derivative=True)
            with np.errstate(invalid="ignore"):  # the oracle's inf * 0 at x = +-inf
                ref_basis, ref_deriv = spline_oracle(xs, g)
            # NaN only where the oracle is NaN
            np.testing.assert_allclose(basis, ref_basis, rtol=0, atol=SPLINE_ORACLE_TOL, err_msg=str(g))
            np.testing.assert_allclose(deriv, ref_deriv, rtol=0, atol=SPLINE_ORACLE_TOL, err_msg=str(g))
            # non-finite input: a NaN row, or a zero row for the order-0 indicator
            nonfinite = basis[-3:]
            assert np.isnan(nonfinite).all() if g.order else (nonfinite == 0.0).all(), g

    def test_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for g in GRIDS:
            knots = g.knots()
            # across the extension zones and beyond, clear of the knots where low orders kink
            xs = rng.uniform(knots[0] - g.step, knots[-1] + g.step, 200)
            xs = xs[np.abs(xs[:, None] - knots).min(axis=1) > 1e-3][:60]
            _, deriv = bspline_basis(xs, g, with_derivative=True)
            numeric = (bspline_basis(xs + h, g) - bspline_basis(xs - h, g)) / (2 * h)
            assert np.abs(deriv - numeric).max() < 1e-6, g


    @pytest.mark.parametrize("shape", [(7,), (3, 5)])
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"order{g.order}_lo{g.lo}")
    def test_rows_are_c_contiguous(self, grid, shape):
        # so the layer's [N, in*nb] view of them is free, with no copy
        x = np.random.default_rng(19).uniform(grid.knots()[0] - grid.step, grid.knots()[-1] + grid.step, shape)
        for rows in bspline_basis(x, grid, with_derivative=True):
            assert rows.shape == shape + (grid.num_basis,) and rows.flags.c_contiguous

    def test_float32_points_give_float32_rows(self):
        # computed in float32, with each point's interval decided against the float64 knots
        rng = np.random.default_rng(15)
        for g in GRIDS:
            xs = np.concatenate([rng.uniform(g.lo, g.hi, 50), edge_points(g), [np.nan, np.inf, -np.inf]])
            basis, deriv = bspline_basis(xs.astype(np.float32), g, with_derivative=True)
            assert basis.dtype == deriv.dtype == np.float32, g
            ref_basis, ref_deriv = bspline_basis(xs.astype(np.float32).astype(np.float64), g, with_derivative=True)
            # measured at most 1.3e-7 and 1.1e-6 (a few float32 ulps, the derivative over step 0.2)
            np.testing.assert_allclose(basis, ref_basis, rtol=0, atol=1e-6, err_msg=str(g))
            np.testing.assert_allclose(deriv, ref_deriv, rtol=0, atol=1e-5, err_msg=str(g))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("dtype, big", [(np.float64, 1e308), (np.float32, 3e38)])
    def test_large_finite_points_are_quiet(self, dtype, big, sign):
        # (x - knot) / step overflowed past 0.4x the float maximum, with a RuntimeWarning, in the basis and in
        # the layer's forward and backward; such a point lies beyond the knots, so its rows are zero
        x = np.array([sign * big, 0.3], dtype)
        basis, deriv = bspline_basis(x, SplineGrid(), with_derivative=True)
        assert not basis[0].any() and not deriv[0].any()
        assert basis[1].tobytes() == bspline_basis(x[1:], SplineGrid())[0].tobytes()
        xt = T.Tensor(x.reshape(1, 2), requires_grad=True)
        T.reduce_sum(kan_layer_forward(xt, kan_init(2, 1, seed=0))).backward()
        assert np.isfinite(xt.grad).all()


class TestKanLayer:
    def test_silu_sum_when_coeffs_zero(self):
        layer = kan_init(3, 2, seed=0)
        layer.coeffs.data[:] = 0.0
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (5, 3))
        out = kan_layer_forward(T.Tensor(x), layer)
        expected = T.silu_values(x).sum(axis=1)
        np.testing.assert_allclose(out.data, np.stack([expected, expected], axis=1), atol=1e-12)

    def test_zero_input_zero_coeffs(self):
        layer = kan_init(4, 3, seed=1)
        layer.coeffs.data[:] = 0.0
        out = kan_layer_forward(T.Tensor(np.zeros((2, 4))), layer)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_spline_interpolation_oracle(self):
        # single edge fitted to x^2; layer must equal the direct spline sum
        grid = SplineGrid()
        layer = kan_init(1, 1, grid, seed=2)
        fit_x = np.linspace(-1, 1, 41)
        design = bspline_basis(fit_x, grid)
        coeffs, *_ = np.linalg.lstsq(design, fit_x**2, rcond=None)
        layer.coeffs.data[0, 0] = coeffs
        layer.w_b.data[:] = 0.0
        layer.w_s.data[:] = 1.0
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, 100)
        out = kan_layer_forward(T.Tensor(xs[:, None]), layer).data[:, 0]
        direct = bspline_basis(xs, grid) @ coeffs
        assert np.abs(out - direct).max() < 1e-12
        # and the fit itself is a decent x^2 approximation
        assert np.abs(direct - xs**2).max() < 1e-3

    def test_degenerate_silu_feature_map(self):
        layer = kan_init(3, 2, seed=8)
        layer.coeffs.data[:] = 0.0
        layer.w_s.data[:] = 0.0
        layer.w_b.data[:] = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]])
        x = np.array([[0.2, -0.4, 1.1]])
        out = kan_layer_forward(T.Tensor(x), layer).data
        s = T.silu_values(x[0])
        expected = np.array([[s @ [1.0, 2.0, 3.0], s @ [0.5, 0.0, -1.0]]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_float32_layer_runs_its_gemms_in_float32(self):
        rng = np.random.default_rng(16)
        layer = kan_init(5, 3, seed=16)
        for t in (layer.coeffs, layer.w_b, layer.w_s):
            t.data = t.data.astype(np.float32)
        x = T.Tensor(rng.uniform(-1.2, 1.2, (6, 5)).astype(np.float32), requires_grad=True)
        out = kan_layer_forward(x, layer)
        basis = bspline_basis(x.data, layer.grid).reshape(6, -1)
        spline_w = (layer.coeffs.data * layer.w_s.data[..., None]).reshape(3, -1)
        expected = T.silu_values(x.data) @ layer.w_b.data.T
        expected += basis.astype(np.float32) @ spline_w.T  # float32 rows in a float32 GEMM
        assert out.data.dtype == np.float32 and out.data.tobytes() == expected.tobytes()
        T.reduce_sum(out).backward()
        g_basis = (np.ones((3, 6), np.float32) @ basis.astype(np.float32)).reshape(layer.coeffs.shape)
        assert layer.coeffs.grad.tobytes() == (g_basis * layer.w_s.data[..., None]).tobytes()
        assert x.grad.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"order{g.order}_lo{g.lo}")
    def test_output_is_silu_gemm_plus_public_basis_gemm(self, grid, dtype):
        # the layer's rows are bspline_basis's rows, bit for bit, edge points and non-finite ones included
        points = np.concatenate([edge_points(grid), [np.nan, np.inf, -np.inf]])
        # rolled apart, so no row holds two non-finite points and an infinite one shows its NaN basis row
        x = np.stack([points, np.roll(points, 5), np.roll(points, 11)], axis=1).astype(dtype)  # [N, 3]
        layer = kan_init(3, 4, grid, seed=17)
        for t in (layer.coeffs, layer.w_b, layer.w_s):
            t.data = t.data.astype(dtype)
        spline_w = (layer.coeffs.data * layer.w_s.data[..., None]).reshape(4, -1)
        out = kan_layer_forward(T.Tensor(x), layer).data
        expected = T.silu_values(x) @ layer.w_b.data.T + bspline_basis(x, grid).reshape(len(x), -1) @ spline_w.T
        assert out.dtype == expected.dtype == dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("x_needs_grad, derivative_builds", [(False, 0), (True, 1)])
    def test_derivative_rows_are_built_only_for_an_input_gradient(self, monkeypatch, x_needs_grad, derivative_builds):
        placed = []
        real_dense = kan._dense
        monkeypatch.setattr(kan, "_dense", lambda *args, **kw: placed.append(1) or real_dense(*args, **kw))
        layer = kan_init(3, 2, seed=18)
        x = T.Tensor(np.random.default_rng(18).uniform(-1.5, 1.5, (4, 3)), requires_grad=x_needs_grad)
        out = kan_layer_forward(x, layer)
        assert len(placed) == 1  # the basis rows: a forward alone builds no derivative rows
        T.reduce_sum(out).backward()
        assert len(placed) == 1 + derivative_builds
        assert layer.coeffs.grad is not None and (x.grad is not None) == x_needs_grad

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kan_layer_forward(T.Tensor(np.zeros((2, 5))), kan_init(4, 3))

    def test_gradients(self):
        rng = np.random.default_rng(9)
        layer = kan_init(4, 3, seed=9)
        x = T.Tensor(rng.uniform(-1.8, 1.8, (3, 4)), requires_grad=True)

        def build():
            out = kan_layer_forward(x, layer)
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x, layer.coeffs, layer.w_b, layer.w_s]) < GRAD_TOL

    def test_gradients_outside_grid_range(self):
        rng = np.random.default_rng(10)
        layer = kan_init(3, 2, seed=10)
        x = T.Tensor(rng.uniform(1.5, 2.5, (2, 3)), requires_grad=True)  # beyond hi = 1
        assert gradient_check(lambda: T.reduce_sum(kan_layer_forward(x, layer)), [x, layer.coeffs, layer.w_b, layer.w_s]) < GRAD_TOL


class TestKanStack:
    def test_single_layer_matches(self):
        layer = kan_init(3, 2, seed=11)
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (4, 3))
        np.testing.assert_array_equal(
            kan_stack_forward(T.Tensor(x), [layer]).data,
            kan_layer_forward(T.Tensor(x), layer).data,
        )

    def test_second_layer_silu_composition(self):
        first = kan_init(3, 2, seed=12)
        second = kan_init(2, 1, seed=13)
        second.coeffs.data[:] = 0.0
        second.w_b.data[:] = 1.0
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (4, 3))
        out = kan_stack_forward(T.Tensor(x), [first, second]).data
        inner = kan_layer_forward(T.Tensor(x), first).data
        expected = T.silu_values(inner).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_dimension_chain_break(self):
        # the second layer's own width check catches the broken chain
        with pytest.raises(ValueError, match=re.escape("expected input [N,3], got (2, 2)")):
            kan_stack_forward(T.Tensor(np.zeros((2, 3))), [kan_init(3, 2), kan_init(3, 1)])

    def test_two_layer_gradients(self):
        rng = np.random.default_rng(0)
        grid = SplineGrid()
        layers = [kan_init(4, 3, grid, seed=0), kan_init(3, 2, grid, seed=1)]
        x = T.Tensor(rng.uniform(-2.0, 2.0, (3, 4)), requires_grad=True)
        labels = rng.integers(0, 2, 3)
        tensors = [x] + [t for layer in layers for t in (layer.coeffs, layer.w_b, layer.w_s)]
        assert gradient_check(lambda: T.softmax_cross_entropy(kan_stack_forward(x, layers), labels), tensors) < GRAD_TOL


class TestKanInit:
    def test_deterministic(self):
        a = kan_init(5, 4, seed=42)
        b = kan_init(5, 4, seed=42)
        assert np.array_equal(a.coeffs.data, b.coeffs.data)

    def test_unit_scales(self):
        layer = kan_init(5, 4, seed=0)
        assert (layer.w_b.data == 1.0).all() and (layer.w_s.data == 1.0).all()

    def test_coefficient_variance(self):
        grid = SplineGrid()
        layer = kan_init(50, 25, grid, seed=3)  # 10^4 draws
        target = (0.1 / np.sqrt(grid.num_basis)) ** 2
        assert abs(layer.coeffs.data.var() - target) / target < 0.1
