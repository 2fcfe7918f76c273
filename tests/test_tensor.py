import functools
import math
import re

import numpy as np
import pytest

import fuzzykan.tensor as T
from fuzzykan.checks import GRAD_TOL, gradient_check
from fuzzykan.kan import kan_init, kan_layer_forward
from fuzzykan.model import HEADS, ModelConfig, build
from fuzzykan.pooling import MembershipParams, PoolConfig, pool

from conftest import batch32_step


def tensor(values, grad=True):
    return T.Tensor(np.asarray(values, dtype=float), requires_grad=grad)


def row_major_conv2d(x, kernels, bias, g):
    """conv2d by the row-major im2col formulas: [(n,i,j), (c,u,v)] columns.

    Returns the output and the (input, kernel, bias) gradients for the
    upstream gradient ``g``.
    """
    f, c, k, _ = kernels.shape
    win = T.windows(x, k, 1)
    n, _, ho, wo = win.shape[:4]
    col = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * k * k)
    w_t = np.ascontiguousarray(kernels.reshape(f, c * k * k).T)
    out2 = np.einsum("ik,kj->ij", col, w_t, optimize=False) + bias[None, :]
    out = out2.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
    dbias = g2.sum(axis=0)
    dkernels = (g2.T @ col).reshape(f, c, k, k)
    dwin = (g2 @ w_t.T).reshape(n, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    return out, (T.scatter_windows(T.window_planes(dwin), np.zeros(x.shape, dtype=dwin.dtype), 1), dkernels, dbias)


def zero_or_random_bias(rng, f, b_dtype, zero_dtype):
    """A random [f] bias of ``b_dtype``, or for None a zero one of ``zero_dtype``, as a newly built layer holds."""
    return np.zeros(f, zero_dtype) if b_dtype is None else rng.uniform(-1, 1, f).astype(b_dtype)


def conv2d_grads(x, kernels, bias, g):
    """T.conv2d's output and (input, kernel, bias) gradients for upstream ``g``."""
    xt = T.Tensor(x, requires_grad=True)
    kt = T.Tensor(kernels, requires_grad=True)
    bt = T.Tensor(bias, requires_grad=True)
    out = T.conv2d(xt, kt, bt)
    T.reduce_sum(T.mul(out, T.Tensor(g))).backward()
    return out.data, (xt.grad, kt.grad, bt.grad)


class TestDtype:
    def test_float_arrays_keep_their_dtype_and_other_data_becomes_f64(self):
        for dtype in (np.float32, np.float64):
            values = np.ones(3, dtype)
            assert T.Tensor(values).data is values
        for data in (np.ones(3, np.uint8), np.ones(3, np.float16), [1, 2], 3):
            assert T.Tensor(data).data.dtype == T.default_dtype() == np.float64

    def test_f32_operands_give_f32_outputs_and_gradients(self):
        rng = np.random.default_rng(2)
        a, b = (T.Tensor(rng.uniform(-1, 1, (2, 3)).astype(np.float32), requires_grad=True) for _ in range(2))
        out = T.reduce_sum(T.mul(T.add(a, b), 0.5))
        assert out.data.dtype == np.float32
        out.backward()
        assert a.grad.dtype == b.grad.dtype == np.float32


class TestElementwise:
    def test_add(self):
        out = T.add(tensor([1.0, 2.0]), tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_scalar_annihilator(self):
        out = T.mul(tensor([1.0, 2.0]), 0.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            T.add(tensor([1.0, 2.0]), tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("op", [T.add, T.mul])
    @pytest.mark.parametrize("shape", [(1, 1), ()], ids=["1x1", "0d"])
    def test_size_one_tensor_is_not_broadcast(self, op, shape):
        # the second operand is a number or a tensor of the first's shape, nothing in between
        with pytest.raises(ValueError, match="shape mismatch"):
            op(tensor([1.0, 2.0, 3.0]), tensor(np.full(shape, 2.0)))


class TestGuards:
    """Each op rejects operands of the wrong rank, shape or kind before doing any work."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: T.matmul(tensor(np.ones(3)), tensor(np.ones((3, 2)))), "matmul expects 2-D operands"),
            (lambda: T.conv2d(tensor(np.ones((1, 5, 5))), tensor(np.ones((2, 1, 3, 3))), tensor(np.zeros(2))),
             r"input \[N,C,H,W\]"),
            (lambda: T.conv2d(tensor(np.ones((1, 2, 5, 5))), tensor(np.ones((2, 1, 3, 3))), tensor(np.zeros(2))),
             "incompatible with input"),
            (lambda: T.activate("sigmoid", tensor([1.0])), "unknown activation 'sigmoid'"),
            (lambda: T.softmax_cross_entropy(tensor([0.0, 1.0]), [0]), r"logits must be \[N,K\]"),
            (lambda: T.softmax_cross_entropy(tensor([[0.0, 1.0]]), [0, 1]), "does not match batch 1"),
            (lambda: T.bias_add(tensor(np.ones((2, 3))), tensor(np.ones(2))), "bias_add expects"),
        ],
        ids=["matmul-rank", "conv2d-rank", "conv2d-channels", "activate-kind", "loss-logits", "loss-labels", "bias_add"],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestMatmul:
    def test_identity(self):
        out = T.matmul(tensor(np.eye(2)), tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_times_column(self):
        out = T.matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    @pytest.mark.parametrize("m, k, n", [(5, 7, 3), (1, 7, 3), (5, 9, 1), (32, 400, 1), (32, 400, 120)])
    def test_exact_against_triple_loop(self, m, k, n):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (m, k))
        b = rng.uniform(-2, 2, (k, n))
        expected = np.zeros((m, n))
        for kk in range(k):  # the triple loop's order: each output adds its terms from kk = 0 up
            expected = expected + a[:, kk, None] * b[None, kk, :]
        out = T.matmul(tensor(a), tensor(b))
        assert np.array_equal(out.data, expected)
        assert out.data.flags.c_contiguous

    def test_one_by_one_within_reordered_sum_bound(self):
        # a 1x1 output is one dot product, which einsum sums with unrolled partial sums
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.uniform(-2, 2, (1, 400))
            b = rng.uniform(-2, 2, (400, 1))
            terms = a[0] * b[:, 0]
            acc = 0.0
            for t in terms:
                acc += t
            bound = 2 * terms.size * np.finfo(float).eps * np.abs(terms).sum()
            assert abs(T.matmul(tensor(a), tensor(b)).data[0, 0] - acc) <= bound

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            T.matmul(tensor(np.ones((2, 3))), tensor(np.ones((4, 2))))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (2, 3, 5, 5))
        kernels = np.zeros((3, 3, 1, 1))
        for c in range(3):
            kernels[c, c, 0, 0] = 1.0
        out = T.conv2d(tensor(x), tensor(kernels), tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_sum_kernel(self):
        x = tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        kernels = tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, kernels, tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[[10.0]]]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nonzero_bias", [True, False])  # False: the zero bias a newly built layer starts with
    # conv2d runs at stride 1; a strided convolution is its output read every stride-th pixel
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("f", [1, 4])
    @pytest.mark.parametrize("c", [1, 3])
    def test_exact_against_nested_loops(self, c, f, k, stride, nonzero_bias, dtype):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (2, c, 9, 9)).astype(dtype)
        kernels = rng.uniform(-1, 1, (f, c, k, k)).astype(dtype)
        bias = rng.uniform(-1, 1, f).astype(dtype) if nonzero_bias else np.zeros(f, dtype)
        out = T.conv2d(T.Tensor(x), T.Tensor(kernels), T.Tensor(bias)).data[:, :, ::stride, ::stride]
        ho = (9 - k) // stride + 1
        expected = np.zeros((2, f, ho, ho), dtype=dtype)
        for n in range(2):
            for ff in range(f):
                for i in range(ho):
                    for j in range(ho):
                        acc = dtype(0.0)  # f32 inputs accumulate in f32 scalars
                        for cc in range(c):
                            for u in range(k):
                                for v in range(k):
                                    acc += x[n, cc, i * stride + u, j * stride + v] * kernels[ff, cc, u, v]
                        expected[n, ff, i, j] = bias[ff] + acc
        assert out.dtype == dtype
        assert np.array_equal(out, expected)  # same summation order

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nonzero_bias", [True, False])  # False: the zero bias a newly built layer starts with
    @pytest.mark.parametrize("stride", [1])  # conv2d's one stride, kept in each case's name
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("f", [1, 4])
    @pytest.mark.parametrize("c", [1, 3])
    def test_backward_matches_row_major_im2col(self, c, f, k, stride, nonzero_bias, dtype):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, (3, c, 11, 11)).astype(dtype)
        kernels = rng.uniform(-1, 1, (f, c, k, k)).astype(dtype)
        bias = rng.uniform(-1, 1, f).astype(dtype) if nonzero_bias else np.zeros(f, dtype)
        ho = 11 - k + 1
        g = rng.uniform(-1, 1, (3, f, ho, ho)).astype(dtype)
        _, grads = conv2d_grads(x, kernels, bias, g)
        _, ref_grads = row_major_conv2d(x, kernels, bias, g)
        # With F == 1 or c*k*k == 1 one product is a matrix-vector product, for
        # which BLAS picks a kernel whose summation order follows the operand
        # layout; the two layouts then agree within the bound for reordered sums.
        exact = f > 1 and c * k * k > 1
        _, abs_grads = row_major_conv2d(np.abs(x), np.abs(kernels), np.abs(bias), np.abs(g))
        n_terms = max(3 * ho * ho, f * k * k)
        for name, got, want, scale in zip(("input", "kernel", "bias"), grads, ref_grads, abs_grads):
            assert got.dtype == want.dtype == dtype, name
            if exact:
                assert np.array_equal(got, want), name
            else:
                assert np.all(np.abs(got - want) <= 2 * n_terms * np.finfo(dtype).eps * scale), name

    def test_bias_gradient_sums_rows_in_order(self):
        # large and small terms, so a pairwise bias sum differs from the
        # sequential (n,i,j) order of the row-major formulas; the gradient
        # reaches conv2d through an activation, whose dact has the output's
        # memory layout, as in the model
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (32, 1, 28, 28))
        kernels = rng.uniform(-1, 1, (6, 1, 5, 5))
        g = rng.uniform(-1, 1, (32, 6, 24, 24)) * 10.0 ** rng.integers(-8, 8, (32, 6, 24, 24))
        bias = T.Tensor(np.zeros(6), requires_grad=True)
        out = T.conv2d(T.Tensor(x), T.Tensor(kernels, requires_grad=True), bias)
        T.reduce_sum(T.mul(T.activate("tanh", out), T.Tensor(g))).backward()
        g_conv = g * (1.0 - np.tanh(out.data) ** 2)
        _, (_, _, ref_dbias) = row_major_conv2d(x, kernels, np.zeros(6), g_conv)
        assert np.array_equal(bias.grad, ref_dbias)

    @pytest.mark.parametrize(
        "dtype, b_dtype", [(np.float64, np.float64), (np.float64, None), (np.float32, np.float32),
                           (np.float32, None), (np.float32, np.float64)]
    )
    def test_filter_major_blocks_give_c_ordered_rows(self, monkeypatch, dtype, b_dtype):
        # three images per block, so each block's filter-major rows are transposed into [n, f, (i,j)] rows
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (5, 3, 8, 8)).astype(dtype)
        x[-1] = -0.0  # a zero bias must still give +0 there: each sum starts at +0
        kernels = rng.uniform(0, 1, (4, 3, 3, 3)).astype(dtype)
        bias = zero_or_random_bias(rng, 4, b_dtype, dtype)
        monkeypatch.setattr(T, "IMAGE_BLOCK", 3 * 27 * 36)
        out = T.conv2d(T.Tensor(x), T.Tensor(kernels), T.Tensor(bias)).data
        ref, _ = row_major_conv2d(x, kernels, bias, np.zeros(out.shape, out.dtype))
        assert out.flags.c_contiguous and out.dtype == np.result_type(x, kernels, bias)
        assert out.tobytes() == np.ascontiguousarray(ref).tobytes()
        if b_dtype is None:
            assert np.signbit(out[-1]).sum() == 0

    @pytest.mark.parametrize(
        "x_dtype, k_dtype, b_dtype",
        [
            (np.float64, np.float64, np.float64),
            (np.float32, np.float32, np.float32),
            (np.float32, np.float64, np.float64),
            (np.float32, np.float64, None),
            (np.float64, np.float32, np.float32),
            (np.float32, np.float32, np.float64),
        ],
    )
    @pytest.mark.parametrize("stride", [1])  # conv2d's one stride, kept in each case's name
    def test_blocks_match_row_major_im2col(self, monkeypatch, stride, x_dtype, k_dtype, b_dtype):
        # two images per forward block, so 5 images are two whole blocks and a partial one
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, (5, 3, 9, 9)).astype(x_dtype)
        kernels = rng.uniform(-1, 1, (4, 3, 3, 3)).astype(k_dtype)
        bias = zero_or_random_bias(rng, 4, b_dtype, x_dtype)
        ho = 9 - 3 + 1
        monkeypatch.setattr(T, "IMAGE_BLOCK", 2 * 27 * ho * ho + 1)
        # the output, and so the gradient reaching conv2d, has np.result_type of the operands, in which the
        # row-major formulas compute too; each operand's gradient is stored in that operand's dtype
        dtype = np.result_type(x, kernels, bias)
        g = rng.uniform(-1, 1, (5, 4, ho, ho)).astype(dtype)
        out, grads = conv2d_grads(x, kernels, bias, g)
        ref_out, ref_grads = row_major_conv2d(x, kernels, bias, g)
        assert out.dtype == ref_out.dtype and out.tobytes() == np.ascontiguousarray(ref_out).tobytes()
        for got, want, param in zip(grads, ref_grads, (x, kernels, bias)):
            assert got.dtype == param.dtype and got.tobytes() == want.astype(param.dtype).tobytes()

    def test_non_integral_extent(self):
        # at stride 1 the windows tile any input at least the kernel's size, so only a larger kernel fails
        with pytest.raises(ValueError, match="window 6x6 with stride 1 does not tile input 5x5 exactly"):
            T.conv2d(tensor(np.ones((1, 1, 5, 5))), tensor(np.ones((1, 1, 6, 6))), tensor(np.zeros(1)))

    @pytest.mark.parametrize("shape", [(1,), (4,), (3, 1), None], ids=["one-for-all", "F+1", "Fx1", "none"])
    def test_bias_that_is_not_one_per_filter_is_refused(self, shape):
        # a [1] bias would broadcast over the 3 filters and its gradient come back [3]
        bias = None if shape is None else tensor(np.zeros(shape))
        expected = f"expects kernels [F,C,k,k] and bias [F], got (3, 2, 3, 3) and {shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            T.conv2d(tensor(np.ones((1, 2, 5, 5))), tensor(np.ones((3, 2, 3, 3))), bias)


class TestWindows:
    @pytest.mark.parametrize(
        "shape, k, stride",
        [
            ((2, 3, 8, 8), 2, 2),
            ((2, 3, 7, 7), 3, 1),
            ((1, 2, 9, 9), 5, 1),
            # a (shape, index) pair: the non-contiguous [3, 3, 7, 7] slice of a larger array
            pytest.param(((3, 6, 15, 21), np.s_[:, ::2, 1::2, ::3]), 3, 2, id="strided_slice-3-2"),
        ],
    )
    def test_view_matches_slices(self, shape, k, stride):  # and so do its planes
        base, index = shape if isinstance(shape[1], tuple) else (shape, ...)
        x = np.random.default_rng(1).uniform(-1, 1, base).astype(np.float32)[index]
        win = T.windows(x, k, stride)
        n, c, ho, wo = win.shape[:4]
        assert win.shape[4:] == (k, k)
        for i in range(ho):
            for j in range(wo):
                window = x[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
                assert np.array_equal(win[:, :, i, j], window)
        planes = T.window_planes(win)
        assert planes.shape == (k * k, n, c, ho, wo) and planes.dtype == x.dtype and planes.flags.c_contiguous
        for u in range(k):
            for v in range(k):
                assert np.array_equal(planes[u * k + v], x[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride])

    @pytest.mark.parametrize("shape, k, stride", [((2, 3, 8, 8), 2, 2), ((2, 3, 7, 7), 3, 1), ((1, 2, 9, 9), 5, 1)])
    def test_scatter_is_adjoint(self, shape, k, stride):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, shape)
        planes = T.window_planes(T.windows(x, k, stride))
        y = rng.uniform(-1, 1, planes.shape)
        lhs = np.sum(planes * y)
        rhs = np.sum(x * T.scatter_windows(y, np.zeros(x.shape), stride))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_view_is_read_only(self):
        win = T.windows(np.zeros((1, 1, 4, 4)), 2, 2)
        with pytest.raises(ValueError):
            win[0, 0, 0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 1), (2, 1)])
    def test_window_columns_are_plane_columns(self, k, stride, dtype):
        x = np.random.default_rng(3).uniform(-1, 1, (3, 2, 8, 8)).astype(dtype)
        win = T.windows(x, k, stride)
        idx = np.array([0, 5, 6, 17, win[..., 0, 0].size - 1])
        columns = T.window_columns(win, idx)
        assert columns.shape == (k * k, idx.size) and columns.dtype == dtype
        assert np.array_equal(columns, T.window_planes(win).reshape(k * k, -1)[:, idx])

    def test_fold_walks_each_window_row_major(self):
        # 1e16 + 1.0 rounds back to 1e16: the (u, v) walk sums to 0.0, a (v, u) walk to 1.0
        planes = T.window_planes(T.windows(np.array([[1e16, 1.0], [-1e16, 0.0]]).reshape(1, 1, 2, 2), 2, 2))
        total = functools.reduce(np.add, planes, np.zeros((1, 1, 1, 1)))
        assert total.shape == (1, 1, 1, 1) and total[0, 0, 0, 0] == 0.0

    @pytest.mark.parametrize("n, budget, starts", [(5, 2, [0, 2, 4]), (4, 2, [0, 2]), (3, 1, [0, 1, 2]), (3, 0.5, [0, 1, 2]), (3, 9, [0]), (0, 2, [])])
    def test_image_blocks_tile_the_batch(self, monkeypatch, n, budget, starts):
        # ``budget`` images' worth of window entries per block; a block holds one image at least
        win = T.windows(np.zeros((n, 2, 6, 6)), 2, 2)
        monkeypatch.setattr(T, "IMAGE_BLOCK", int(budget * 2 * 3 * 3 * 4))
        blocks = T.image_blocks(win)
        assert [b.start for b in blocks] == starts
        covered = np.concatenate([np.arange(n)[b] for b in blocks]) if blocks else np.arange(0)
        assert np.array_equal(covered, np.arange(n))

    def test_non_tiling_rejected(self):
        with pytest.raises(ValueError, match="does not tile"):
            T.windows(np.zeros((1, 1, 3, 3)), 4, 1)

    @pytest.mark.parametrize("k, stride", [(2, 0), (2, -1), (0, 1), (-1, 2)])
    def test_bad_k_or_stride_rejected(self, k, stride):
        with pytest.raises(ValueError, match=f"k={k} and stride={stride}"):
            T.windows(np.zeros((1, 1, 4, 4)), k, stride)


class TestActivations:
    def test_silu_zero(self):
        assert T.silu_values(np.array([0.0]))[0] == 0.0

    def test_silu_one(self):
        assert T.silu_values(np.array([1.0]))[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)

    def test_relu_negative(self):
        assert T.activate("relu", tensor([-3.0])).data[0] == 0.0

    def test_tanh(self):
        np.testing.assert_allclose(T.activate("tanh", tensor([0.5])).data, np.tanh([0.5]))

    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradient_is_upstream_times_derivative(self, kind, dtype):
        rng = np.random.default_rng(6)
        x = np.concatenate([[0.0, -0.0, 1e-310, -1e-310, 20.0, -20.0], rng.normal(0, 2, 200)]).astype(dtype)
        g = rng.normal(0, 1, x.shape).astype(dtype)
        xt = T.Tensor(x, requires_grad=True)
        T.reduce_sum(T.mul(T.activate(kind, xt), T.Tensor(g))).backward()
        out = np.maximum(x, 0.0) if kind == "relu" else np.tanh(x)
        dact = (x > 0).astype(dtype) if kind == "relu" else 1.0 - out * out
        want = np.zeros_like(x)
        want += g * dact  # as accumulate_grad adds it, which turns -0.0 into 0.0
        assert xt.grad.dtype == dtype
        assert xt.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_matches_two_branch_formula(self, dtype):
        def two_branch(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        special = [0.0, np.inf, np.nan, 1e-310, 36.7, 745.2, 800.0, 1.0, 1e-3]
        values = np.array(special + [-v for v in special], dtype=dtype)  # -nan has its sign bit set
        z = np.concatenate([values, np.random.default_rng(12).normal(0, 20, 400).astype(dtype)])
        with np.errstate(over="ignore", under="ignore"):
            got, want = T._sigmoid(z), two_branch(z)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got.view(f"u{z.itemsize}"), want.view(f"u{z.itemsize}"))  # every bit, NaNs too

    def test_silu_extreme_inputs_stay_finite(self):
        out = T.silu_values(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_silu_keeps_the_product_bits_on_finite_and_nan_inputs(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        edges = [0.0, 800.0, 1e3, tiny, 3 * tiny, np.finfo(dtype).smallest_normal, 1.0, np.nan]
        z = np.array(edges + [-v for v in edges], dtype=dtype)  # -nan has its sign bit set
        z = np.concatenate([z, np.random.default_rng(13).normal(0, 20, 200).astype(dtype)])
        s = T._sigmoid(z)
        bits = f"u{z.itemsize}"
        assert np.array_equal(T.silu_values(z).view(bits), (z * s).view(bits))
        assert np.array_equal(T.silu_derivative(z).view(bits), (s * (1.0 + z * (1.0 - s))).view(bits))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_silu_at_infinity_is_its_value_at_a_large_input(self, dtype):
        # unclipped, -inf * 0 and inf * 0 give NaN and a RuntimeWarning, which the test configuration makes an error
        z = np.array([-np.inf, np.inf], dtype=dtype)
        large = np.array([-1e3, 1e3], dtype=dtype)
        assert T.silu_values(z).tobytes() == np.array([-0.0, np.inf], dtype=dtype).tobytes()
        assert T.silu_values(z[:1]).tobytes() == T.silu_values(large[:1]).tobytes()
        assert T.silu_derivative(z).tobytes() == T.silu_derivative(large).tobytes()
        assert T.silu_derivative(z).tobytes() == np.array([-0.0, 1.0], dtype=dtype).tobytes()


class TestSoftmaxCrossEntropy:
    def test_uniform(self):
        loss = T.softmax_cross_entropy(tensor([[0.0, 0.0]]), [0])
        assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)

    def test_stabilized(self):
        loss = T.softmax_cross_entropy(tensor([[1000.0, 0.0]]), [0])
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_against_high_precision_oracle(self):
        from mpmath import mp, mpf, exp, log

        mp.dps = 50
        rng = np.random.default_rng(11)
        logits = rng.uniform(-5, 5, (4, 10))
        labels = rng.integers(0, 10, 4)
        total = mpf(0)
        for row, lbl in zip(logits, labels):
            denom = sum(exp(mpf(z)) for z in row)
            total += -(mpf(row[lbl]) - log(denom))
        expected = float(total / 4)
        got = float(T.softmax_cross_entropy(tensor(logits), labels).data)
        assert abs(got - expected) / abs(expected) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            T.softmax_cross_entropy(tensor([[0.0, 0.0]]), [2])


class TestBackward:
    def test_sum_gives_ones(self):
        x = tensor([[1.0, -2.0], [3.0, 0.5]])
        T.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_quadratic(self):
        x = tensor([1.0, 2.0])
        T.reduce_sum(T.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_double_backward_errors(self):
        x = tensor([1.0])
        loss = T.reduce_sum(x)
        loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()
        assert x.grad.tolist() == [1.0]  # refused before any gradient changed

    def test_backward_on_a_tensor_without_grad_errors(self):
        x = tensor([1.0, -2.0])
        with T.no_grad():
            loss = T.reduce_sum(T.mul(x, x))
        with pytest.raises(RuntimeError, match="does not require grad"):
            loss.backward()
        assert x.grad is None
        with pytest.raises(RuntimeError, match="does not require grad"):
            T.reduce_sum(tensor([3.0], grad=False)).backward()

    def test_backward_through_a_freed_subgraph_errors(self):
        # the second walk would stop at the freed h as at a leaf and miss the second loss's share of x.grad
        x = tensor([1.0, -2.0])
        h = T.mul(x, 2.0)
        T.reduce_sum(h).backward()
        second = T.reduce_sum(T.mul(h, h))
        with pytest.raises(RuntimeError, match="freed"):
            second.backward()
        assert x.grad.tolist() == [2.0, 2.0]

    def test_walk_frees_the_graph_and_keeps_leaf_gradients(self):
        x, w = tensor([1.0, -2.0]), tensor([0.5, 3.0])
        h = T.mul(x, w)
        loss = T.reduce_sum(T.activate("tanh", h))
        loss.backward()
        for node in (h, loss):
            assert node.grad is None and node._parents == () and node._backward is None and not node.is_leaf
        np.testing.assert_array_equal(x.grad, (1.0 - np.tanh(h.data) ** 2) * w.data)
        np.testing.assert_array_equal(w.grad, (1.0 - np.tanh(h.data) ** 2) * x.data)

    def test_non_scalar_errors(self):
        with pytest.raises(ValueError, match="scalar"):
            tensor([1.0, 2.0]).backward()

    def test_fanout_accumulates(self):
        x = tensor([1.0, 2.0])
        loss = T.reduce_sum(T.add(T.mul(x, 2.0), T.mul(x, 3.0)))
        loss.backward()
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])

    def test_three_consumers_and_a_diamond(self, handed):
        # x feeds u, v and w; u feeds both y and z, which meet again in y * z
        x = tensor([1.0, 2.0, -0.5])
        u = T.mul(x, 2.0)
        v = T.mul(x, x)
        w = T.add(x, 1.0)
        y, z = T.mul(u, 3.0), T.add(u, 5.0)
        T.reduce_sum(T.add(T.add(T.mul(y, z), v), w)).backward()
        # d/dx of 6x(2x + 5) + x^2 + x + 1 is 26x + 31
        np.testing.assert_array_equal(x.grad, [57.0, 83.0, 18.0])
        # u's two consumers' shares sum to d/du of 3u(u + 5), as its rule read it; the walk then freed it
        u_grad = [copy for t, _, copy in handed if t is u][-1]
        np.testing.assert_array_equal(u_grad, 6 * u.data + 15)
        assert u.grad is None

    def test_fresh_gradient_is_taken_without_a_copy(self):
        x = tensor([1.0, 2.0, 3.0])
        g = np.array([0.5, np.nan, -0.0])
        T.accumulate_grad(x, g)
        assert x.grad is g
        assert x.grad[2] == 0.0 and not np.signbit(x.grad[2])  # -0 comes out +0, as on zeros
        T.accumulate_grad(x, np.array([1.0, 1.0, 2.0]))  # a second gradient is added
        assert x.grad is g and x.grad[0] == 1.5 and np.isnan(x.grad[1]) and x.grad[2] == 2.0

    def test_fresh_gradient_of_another_dtype_is_cast(self):
        x = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        T.accumulate_grad(x, np.array([0.1, -0.0]))
        assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.float32([0.1, 0.0]))
        assert not np.signbit(x.grad[1])
        y = T.Tensor(np.ones(2))
        T.accumulate_grad(y, np.ones(2))  # no gradient wanted
        assert y.grad is None

    @pytest.fixture
    def handed(self, monkeypatch):
        """(tensor, its gradient array, a copy of it) after each ``accumulate_grad`` call, in walk order.

        The walk frees non-leaf gradients, so the tests read them here; the list keeps every one alive.
        """
        calls, accumulate = [], T.accumulate_grad

        def recording(t, g):
            accumulate(t, g)
            if t.grad is not None:
                calls.append((t, t.grad, t.grad.copy()))

        monkeypatch.setattr(T, "accumulate_grad", recording)
        return calls

    @staticmethod
    def assert_no_two_grads_share_memory(handed):
        grads = list({id(t): (t.node_id, g) for t, g, _ in handed}.values())
        assert len(grads) > 1
        for i, (a_id, a) in enumerate(grads):
            for b_id, b in grads[i + 1 :]:
                assert not np.shares_memory(a, b), (a_id, b_id)

    def test_no_two_gradients_share_memory(self, handed):
        rng = np.random.default_rng(8)
        x = tensor(rng.uniform(0, 1, (2, 1, 8, 8)))
        kernels, bias = tensor(rng.normal(0, 0.5, (3, 1, 3, 3))), tensor(rng.normal(0, 0.1, 3))
        h = T.activate("relu", T.conv2d(x, kernels, bias))
        h = T.add(h, h)  # a tensor added to itself
        fuzzy = PoolConfig(kind="fuzzy", membership=MembershipParams(r_max=0.5))  # fuzzifies windows above 1/12
        pooled = [pool(h, config) for config in (PoolConfig(kind="max"), PoolConfig(kind="average"), fuzzy)]
        flat = T.flatten(T.add(T.add(pooled[0], pooled[1]), pooled[2]))
        w, b = tensor(rng.normal(0, 0.3, (27, 5))), tensor(rng.normal(0, 0.1, 5))
        hidden = T.activate("tanh", T.bias_add(T.matmul(flat, w), b))
        loss = T.softmax_cross_entropy(kan_layer_forward(hidden, kan_init(5, 4, seed=2)), [1, 3])
        loss.backward()
        self.assert_no_two_grads_share_memory(handed)

    @pytest.mark.parametrize("head", HEADS)
    def test_no_two_gradients_of_a_model_share_memory(self, head, handed):
        model = build(ModelConfig(head=head, pooling=PoolConfig(kind="fuzzy", membership=MembershipParams(r_max=0.5))))
        x = T.Tensor(np.random.default_rng(9).uniform(0, 1, (2, 1, 32, 32)), requires_grad=True)
        loss = T.softmax_cross_entropy(model.forward(x), [4, 7])
        loss.backward()
        self.assert_no_two_grads_share_memory(handed)

    def test_forward_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (2, 2, 6, 6))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        a = T.conv2d(tensor(x), tensor(k), tensor(np.zeros(3))).data
        b = T.conv2d(tensor(x), tensor(k), tensor(np.zeros(3))).data
        assert np.array_equal(a, b)


class TestNoGrad:
    @pytest.mark.parametrize("head", HEADS)
    def test_model_forward_wires_no_graph_and_keeps_the_bits(self, head):
        model, images, _ = batch32_step(head, "fuzzy")
        wired = model.forward(images)
        with T.no_grad():
            bare = model.forward(images)
        assert wired.requires_grad and wired._parents
        assert not bare.requires_grad and bare._parents == () and bare._backward is None
        assert bare.data.dtype == wired.data.dtype and bare.data.tobytes() == wired.data.tobytes()

    def test_nests_and_restores_on_an_exception(self):
        x = tensor([1.0, 2.0])
        with T.no_grad():
            with T.no_grad():
                assert not T.mul(x, 2.0).requires_grad
            assert not T.mul(x, 2.0).requires_grad  # the inner exit restores the outer no_grad
        assert T.mul(x, 2.0).requires_grad
        with pytest.raises(KeyError):
            with T.no_grad():
                raise KeyError("leaves the block")
        assert T.mul(x, 2.0)._parents == (x,)


class TestParameterStore:
    def test_zero_grad_zeroes_a_view_and_keeps_it(self):
        a, b = tensor([1.0, -2.0]), tensor([[3.0]])
        store = T.ParameterStore([("a", a), ("b", b)], np.float64)
        T.reduce_sum(T.mul(a, a)).backward()
        view = a.grad
        assert store.grads.tolist() == [2.0, -4.0, 0.0]
        a.zero_grad()
        assert a.grad is view and np.shares_memory(view, store.grads) and not store.grads.any()
        store.check()
        x = tensor([1.0])
        x.zero_grad()
        assert x.grad is None  # no gradient yet: the next backward's rule hands over its own


class TestGradientCheck:
    def test_rejects_tensor_without_grad(self):
        x = T.Tensor(np.ones(3))
        with pytest.raises(ValueError, match="require grad"):
            gradient_check(lambda: T.reduce_sum(T.mul(x, x)), [x])

    def test_nan_analytic_gradient_fails(self):
        x = tensor([1.0, 2.0])

        def build():
            return T.from_op(x.data.sum(), (x,), lambda g: T.accumulate_grad(x, np.full(x.shape, np.nan)))

        assert not gradient_check(build, [x]) < GRAD_TOL

    def test_rejects_tensor_an_op_produced(self):
        # loss_builder recomputes an op's output, and the walk frees its gradient: the check would pass at 0 against 0
        x = tensor([1.0, 2.0])
        h = T.mul(x, 2.0)
        with pytest.raises(ValueError, match=r"tensors\[1\] Tensor\(shape=\(2,\).*produced by an op"):
            gradient_check(lambda: T.reduce_sum(T.mul(T.mul(x, 2.0), x)), [x, h])
        T.reduce_sum(h).backward()  # released: no rule is left, and it is still no leaf
        with pytest.raises(ValueError, match=r"tensors\[0\].*produced by an op"):
            gradient_check(lambda: T.reduce_sum(T.mul(T.mul(x, 2.0), x)), [h])

    def test_unreached_tensor_has_zero_gradient(self):
        x, unused = tensor([1.0, 2.0]), tensor([3.0])
        assert gradient_check(lambda: T.reduce_sum(T.mul(x, x)), [x, unused]) < GRAD_TOL


class TestReduceMean:
    @pytest.mark.parametrize("axis, count", [((0, 2), 8), ((2, 0), 8), (1, 3), (None, 24)], ids=["0,2", "2,0", "1", "all"])
    def test_any_axis_divides_by_the_reduced_count(self, axis, count):
        rng = np.random.default_rng(29)
        x = tensor(rng.uniform(-2, 2, (2, 3, 4)))
        m = T.reduce_mean(x, axis=axis)
        expected = x.data.mean(axis=axis)
        assert m.shape == expected.shape and m.data.tobytes() == expected.tobytes()
        g = rng.uniform(-2, 2, expected.shape)
        T.reduce_sum(T.mul(m, T.Tensor(g))).backward()
        spread = np.broadcast_to(np.expand_dims(g / count, axis if axis is not None else (0, 1, 2)), x.shape)
        assert x.grad.tobytes() == spread.tobytes()


class TestPrimitiveGradients:
    """Central finite differences vs analytic gradients, rel err < ``GRAD_TOL``."""

    def test_elementwise_ops(self):
        rng = np.random.default_rng(21)
        a = tensor(rng.uniform(-2, 2, (3, 4)))
        b = tensor(rng.uniform(0.5, 2, (3, 4)))

        def build():
            s = T.add(a, b)
            s = T.mul(s, T.add(a, 0.5))
            s = T.mul(s, b)
            return T.reduce_sum(s)

        assert gradient_check(build, [a, b]) < GRAD_TOL

    def test_matmul(self):
        rng = np.random.default_rng(22)
        a = tensor(rng.uniform(-2, 2, (3, 4)))
        b = tensor(rng.uniform(-2, 2, (4, 2)))
        assert gradient_check(lambda: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b]) < GRAD_TOL

    def test_conv2d(self):
        rng = np.random.default_rng(23)
        x = tensor(rng.uniform(-2, 2, (2, 2, 6, 6)))
        k = tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
        b = tensor(rng.uniform(-1, 1, 3))

        def build():
            out = T.conv2d(x, k, b)
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x, k, b]) < GRAD_TOL

    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    def test_activations(self, kind):
        rng = np.random.default_rng(24)
        values = rng.uniform(-2, 2, (4, 5))
        if kind == "relu":
            values[np.abs(values) < 1e-2] = 0.5  # keep away from the kink
        x = tensor(values)
        assert gradient_check(lambda: T.reduce_sum(T.mul(T.activate(kind, x), T.activate(kind, x))), [x]) < GRAD_TOL

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(25)
        logits = tensor(rng.uniform(-2, 2, (4, 6)))
        labels = rng.integers(0, 6, 4)
        assert gradient_check(lambda: T.softmax_cross_entropy(logits, labels), [logits]) < GRAD_TOL

    def test_shape_ops(self):
        rng = np.random.default_rng(26)
        x = tensor(rng.uniform(-2, 2, (2, 2, 4, 4)))

        def build():
            out = T.reshape(T.flatten(x), (4, -1))
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x]) < GRAD_TOL

    def test_reductions(self):
        rng = np.random.default_rng(27)
        x = tensor(rng.uniform(-2, 2, (5, 4)))

        def build():
            s = T.reduce_mean(x, axis=0)
            r = T.reduce_sum(x, axis=1)
            m = T.reduce_mean(x)
            return T.add(T.add(T.reduce_sum(T.mul(s, s)), T.reduce_sum(T.mul(r, r))), T.mul(m, m))

        assert gradient_check(build, [x]) < GRAD_TOL

    def test_bias_add(self):
        rng = np.random.default_rng(28)
        x = tensor(rng.uniform(-2, 2, (3, 4)))
        b = tensor(rng.uniform(-2, 2, 4))
        assert gradient_check(lambda: T.reduce_sum(T.mul(T.bias_add(x, b), T.bias_add(x, b))), [x, b]) < GRAD_TOL
