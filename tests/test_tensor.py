import math

import numpy as np
import pytest

import fuzzykan.tensor as T
from fuzzykan.checks import gradient_check


def tensor(values, grad=True):
    return T.Tensor(np.asarray(values, dtype=float), requires_grad=grad)


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

    def test_div_by_zero_debug(self):
        T.set_debug_checks(True)
        try:
            with pytest.raises(ZeroDivisionError):
                T.div(tensor([1.0]), tensor([0.0]))
        finally:
            T.set_debug_checks(False)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            T.elementwise("pow", tensor([1.0]), 2.0)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(tensor(np.eye(2)), tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_times_column(self):
        out = T.matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_exact_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2, 2, (5, 7))
        b = rng.uniform(-2, 2, (7, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                acc = 0.0
                for k in range(7):
                    acc += a[i, k] * b[k, j]
                expected[i, j] = acc
        out = T.matmul(tensor(a), tensor(b))
        assert np.array_equal(out.data, expected)

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

    def test_exact_against_nested_loops(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (2, 3, 8, 8))
        kernels = rng.uniform(-1, 1, (4, 3, 3, 3))
        bias = rng.uniform(-1, 1, 4)
        out = T.conv2d(tensor(x), tensor(kernels), tensor(bias)).data
        expected = np.zeros((2, 4, 6, 6))
        for n in range(2):
            for f in range(4):
                for i in range(6):
                    for j in range(6):
                        acc = 0.0
                        for c in range(3):
                            for u in range(3):
                                for v in range(3):
                                    acc += x[n, c, i + u, j + v] * kernels[f, c, u, v]
                        expected[n, f, i, j] = bias[f] + acc
        assert np.abs(out - expected).max() < 1e-12
        assert np.array_equal(out, expected)  # same summation order

    def test_stride(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1, 1, 6, 6))
        kernels = rng.uniform(-1, 1, (2, 1, 2, 2))
        out = T.conv2d(tensor(x), tensor(kernels), None, stride=2)
        assert out.shape == (1, 2, 3, 3)

    def test_non_integral_extent(self):
        with pytest.raises(ValueError, match="does not tile"):
            T.conv2d(tensor(np.ones((1, 1, 5, 5))), tensor(np.ones((1, 1, 2, 2))), None, stride=2)


class TestWindows:
    @pytest.mark.parametrize("shape, k, stride", [((2, 3, 8, 8), 2, 2), ((2, 3, 7, 7), 3, 1), ((1, 2, 9, 9), 5, 1)])
    def test_view_matches_slices(self, shape, k, stride):
        x = np.random.default_rng(1).uniform(-1, 1, shape)
        win = T.windows(x, k, stride)
        n, c, ho, wo = win.shape[:4]
        assert win.shape[4:] == (k, k)
        for i in range(ho):
            for j in range(wo):
                window = x[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
                assert np.array_equal(win[:, :, i, j], window)

    @pytest.mark.parametrize("shape, k, stride", [((2, 3, 8, 8), 2, 2), ((2, 3, 7, 7), 3, 1), ((1, 2, 9, 9), 5, 1)])
    def test_scatter_is_adjoint(self, shape, k, stride):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, shape)
        win = T.windows(x, k, stride)
        y = rng.uniform(-1, 1, win.shape)
        lhs = np.sum(win * y)
        rhs = np.sum(x * T.scatter_windows(y, x.shape, stride))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_view_is_read_only(self):
        win = T.windows(np.zeros((1, 1, 4, 4)), 2, 2)
        with pytest.raises(ValueError):
            win[0, 0, 0, 0, 0, 0] = 1.0

    def test_non_tiling_rejected(self):
        with pytest.raises(ValueError, match="does not tile"):
            T.windows(np.zeros((1, 1, 3, 3)), 4, 1)


class TestActivations:
    def test_silu_zero(self):
        assert T.activate("silu", tensor([0.0])).data[0] == 0.0

    def test_silu_one(self):
        assert T.activate("silu", tensor([1.0])).data[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)

    def test_relu_negative(self):
        assert T.activate("relu", tensor([-3.0])).data[0] == 0.0

    def test_tanh(self):
        np.testing.assert_allclose(T.activate("tanh", tensor([0.5])).data, np.tanh([0.5]))

    def test_silu_extreme_inputs_stay_finite(self):
        out = T.activate("silu", tensor([-1000.0, 1000.0]))
        assert np.isfinite(out.data).all()


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

    def test_non_scalar_errors(self):
        with pytest.raises(ValueError, match="scalar"):
            tensor([1.0, 2.0]).backward()

    def test_fanout_accumulates(self):
        x = tensor([1.0, 2.0])
        loss = T.reduce_sum(T.add(T.mul(x, 2.0), T.mul(x, 3.0)))
        loss.backward()
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])

    def test_forward_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (2, 2, 6, 6))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        a = T.conv2d(tensor(x), tensor(k), None).data
        b = T.conv2d(tensor(x), tensor(k), None).data
        assert np.array_equal(a, b)


class TestGradientCheck:
    def test_rejects_tensor_without_grad(self):
        x = T.Tensor(np.ones(3))
        with pytest.raises(ValueError, match="require grad"):
            gradient_check(lambda: T.reduce_sum(T.mul(x, x)), [x])

    def test_nan_analytic_gradient_fails(self):
        x = tensor([1.0, 2.0])

        def build():
            return T.from_op(x.data.sum(), (x,), lambda g: T.accumulate_grad(x, np.full(x.shape, np.nan)))

        assert not gradient_check(build, [x]) < 1e-4

    def test_unreached_tensor_has_zero_gradient(self):
        x, unused = tensor([1.0, 2.0]), tensor([3.0])
        assert gradient_check(lambda: T.reduce_sum(T.mul(x, x)), [x, unused]) < 1e-4


class TestPrimitiveGradients:
    """Central finite differences vs analytic gradients, rel err < 1e-4."""

    def test_elementwise_ops(self):
        rng = np.random.default_rng(21)
        a = tensor(rng.uniform(-2, 2, (3, 4)))
        b = tensor(rng.uniform(0.5, 2, (3, 4)))  # away from div singularities

        def build():
            s = T.add(a, b)
            s = T.mul(s, T.sub(a, 0.5))
            s = T.div(s, b)
            return T.reduce_sum(s)

        assert gradient_check(build, [a, b]) < 1e-4

    def test_matmul(self):
        rng = np.random.default_rng(22)
        a = tensor(rng.uniform(-2, 2, (3, 4)))
        b = tensor(rng.uniform(-2, 2, (4, 2)))
        assert gradient_check(lambda: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b]) < 1e-4

    def test_conv2d(self):
        rng = np.random.default_rng(23)
        x = tensor(rng.uniform(-2, 2, (2, 2, 6, 6)))
        k = tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
        b = tensor(rng.uniform(-1, 1, 3))

        def build():
            out = T.conv2d(x, k, b)
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x, k, b]) < 1e-4

    @pytest.mark.parametrize("kind", ["relu", "silu", "tanh"])
    def test_activations(self, kind):
        rng = np.random.default_rng(24)
        values = rng.uniform(-2, 2, (4, 5))
        if kind == "relu":
            values[np.abs(values) < 1e-2] = 0.5  # keep away from the kink
        x = tensor(values)
        assert gradient_check(lambda: T.reduce_sum(T.mul(T.activate(kind, x), T.activate(kind, x))), [x]) < 1e-4

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(25)
        logits = tensor(rng.uniform(-2, 2, (4, 6)))
        labels = rng.integers(0, 6, 4)
        assert gradient_check(lambda: T.softmax_cross_entropy(logits, labels), [logits]) < 1e-4

    def test_shape_ops(self):
        rng = np.random.default_rng(26)
        x = tensor(rng.uniform(-2, 2, (2, 2, 4, 4)))

        def build():
            out = T.reshape(T.flatten(x), (4, -1))
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x]) < 1e-4

    def test_reductions(self):
        rng = np.random.default_rng(27)
        x = tensor(rng.uniform(-2, 2, (5, 4)))

        def build():
            s = T.reduce_mean(x, axis=0)
            r = T.reduce_sum(x, axis=1)
            m = T.reduce_mean(x)
            return T.add(T.add(T.reduce_sum(T.mul(s, s)), T.reduce_sum(T.mul(r, r))), T.mul(m, m))

        assert gradient_check(build, [x]) < 1e-4

    def test_bias_add(self):
        rng = np.random.default_rng(28)
        x = tensor(rng.uniform(-2, 2, (3, 4)))
        b = tensor(rng.uniform(-2, 2, 4))
        assert gradient_check(lambda: T.reduce_sum(T.mul(T.bias_add(x, b), T.bias_add(x, b))), [x, b]) < 1e-4
