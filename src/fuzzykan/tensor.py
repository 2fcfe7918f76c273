"""Dense N-dimensional tensors with reverse-mode automatic differentiation.

Every layer in the library is a composition of the primitives defined here,
so gradients of arbitrary model compositions are obtained mechanically by
calling ``backward()`` on a scalar loss.

Numerics policy: a tensor keeps a float32 or float64 array's dtype and
turns other data into float64, so a model computes in the dtype
``model.build`` gives its parameters.  The forward reductions of ``matmul``
and ``conv2d`` accumulate in strict sequential order so that they agree
bit-for-bit with naive nested-loop reference implementations.  The one
exception is a 1x1 ``matmul`` output, a single dot product, which einsum
reduces with unrolled partial sums.

``conv2d`` lays its im2col out as [(c,u,v), N, (i,j)] and contracts it with
one non-optimized einsum into a C-ordered [N, F, (i,j)] output.  The
einsum's inner loop is then an axpy along the Ho*Wo output pixels, and the
reduction index (c,u,v) only selects which axpy runs next, so each output
still adds its terms one at a time in ascending (c,u,v) order, from 0, as
the nested loops do.  The output array is passed in (``out=``): einsum would
otherwise allocate it in its operands' (f, n, (i,j)) memory order, and that
layout would flow on through the activation into the gradient.  The
backward keeps the row-major formulas' operands.  It copies the gradient
into a C-ordered [(n,i,j), F] matrix, whose rows the bias gradient sums in
sequence (an F-ordered view would sum them pairwise), and the kernel
gradient is one GEMM of that matrix against the free [(n,i,j), (c,u,v)]
view of the im2col.

This module alone knows the k-by-k window layout.  ``windows`` is the checked
strided [N,C,Ho,Wo,k,k] view, ``fold_windows`` folds each window's entries in
the scalar oracles' row-major (u, v) order, and ``scatter_windows``, the
view's adjoint, adds a per-window gradient back onto the input.  Fuzzy
pooling's below-c mask is a fold too, though its order does not matter: on
the [32,6,14,14,2,2] train pool1 view, ``.all(axis=(-2, -1))`` took 1.8 ms
and the fold 0.18 ms (numpy 2.4.6, one thread).
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

_node_counter = itertools.count()


def default_dtype():
    """The dtype a ``Tensor`` gives data that is not float32 or float64."""
    return np.float64


class Tensor:
    """A dense array plus an optional gradient buffer and graph linkage.

    Tensors created by primitive ops remember their parents and a backward
    rule; ``backward()`` on a scalar walks the recorded graph once in
    reverse creation order, accumulating gradients into every reachable
    tensor that has ``requires_grad`` set.  A tensor with several consumers
    sums their gradients from the last-created consumer to the first.
    """

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(default_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = next(_node_counter)
        self._parents = ()
        self._backward = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(node) into .grad for every reachable node.

        ``self`` must be a scalar.  Calling backward a second time on the
        same node is an error: the graph's saved intermediates are only
        valid for one pass and gradients would double-accumulate.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        if self._backward_done:
            raise RuntimeError("backward already called on this graph; build a fresh graph")

        # a node is created after its parents, so descending node ids are a topological order
        reachable, stack = {}, [self]
        while stack:
            node = stack.pop()
            if node.node_id not in reachable:
                reachable[node.node_id] = node
                stack.extend(node._parents)

        self.grad = np.ones_like(self.data)
        for node_id in sorted(reachable, reverse=True):
            node = reachable[node_id]
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        self._backward_done = True

    # -- operator sugar --------------------------------------------------

    def __matmul__(self, other):
        return matmul(self, other)


def accumulate_grad(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def from_op(data, parents, backward):
    """Wrap an op result, wiring the graph only if a parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _as_operand(b):
    """Split an operand into (tensor-or-None, raw value)."""
    if isinstance(b, Tensor):
        return b, b.data
    return None, float(b)


# -- elementwise arithmetic ----------------------------------------------


# kind -> (forward, gradient for a, gradient for b), each gradient a
# function of the output gradient g and the operand values a and b
_ELEMENTWISE = {
    "add": (operator.add, lambda g, a, b: g, lambda g, a, b: g),
    "mul": (operator.mul, lambda g, a, b: g * b, lambda g, a, b: g * a),
}


def elementwise(kind: str, a: Tensor, b):
    """Elementwise add/mul of equal-shape tensors or tensor-scalar.

    Broadcasting beyond a scalar right operand is deliberately unsupported.
    """
    if kind not in _ELEMENTWISE:
        raise ValueError(f"unknown elementwise kind {kind!r}")
    forward, grad_a, grad_b = _ELEMENTWISE[kind]
    b_t, b_val = _as_operand(b)
    if b_t is not None and b_t.data.size != 1 and b_t.shape != a.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b_t.shape}")
    out_data = forward(a.data, b_val)

    def backward(g):
        accumulate_grad(a, grad_a(g, a.data, b_val))
        if b_t is not None:
            gb = grad_b(g, a.data, b_val)
            accumulate_grad(b_t, gb if b_t.shape == a.shape else gb.sum().reshape(b_t.shape))

    parents = (a,) if b_t is None else (a, b_t)
    return from_op(out_data, parents, backward)


def add(a, b):
    return elementwise("add", a, b)


def mul(a, b):
    return elementwise("mul", a, b)


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D tensors; forward sums over k sequentially."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")

    # with a laid out [k, i], einsum's inner loop is an axpy along an output
    # row (along the column when b has one), and k only selects the next
    # axpy, so each output adds its terms in order from 0 as the triple loop
    # does.  A 1x1 output is one dot product: einsum sums it with unrolled
    # partial sums, which is not that order.
    out_data = np.einsum("ki,kj->ij", np.ascontiguousarray(a.data.T), np.ascontiguousarray(b.data), optimize=False)

    def backward(g):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return from_op(out_data, (a, b), backward)


def windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Strided [N,C,Ho,Wo,k,k] view over the k-by-k windows of [N,C,H,W] (no copy).

    The windows must tile the input exactly; ``scatter_windows`` is the adjoint.
    """
    if k < 1 or stride < 1:
        raise ValueError(f"window size k={k} and stride={stride} must both be >= 1")
    n, c, h, w = x.shape
    if h < k or w < k or (h - k) % stride or (w - k) % stride:
        raise ValueError(
            f"window {k}x{k} with stride {stride} does not tile input {h}x{w} exactly"
        )
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, ho, wo, k, k), (s0, s1, s2 * stride, s3 * stride, s2, s3), writeable=False
    )


def fold_windows(win: np.ndarray, step, acc):
    """Fold ``acc = step(acc, win[..., u, v])`` over every window entry, in row-major (u, v) order."""
    for u in range(win.shape[-2]):
        for v in range(win.shape[-1]):
            acc = step(acc, win[..., u, v])
    return acc


def scatter_windows(dwin: np.ndarray, shape, stride: int) -> np.ndarray:
    """Adjoint of ``windows``: add each window entry back onto its [N,C,H,W] pixel."""
    ho, wo, k = dwin.shape[2], dwin.shape[3], dwin.shape[-1]
    dx = np.zeros(shape, dtype=dwin.dtype)
    for u in range(k):
        for v in range(k):
            dx[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += dwin[..., u, v]
    return dx


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None, stride: int = 1) -> Tensor:
    """Valid (no-padding) 2-D cross-correlation.

    out[n,f,i,j] = bias[f] + sum_{c,u,v} x[n,c,i*s+u,j*s+v] * kernels[f,c,u,v]
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ValueError("conv2d expects input [N,C,H,W] and kernels [F,C,k,k]")
    f, ck, kh, kw = kernels.shape
    if ck != x.shape[1] or kh != kw:
        raise ValueError(f"kernel shape {kernels.shape} incompatible with input {x.shape}")
    k = kh
    win = windows(x.data, k, stride)
    n, c, ho, wo = win.shape[:4]
    p, ckk = ho * wo, c * k * k
    # im2col laid out [(c,u,v), N, (i,j)]: the einsum runs axpys along the
    # output pixels (i,j) and adds each output's terms in ascending (c,u,v)
    # order from 0, the nested-loop order.  Left to itself einsum would
    # allocate its output in (f, n, (i,j)) order; out= keeps it C-ordered NCHW.
    col = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(ckk, n, p)
    w2 = kernels.data.reshape(f, ckk)
    out3 = np.empty((n, f, p), dtype=np.result_type(w2, col))
    np.einsum("fk,knp->nfp", w2, col, optimize=False, out=out3)
    if bias is not None:
        out3 = out3 + bias.data[:, None]
    out_data = out3.reshape(n, f, ho, wo)

    def backward(g):
        # a C-ordered [(n,i,j), f] copy whatever g's layout (module docstring)
        g3 = g.reshape(n, f, p)
        g2 = np.ascontiguousarray(g3.transpose(0, 2, 1)).reshape(n * p, f)
        if bias is not None:
            accumulate_grad(bias, g2.sum(axis=0))
        accumulate_grad(kernels, (g2.T @ col.reshape(ckk, n * p).T).reshape(f, c, k, k))
        if x.requires_grad:
            dwin = np.matmul(w2.T, g3).reshape(n, c, k, k, ho, wo).transpose(0, 1, 4, 5, 2, 3)
            accumulate_grad(x, scatter_windows(dwin, x.shape, stride))

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return from_op(out_data, parents, backward)


# -- activations ----------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; this is 1 / (1 + exp(-z)) for z >= 0 and
    # exp(z) / (1 + exp(z)) below, bit for bit.  -|z| is minimum(z, -z),
    # which keeps the sign bit of a NaN input as those two formulas do.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def silu_values(z: np.ndarray) -> np.ndarray:
    """SiLU on raw arrays: z * sigmoid(z)."""
    return z * _sigmoid(z)


def silu_derivative(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def activate(kind: str, x: Tensor) -> Tensor:
    """Elementwise relu / tanh; the derivative is built only in backward, so a forward alone does no derivative work."""
    if kind == "relu":
        out_data = np.maximum(x.data, 0.0)
    elif kind == "tanh":
        out_data = np.tanh(x.data)
    else:
        raise ValueError(f"unknown activation {kind!r}")

    def backward(g):
        if kind == "relu":
            dact = (x.data > 0).astype(x.data.dtype)  # derivative at 0 taken from the x <= 0 branch
        else:
            dact = 1.0 - out_data * out_data
        accumulate_grad(x, g * dact)

    return from_op(out_data, (x,), backward)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax likelihood over a batch of class indices."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be [N,K], got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(denom)
    loss = -log_probs[np.arange(n), labels].mean()
    softmax = ez / denom

    def backward(g):
        d = softmax.copy()
        d[np.arange(n), labels] -= 1.0
        accumulate_grad(logits, float(g) * d / n)

    return from_op(loss, (logits,), backward)


# -- shape and reduction primitives ---------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def backward(g):
        accumulate_grad(x, g.reshape(x.shape))

    return from_op(out_data, (x,), backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading (batch) dimension."""
    return reshape(x, (x.shape[0], -1))


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    out_data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            accumulate_grad(x, np.broadcast_to(g, x.shape).copy())
        else:
            accumulate_grad(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return from_op(out_data, (x,), backward)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    count = x.size if axis is None else x.shape[axis]
    out_data = x.data.mean(axis=axis)

    def backward(g):
        if axis is None:
            accumulate_grad(x, np.broadcast_to(g / count, x.shape).copy())
        else:
            accumulate_grad(x, np.broadcast_to(np.expand_dims(g / count, axis), x.shape).copy())

    return from_op(out_data, (x,), backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-K bias row to every row of a [N,K] tensor."""
    if x.ndim != 2 or b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ValueError(f"bias_add expects [N,K] and [K], got {x.shape} and {b.shape}")
    out_data = x.data + b.data[None, :]

    def backward(g):
        accumulate_grad(x, g)
        accumulate_grad(b, g.sum(axis=0))

    return from_op(out_data, (x, b), backward)
