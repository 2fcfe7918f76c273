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
layout would flow on through the activation into the gradient.

The forward never holds the whole im2col.  It walks the batch in the image
blocks of ``image_blocks`` and contracts each block's columns, in the same
[(c,u,v), n, (i,j)] layout, into that block's rows of the output.  No output
sums across images, so each output still adds the same terms in the same
ascending (c,u,v) order, and every bit matches the unblocked contraction.
At the eval conv1 shape the full im2col is 75 x 256 x 784 doubles (120 MB);
a block is 512 KB, so it stays in cache and is never freshly mapped memory.
The bias is added into the output in place, unless the bias's dtype is the
wider one: then the sum is a new array of that dtype, as ``out + bias`` is.

The backward keeps the row-major formulas' operands.  It copies the gradient
into a C-ordered [(n,i,j), F] matrix, whose rows the bias gradient sums in
sequence (an F-ordered view would sum them pairwise), and the kernel
gradient is one GEMM of that matrix against the free [(n,i,j), (c,u,v)]
view of the im2col.  The backward rebuilds that full im2col from ``x.data``,
and only when the kernels need a gradient: like every rule on the tape, it
assumes its operands are unchanged until the backward runs.

This module alone knows the k-by-k window layout.  ``windows`` is the checked
strided [N,C,Ho,Wo,k,k] view.  ``window_planes`` copies a view (pooling
passes one image block of it) into C-contiguous [k*k, N, C, Ho, Wo] planes,
plane u*k+v holding entry (u, v) of every window: the unrolling of
Chellapilla et al. (2006) that conv2d's im2col already does.
``fold_windows`` folds planes 0 ... k*k-1, so each window's entries in the
scalar oracles' row-major (u, v) order, and ``scatter_windows``, the adjoint
of ``window_planes(windows(x))``, adds gradient planes back onto the input in
that order; conv2d's backward hands it a no-copy [k*k, N, C, Ho, Wo] view of
its matmul output.  A plane step is one contiguous ufunc over every window,
where a step over the view ran 14-entry inner loops at stride 2 (2-core host,
numpy 2.4.6, one thread): a train pool1 block of 13 images is copied in
0.05 ms, and max-pools in 0.13-0.20 ms against 0.60-0.68 ms for ``argmax``
and ``take_along_axis`` over its windows.  The planes hold the view's
numbers and each fold makes the same operations in the same order, so every
value but a NaN keeps its bits (the ``pooling`` docstring says which NaN).
Fuzzy pooling's below-c mask is a fold too, though its order does not
matter.

``image_blocks`` is the one rule by which ``conv2d`` and every pooling kind
walk a batch: blocks of whole images, each at most ``IMAGE_BLOCK`` window
entries (one image at least).  A window never spans two images, so a
window's output and its gradient depend on its own image alone, and the
adjoint adds onto an image's pixels only that image's windows, in the same
(u, v) order.  Every value and gradient therefore has the bits of one pass
over the whole batch, while each block's temporaries are a few hundred KB
that the allocator hands on to the next block, not batch-sized arrays that
can fault in fresh pages on every call.

Every rule hands a gradient over through ``accumulate_grad``, and the array
belongs to the rule: nothing else holds or reads it afterwards.  A tensor's
first gradient is that array, as PyTorch's ``AccumulateGrad`` steals one
nothing else references, so ``add``, ``reshape`` and ``bias_add``'s input
pass a copy of their output gradient.  Adding 0 to a first gradient in place
turns -0 into +0, so every gradient has the bits it had on zeros.

A model's parameters are views of one ``ParameterStore``: a ``values`` and
a zero-filled ``grads`` array, each parameter a slice in order (PyTorch's
``parameters_to_vector``, kept bound).  The backward adds onto a view, and
``zero_grad`` fills one in place, so the optimizer and the checkpoint read
one array each; ``check`` names a parameter rebound away from its view.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

_node_counter = itertools.count()
IMAGE_BLOCK = 65536  # window entries per image block (at least one image): 512 KB in f64


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
        """Zero an existing gradient in place (PyTorch's ``set_to_none=False``), so a store's view stays bound."""
        if self.grad is not None:
            self.grad.fill(0)

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


class ParameterStore(list):
    """``[(name, Tensor)]`` cast to ``dtype`` and copied, in order, into ``values``; each ``data``/``grad`` is a view."""

    def __init__(self, named, dtype):
        super().__init__(named)
        self.values = np.concatenate([t.data.reshape(-1) for _, t in self], dtype=dtype)
        self.grads = np.zeros(self.values.size, self.values.dtype)  # calloc: untouched until a backward writes
        cuts = np.cumsum([t.size for _, t in self])[:-1]
        for (_, t), data, grad in zip(self, np.split(self.values, cuts), np.split(self.grads, cuts)):
            t.data, t.grad = data.reshape(t.shape), grad.reshape(t.shape)
        self._views = [(t.data, t.grad) for _, t in self]

    def check(self):
        """Raise ``ValueError`` naming a tensor whose ``data`` or ``grad`` is no longer its view."""
        for (name, t), (data, grad) in zip(self, self._views):
            if t.data is not data or t.grad is not grad:
                raise ValueError(f"parameter {name!r} is no longer a view of its parameter store; write into the view")


def accumulate_grad(t: Tensor, g: np.ndarray):
    """Hand ``g`` to ``t``: ``g`` is the calling rule's own, and nothing else holds or reads it afterwards."""
    if not t.requires_grad:
        return
    if t.grad is None:  # t takes g, which then gets 0 added so that a -0 comes out +0
        t.grad, g = np.asarray(g, dtype=t.data.dtype), 0
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
    "add": (operator.add, lambda g, a, b: g.copy(), lambda g, a, b: g.copy()),
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

    The windows must tile the input exactly; ``scatter_windows`` is the adjoint of its ``window_planes``.
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


def window_planes(win: np.ndarray) -> np.ndarray:
    """One C-contiguous [k*k, N, C, Ho, Wo] copy of a window view: plane u*k+v holds entry (u, v) of every window."""
    k = win.shape[-1]
    return np.ascontiguousarray(win.transpose(4, 5, 0, 1, 2, 3)).reshape(k * k, *win.shape[:4])


def fold_windows(planes: np.ndarray, step, acc):
    """Fold ``acc = step(acc, planes[i])`` over planes 0 ... k*k-1, each window's entries in row-major (u, v) order."""
    for plane in planes:
        acc = step(acc, plane)
    return acc


def scatter_windows(planes: np.ndarray, dx: np.ndarray, stride: int) -> np.ndarray:
    """Adjoint of ``window_planes(windows(x))``: add [k*k, N, C, Ho, Wo] planes, in plane order, onto their pixels of the
    [N,C,H,W] ``dx`` in place; returns ``dx``."""
    k = math.isqrt(planes.shape[0])
    ho, wo = planes.shape[3], planes.shape[4]
    for u in range(k):
        for v in range(k):
            dx[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += planes[u * k + v]
    return dx


def image_blocks(win: np.ndarray):
    """Slices of whole images of a window view, each at most ``IMAGE_BLOCK`` window entries, at least one image."""
    n = win.shape[0]
    step = max(1, IMAGE_BLOCK // max(1, win[:1].size))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _im2col(win: np.ndarray) -> np.ndarray:
    """The [(c,u,v), N, (i,j)] columns of an [N,C,Ho,Wo,k,k] window view, C-contiguous."""
    n, c, ho, wo, k, _ = win.shape
    return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(c * k * k, n, ho * wo)


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
    # No output sums across images, so each block of images gets its own
    # columns, and no im2col outlives the forward (module docstring).
    w2 = kernels.data.reshape(f, ckk)
    out3 = np.empty((n, f, p), dtype=np.result_type(w2, x.data))
    for b in image_blocks(win):
        np.einsum("fk,knp->nfp", w2, _im2col(win[b]), optimize=False, out=out3[b])
    if bias is not None:
        # in place, unless a wider bias promotes the sum (module docstring)
        bias_col = bias.data[:, None]
        out3 = np.add(out3, bias_col, out=out3 if np.result_type(out3, bias_col) == out3.dtype else None)
    out_data = out3.reshape(n, f, ho, wo)

    def backward(g):
        # a C-ordered [(n,i,j), f] copy whatever g's layout (module docstring)
        g3 = g.reshape(n, f, p)
        g2 = np.ascontiguousarray(g3.transpose(0, 2, 1)).reshape(n * p, f)
        if bias is not None:
            accumulate_grad(bias, g2.sum(axis=0))
        if kernels.requires_grad:
            accumulate_grad(kernels, (g2.T @ _im2col(win).reshape(ckk, n * p).T).reshape(f, c, k, k))
        if x.requires_grad:
            dplanes = np.matmul(w2.T, g3).reshape(n, c, k * k, ho, wo).transpose(2, 0, 1, 3, 4)  # no copy
            accumulate_grad(x, scatter_windows(dplanes, np.zeros(x.shape, dtype=dplanes.dtype), stride))

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
        accumulate_grad(x, g.reshape(x.shape).copy())

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
        accumulate_grad(x, g.copy())
        accumulate_grad(b, g.sum(axis=0))

    return from_op(out_data, (x, b), backward)
