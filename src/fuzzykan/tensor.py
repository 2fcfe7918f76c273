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

The second operand of ``add`` and ``mul`` is a number or a tensor of the
first's shape, with no broadcasting, so each gradient has its operand's shape.

``conv2d`` lays its im2col out as [(c,u,v), n, (i,j)] and contracts it with
one non-optimized einsum into a fresh filter-major [F, n, (i,j)] array: the
inner loop is one axpy along all n*Ho*Wo pixels, and the reduction index
(c,u,v) only selects which axpy runs next, so each output adds its terms one
at a time in ascending (c,u,v) order, from +0, as the nested loops do.  One
``np.add`` writes those rows transposed, bias added, into the C-ordered
[N, F, (i,j)] output of dtype ``result_type(input, kernels, bias)``.  The
bias is one [F] entry per filter; any other shape, or none, is refused.

The forward never holds the whole im2col: it contracts the n images of one
``image_blocks`` block at a time.  No output sums across images, so every bit
matches the unblocked contraction.  At the eval conv1 shape the full im2col
is 75 x 256 x 784 doubles (120 MB); a block is 512 KB, so it stays in cache
and is never freshly mapped memory.

The backward keeps the row-major formulas' operands.  It copies the gradient
into a C-ordered [(n,i,j), F] matrix, whose rows the bias gradient sums in
sequence (an F-ordered view would sum them pairwise), and the kernel
gradient is one GEMM of that matrix against the free [(n,i,j), (c,u,v)]
view of the im2col.  The backward rebuilds that full im2col from ``x.data``,
and only when the kernels need a gradient: like every rule on the tape, it
assumes its operands are unchanged until the backward runs.

This module alone knows the k-by-k window layout.  ``windows`` checks that
the windows tile the input and returns numpy's read-only
``sliding_window_view`` [N,C,Ho,Wo,k,k], taken at every stride-th window.
``window_planes`` copies a view (pooling passes one image block of it) into
C-contiguous [k*k, N, C, Ho, Wo] planes, plane u*k+v holding entry (u, v) of
every window: the unrolling of Chellapilla et al. (2006) that conv2d's
im2col already does.  ``window_columns`` gathers the [k*k, m] entries of
some windows from the view, the columns of their planes, without copying the
rest.  Folding planes 0 ... k*k-1 in order (``functools.reduce``) therefore
walks each window's entries in the scalar oracles' row-major (u, v) order,
and ``scatter_windows``, the adjoint of ``window_planes(windows(x))``, adds
gradient planes back onto the input in that order; conv2d's backward hands
it a no-copy [k*k, N, C, Ho, Wo] view of its matmul output.  A plane step is
one contiguous ufunc over every window.  The planes hold the view's numbers
and each fold makes the same operations in the same order, so every value
but a NaN keeps its bits (the ``pooling`` docstring says which NaN).  Fuzzy
pooling's below-c mask is a fold too, though its order does not matter.

``image_blocks`` is the one rule by which ``conv2d`` and every pooling kind
walk a batch: blocks of whole images, each at most ``IMAGE_BLOCK`` window
entries (one image at least).  A window never spans two images, so a
window's output and its gradient depend on its own image alone, and the
adjoint adds onto an image's pixels only that image's windows, in the same
(u, v) order.  Every value and gradient therefore has the bits of one pass
over the whole batch, while each block's temporaries are a few hundred KB
that the allocator hands on to the next block, not batch-sized arrays that
can fault in fresh pages on every call.

A graph lives until one backward walks it.  ``backward`` visits the nodes
in descending creation order and, once a node's rule has run, drops the
node's rule, its parents and, for a non-leaf node, its gradient, as
PyTorch does without ``retain_graph``.  The saved arrays and intermediate
gradients are thus freed as the walk passes them, and only leaf gradients
stay: the parameter-store views and any input with ``requires_grad``.  A
walked node is marked released, and a later ``backward`` that reaches one
(the same root again, or a new loss that shares part of the freed graph)
raises ``RuntimeError`` before any gradient changes.  Inside ``no_grad()``
``from_op`` wires nothing, so a forward whose graph no backward will walk
holds only its outputs.

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

import contextlib
import itertools
import math

import numpy as np

_node_counter = itertools.count()
IMAGE_BLOCK = 65536  # window entries per image block (at least one image): 512 KB in f64
_grad_enabled = True  # False inside ``no_grad``


def default_dtype():
    """The dtype a ``Tensor`` gives data that is not float32 or float64."""
    return np.float64


class Tensor:
    """A dense array plus an optional gradient buffer and graph linkage.

    Tensors created by primitive ops remember their parents and a backward
    rule; ``backward()`` on a scalar walks the recorded graph once in
    reverse creation order, accumulating gradients into every reachable
    tensor that has ``requires_grad`` set, and frees the graph as it goes.
    A tensor with several consumers sums their gradients from the
    last-created consumer to the first.
    """

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(default_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = next(_node_counter)
        self._parents = ()
        self._backward = None
        self._released = False  # a backward walked this node and dropped its rule, parents and gradient

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def is_leaf(self):
        """True unless an op produced this tensor on the tape (it has a rule, or a backward released it)."""
        return self._backward is None and not self._released

    def zero_grad(self):
        """Zero an existing gradient in place (PyTorch's ``set_to_none=False``), so a store's view stays bound."""
        if self.grad is not None:
            self.grad.fill(0)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(node) into .grad for every reachable leaf, freeing the graph on the way.

        ``self`` must be a scalar.  Each node's rule runs once, after every
        consumer's; the node then drops its rule, its parents and, unless it
        is a leaf, its gradient, so after the walk only leaf gradients stay.
        A graph serves one backward: one that reaches a released node (a
        second call on the same root, or a loss that shares part of a walked
        graph) raises ``RuntimeError`` before any gradient changes, as does
        one on a tensor that does not require grad, as in PyTorch.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor that does not require grad: no input requires grad, or no_grad() built it")

        # a node is created after its parents, so descending node ids are a topological order
        reachable, stack = {}, [self]
        while stack:
            node = stack.pop()
            if node._released:
                raise RuntimeError("backward already called on this graph, which it freed; build a fresh graph")
            if node.node_id not in reachable:
                reachable[node.node_id] = node
                stack.extend(node._parents)

        accumulate_grad(self, np.ones_like(self.data))
        for node_id in sorted(reachable, reverse=True):
            node = reachable.pop(node_id)  # so a walked node's data goes once no consumer's rule holds it
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad, node._released = None, (), None, True

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


@contextlib.contextmanager
def no_grad():
    """Inside it no op wires a graph (``torch.no_grad``): outputs have no parents, no rule and no ``requires_grad``.

    It nests, and the previous state comes back however the block is left."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def from_op(data, parents, backward):
    """Wrap an op result, wiring the graph only if a parent needs grad and ``no_grad`` is not in force."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- elementwise arithmetic ----------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """``a + b`` for ``b`` a number or a tensor of ``a``'s shape."""
    if not isinstance(b, Tensor):
        return from_op(a.data + float(b), (a,), lambda g: accumulate_grad(a, g.copy()))
    if b.shape != a.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        accumulate_grad(a, g.copy())
        accumulate_grad(b, g.copy())

    return from_op(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """``a * b`` for ``b`` a number or a tensor of ``a``'s shape."""
    if not isinstance(b, Tensor):
        b = float(b)
        return from_op(a.data * b, (a,), lambda g: accumulate_grad(a, g * b))
    if b.shape != a.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return from_op(a.data * b.data, (a, b), backward)


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
    """Read-only [N,C,Ho,Wo,k,k] view over the k-by-k windows of [N,C,H,W] (no copy).

    The windows must tile the input exactly; ``scatter_windows`` is the adjoint of its ``window_planes``.
    """
    if k < 1 or stride < 1:
        raise ValueError(f"window size k={k} and stride={stride} must both be >= 1")
    _, _, h, w = x.shape
    if h < k or w < k or (h - k) % stride or (w - k) % stride:
        raise ValueError(
            f"window {k}x{k} with stride {stride} does not tile input {h}x{w} exactly"
        )
    return np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def window_planes(win: np.ndarray) -> np.ndarray:
    """One C-contiguous [k*k, N, C, Ho, Wo] copy of a window view: plane u*k+v holds entry (u, v) of every window,
    so a ``functools.reduce`` over the planes walks each window row-major, as the scalar oracles do."""
    k = win.shape[-1]
    return np.ascontiguousarray(win.transpose(4, 5, 0, 1, 2, 3)).reshape(k * k, *win.shape[:4])


def window_columns(win: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The [k*k, m] entries of the windows at flat indices ``flat`` of a view's [N, C, Ho, Wo], in plane order:
    ``window_planes(win).reshape(k*k, -1)[:, flat]``, gathered from the view as a transposed [m, k*k] copy."""
    k = win.shape[-1]
    return win[np.unravel_index(flat, win.shape[:4])].reshape(-1, k * k).T


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


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid (no-padding) 2-D cross-correlation.

    out[n,f,i,j] = bias[f] + sum_{c,u,v} x[n,c,i*s+u,j*s+v] * kernels[f,c,u,v]
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ValueError("conv2d expects input [N,C,H,W] and kernels [F,C,k,k]")
    f, ck, kh, kw = kernels.shape
    if ck != x.shape[1] or kh != kw:
        raise ValueError(f"kernel shape {kernels.shape} incompatible with input {x.shape}")
    if not isinstance(bias, Tensor) or bias.shape != (f,):
        got = bias.shape if isinstance(bias, Tensor) else bias
        raise ValueError(f"conv2d expects kernels [F,C,k,k] and bias [F], got {kernels.shape} and {got}")
    k = kh
    win = windows(x.data, k, stride)
    n, c, ho, wo = win.shape[:4]
    p, ckk = ho * wo, c * k * k
    # im2col laid out [(c,u,v), n, (i,j)]: the einsum runs axpys along a block's
    # n*(i,j) pixels into a filter-major [f, n, (i,j)] block, adding each output's
    # terms in ascending (c,u,v) order from +0.  No output sums across images, so
    # no im2col outlives its block of images (module docstring).
    w2 = kernels.data.reshape(f, ckk)
    out3 = np.empty((n, f, p), dtype=np.result_type(w2, x.data, bias.data))
    for b in image_blocks(win):
        block = np.einsum("fk,knp->fnp", w2, _im2col(win[b]), optimize=False)
        np.add(block.transpose(1, 0, 2), bias.data[:, None], out=out3[b])
    out_data = out3.reshape(n, f, ho, wo)

    def backward(g):
        # a C-ordered [(n,i,j), f] copy whatever g's layout (module docstring)
        g3 = g.reshape(n, f, p)
        g2 = np.ascontiguousarray(g3.transpose(0, 2, 1)).reshape(n * p, f)
        accumulate_grad(bias, g2.sum(axis=0))
        if kernels.requires_grad:
            accumulate_grad(kernels, (g2.T @ _im2col(win).reshape(ckk, n * p).T).reshape(f, c, k, k))
        if x.requires_grad:
            dplanes = np.matmul(w2.T, g3).reshape(n, c, k * k, ho, wo).transpose(2, 0, 1, 3, 4)  # no copy
            accumulate_grad(x, scatter_windows(dplanes, np.zeros(x.shape, dtype=dplanes.dtype), stride))

    return from_op(out_data, (x, kernels, bias), backward)


# -- activations ----------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; this is 1 / (1 + exp(-z)) for z >= 0 and
    # exp(z) / (1 + exp(z)) below, bit for bit.  -|z| is minimum(z, -z),
    # which keeps the sign bit of a NaN input as those two formulas do.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def silu_values(z: np.ndarray) -> np.ndarray:
    """SiLU on raw arrays: z * sigmoid(z).  -inf is clipped to the lowest finite value first, so it gives -0.0, as
    a large negative z does, and not -inf * 0; a finite or NaN z keeps its bits."""
    return np.maximum(z, np.finfo(z.dtype).min) * _sigmoid(z)


def silu_derivative(z: np.ndarray) -> np.ndarray:
    """s * (1 + z * (1 - s)) with s = sigmoid(z), z clipped to the finite range as in ``silu_values``:
    -inf gives -0.0 and +inf gives 1.0, as large finite inputs of their sign do."""
    s = _sigmoid(z)
    big = np.finfo(z.dtype).max
    return s * (1.0 + np.clip(z, -big, big) * (1.0 - s))


def activate(kind: str, x: Tensor) -> Tensor:
    """Elementwise relu / tanh; the derivative is built only in backward, so a forward alone does no derivative work."""
    if kind == "relu":
        out_data = np.maximum(x.data, 0.0)

        def backward(g):
            accumulate_grad(x, g * (x.data > 0))  # the mask is 1.0 or 0.0; at 0 the x <= 0 branch's derivative

    elif kind == "tanh":
        out_data = np.tanh(x.data)

        def backward(g):
            accumulate_grad(x, g * (1.0 - out_data * out_data))

    else:
        raise ValueError(f"unknown activation {kind!r}")
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


def _reduction(x: Tensor, kept: np.ndarray, axis, count) -> Tensor:
    """Wrap ``kept``, a keepdims reduction of ``x`` over ``axis``: the backward spreads ``g / count`` over each
    reduced entry (a sum is a mean over a count of 1)."""

    def backward(g):
        accumulate_grad(x, np.broadcast_to(g.reshape(kept.shape) / count, x.shape).copy())

    return from_op(kept.squeeze(axis), (x,), backward)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    return _reduction(x, x.data.sum(axis=axis, keepdims=True), axis, 1)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    kept = x.data.mean(axis=axis, keepdims=True)
    return _reduction(x, kept, axis, x.size // kept.size if kept.size else 1)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-K bias row to every row of a [N,K] tensor."""
    if x.ndim != 2 or b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ValueError(f"bias_add expects [N,K] and [K], got {x.shape} and {b.shape}")
    out_data = x.data + b.data[None, :]

    def backward(g):
        accumulate_grad(x, g.copy())
        accumulate_grad(b, g.sum(axis=0))

    return from_op(out_data, (x, b), backward)
