"""The memory contract: every ``tracemalloc`` budget of the tests, one row of ``BUDGETS`` each, read through ``Window``.

The window rule: every window opens after ``build``, ``AdamW`` and the input are made and any warm-up has run, so the
bytes a model or optimizer owns from construction are outside every budget. A buffer a stage reuses across steps must
be made there, its bytes stated; one made in a step or kept in a module-level cache counts in the first window that
makes it, and a walked graph then holds more than its 64 KiB.

A row is a stage kind, a phase (``held`` when the stage ends, a ``forward`` or ``backward`` peak or transient, an AdamW
``step`` or a ``load`` peak), a case and its arguments (they build the exact input and return each phase's figure and
each unit's bytes), the bound in that unit, and its reason, with the figures measured when it was set.
"""

import tempfile
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

import fuzzykan.tensor as T
from fuzzykan.data import load_dataset
from fuzzykan.kan import kan_init, kan_layer_forward
from fuzzykan.pooling import MembershipParams, PoolConfig, pool
from fuzzykan.training import _BLOCK, AdamW

from conftest import batch32_step, write_random_mnist


class Window:
    """A ``tracemalloc`` window over a with-block; tracing stops on every exit path, an exception's included."""

    read = staticmethod(tracemalloc.get_traced_memory)  # (held, peak) bytes, the peak since the last reset
    reset_peak = staticmethod(tracemalloc.reset_peak)  # start the next phase's peak from the bytes held now

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc_info):
        tracemalloc.stop()


def padded_mnist_load():
    """Loading 2,000 random 28x28 IDX images, which ``load_dataset`` pads to 32x32."""
    with tempfile.TemporaryDirectory() as root:
        write_random_mnist(root, 2000, 28)
        with Window() as window:
            ds = load_dataset("mnist", root, "train")
            _, peak = window.read()
    return {"load": peak}, {"output": ds.images.nbytes}


def kan_forward(dtype):
    """A no-grad KAN layer forward at the eval head's [256, 400] input."""
    layer = kan_init(400, 84, seed=20)
    for t in (layer.coeffs, layer.w_b, layer.w_s):
        t.data = t.data.astype(dtype)
    x = T.Tensor(np.random.default_rng(20).normal(0.0, 1.5, (256, 400)).astype(dtype))
    with T.no_grad(), Window() as window:
        kan_layer_forward(x, layer)
        _, peak = window.read()
    return {"forward": peak}, {"basis rows": x.data.size * layer.grid.num_basis * x.data.itemsize}


def pool_stage(kind, seed):
    """A 2x2 pool (r_max 0.5), then its backward: what the forward holds, and each phase's peak above what it leaves."""
    rng = np.random.default_rng(seed)
    x = T.Tensor(np.maximum(rng.normal(0.0, 0.3, (64, 6, 28, 28)), 0.0), requires_grad=True)
    upstream = T.Tensor(rng.uniform(-1.0, 1.0, (64, 6, 14, 14)))
    config = PoolConfig(kind=kind, membership=MembershipParams(0.5))
    assert (T.windows(x.data, 2, 2) >= config.membership.c).any(axis=(-2, -1)).mean() > 0.5
    with Window() as window:
        out = pool(x, config)
        held, peak = window.read()
        loss = T.reduce_sum(T.mul(out, upstream))
        window.reset_peak()
        loss.backward()
        left, backward_peak = window.read()
    figures = {"held": held, "forward": peak - held, "backward": backward_peak - left}
    return figures, {"output": out.data.nbytes, "blocks": T.IMAGE_BLOCK * x.data.itemsize}


def conv1(seed, needs_grad):
    """A conv1-shaped forward, its bias zero and needing gradients or random and not: held and peak past its output."""
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.uniform(-1, 1, (64, 3, 32, 32)))
    kernels = T.Tensor(rng.uniform(-1, 1, (6, 3, 5, 5)), requires_grad=needs_grad)
    bias = T.Tensor(np.zeros(6) if needs_grad else rng.uniform(-1, 1, 6), requires_grad=needs_grad)
    with Window() as window:
        out = T.conv2d(x, kernels, bias)
        held, peak = window.read()
    figures = {"held": held - out.data.nbytes, "forward": peak - out.data.nbytes}
    return figures, {"blocks": T.IMAGE_BLOCK * out.data.itemsize}


def relu_forward():
    """A ReLU forward over 1,000,000 N(0, 1) entries that need a gradient."""
    x = T.Tensor(np.random.default_rng(3).normal(size=1_000_000), requires_grad=True)
    with Window() as window:
        out = T.activate("relu", x)
        _, peak = window.read()
    return {"forward": peak}, {"output": out.data.nbytes}


def activation_backward(kind):
    """The backward of reduce_sum(activate(kind, x * 1.0)), x [64, 6, 28, 28] N(0, 1)."""
    x = T.Tensor(np.random.default_rng(4).normal(size=(64, 6, 28, 28)), requires_grad=True)
    loss = T.reduce_sum(T.activate(kind, T.mul(x, 1.0)))
    with Window() as window:
        loss.backward()
        _, peak = window.read()
    return {"backward": peak}, {"input": x.data.nbytes}


def model_step(head, kind):
    """A ``batch32_step`` forward and loss, then its backward: the walk's peak, and what the walked graph leaves."""
    model, images, labels = batch32_step(head, kind)
    with Window() as window:
        logits = model.forward(images)
        loss = T.softmax_cross_entropy(logits, labels)
        forward_held, _ = window.read()
        window.reset_peak()
        loss.backward()
        held, peak = window.read()
    assert logits.grad is None and loss.grad is None and logits.data.shape == (32, 10)
    return {"held": held, "backward": peak}, {"KiB": 1024, "forward held": forward_held}


def adamw_step():
    """A warmed-up AdamW step over one f64 parameter of 2 x ``_BLOCK`` + 5 entries."""
    p = T.Tensor(np.zeros(2 * _BLOCK + 5), requires_grad=True)
    opt = AdamW(T.ParameterStore([("big", p)], np.float64))
    p.grad[...] = np.random.default_rng(2).normal(0.0, 1.0, p.shape)
    opt.step()  # warm up
    with Window() as window:
        opt.step()
        _, peak = window.read()
    return {"step": peak}, {"bool blocks": _BLOCK}


Budget = namedtuple("Budget", "kind phase case args bound unit reason")

BUDGETS = [
    Budget("data", "load", padded_mnist_load, (), 1.25, "output", "padding float pixels held both float copies: 1.77"),
    Budget("kan", "forward", kan_forward, ("float64",), 3.0, "basis rows",
           "rows written once: 2.52; padded rows peaked 3.25, and no ``del`` in ``_basis_rows`` 3.41"),
    Budget("kan", "forward", kan_forward, ("float32",), 3.4, "basis rows",
           "rows written once: 3.03; padded rows peaked 3.50, and no ``del`` in ``_basis_rows`` 3.94"),
    Budget("pool", "held", pool_stage, ("max", 32), 1.125 + 0.02, "output",
           "output and a uint8 winner per window; 0.02 (12 KB) is the closures (2-5 KB); an int32 winner is +0.375"),
    Budget("pool", "held", pool_stage, ("average", 32), 1.0 + 0.02, "output", "the output alone: the rule keeps k*k"),
    Budget("pool", "held", pool_stage, ("fuzzy", 32), 1.25 + 0.02, "output",
           "output, a one-byte below-c mask per window, an int8 v* per fuzzified one; an int64 index is about +0.94"),
    Budget("pool", "forward", pool_stage, ("max", 33), 3, "blocks", "batch-sized planes: 7.2"),
    Budget("pool", "backward", pool_stage, ("max", 33), 3, "blocks", "batch-sized planes: 7.2"),
    Budget("pool", "forward", pool_stage, ("average", 33), 3, "blocks", "batch-sized planes: 5.7"),
    Budget("pool", "backward", pool_stage, ("average", 33), 3, "blocks", "batch-sized planes: 5.7"),
    Budget("pool", "forward", pool_stage, ("fuzzy", 33), 9, "blocks", "memberships: 6.7; batch-sized planes: 35"),
    Budget("pool", "backward", pool_stage, ("fuzzy", 33), 9, "blocks", "memberships, slopes: 8.2; batch planes: 35"),
    Budget("conv", "held", conv1, (12, True), 1, "blocks", "a kept [(c,u,v), N, (i,j)] im2col: 12.5x the output"),
    Budget("conv", "forward", conv1, (13, False), 2, "blocks", "out + bias would hold a second output-sized array"),
    Budget("act", "forward", relu_forward, (), 1.5, "output", "an eager derivative's bool mask and f64 copy: 2.1"),
    Budget("act", "backward", activation_backward, ("relu",), 3.5, "input",
           "the sum's broadcast, the derivative, g * dact and its product with 1.0; adding onto zeros was one more"),
    Budget("act", "backward", activation_backward, ("tanh",), 3.5, "input", "as relu"),
    Budget("model", "held", model_step, ("kan", "fuzzy"), 64, "KiB", "a graph that outlived its walk held 11,036"),
    Budget("model", "held", model_step, ("mlp", "max"), 64, "KiB", "a graph that outlived its walk held 7,576"),
    Budget("model", "backward", model_step, ("kan", "fuzzy"), 2, "forward held",
           "the walk frees each node's share as it passes: 1.57; one that kept every gradient peaked at 2.32"),
    Budget("adamw", "step", adamw_step, (), 1, "bool blocks", "isfinite block by block into scratch; whole-array: 2.0"),
]


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: "-".join((b.kind, b.phase, *map(str, b.args))))
def test_budget(budget):
    figures, units = budget.case(*budget.args)
    figure, unit = figures[budget.phase], units[budget.unit]
    assert figure < budget.bound * unit, f"{figure / unit:.3f} {budget.unit}: {budget.reason}"
