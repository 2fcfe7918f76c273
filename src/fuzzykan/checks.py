"""Diagnostic property suites: gradient, pooling-oracle, and spline checks.

These back the `fuzzykan check` CLI subcommand and are reused by the test
suite; the pool-oracle and spline suites hold kernels to ``oracles``.  Gradient
checks compare analytic gradients against central finite differences;
fuzzy-pooling inputs are kept away from membership breakpoints and score
ties, where the piecewise definitions are legitimately non-differentiable.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .kan import SplineGrid, bspline_basis
from .model import ModelConfig, build
from .oracles import pool_window_oracle, spline_oracle
from .pooling import MembershipParams, PoolConfig, fuzzy_scores, pool

GRAD_TOL = 1e-4
SPLINE_ORACLE_TOL = 1e-12
FD_STEP = 1e-5
BREAKPOINT_MARGIN = 1e-3


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case |a - n| / max(|a|, |n|, 1e-3) over all entries."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / scale))


def finite_difference_grad(loss_fn, t: T.Tensor) -> np.ndarray:
    """Central-difference gradient of scalar loss_fn() w.r.t. tensor t, with step ``FD_STEP``."""
    grad = np.zeros_like(t.data)
    flat = t.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + FD_STEP
        up = loss_fn()
        flat[i] = original - FD_STEP
        down = loss_fn()
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * FD_STEP)
    return grad


def gradient_check(loss_builder, tensors) -> float:
    """Max relative error between backward() gradients and finite differences.

    loss_builder() must rebuild the forward graph from the tensors' current
    data and return the scalar loss Tensor.  Each tensor must be a leaf:
    loss_builder recomputes an op's output, so perturbing it moves nothing,
    and the backward frees its gradient.
    """
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            raise ValueError(f"gradient_check needs tensors that require grad, got {t}")
        if not t.is_leaf:
            raise ValueError(f"gradient_check needs leaf tensors, but tensors[{i}] {t} was produced by an op")
        t.zero_grad()
    loss = loss_builder()
    loss.backward()
    # a tensor the loss never reaches has a zero gradient
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    errors = [
        relative_error(a, finite_difference_grad(lambda: float(loss_builder().data), t))
        for t, a in zip(tensors, analytic)
    ]
    return float(np.max(errors))  # a NaN error propagates and fails the check


def _near_breakpoint(x, params: MembershipParams) -> np.ndarray:
    """Entries within ``BREAKPOINT_MARGIN`` of a membership breakpoint; a NaN entry is near every one."""
    return ~np.logical_and.reduce([np.abs(x - p) > BREAKPOINT_MARGIN for p in params.breakpoints()])


def check_pool_oracle():
    """Vectorized 2x2, stride-2 pooling vs the scalar per-window reference, exact match.

    The batch is five images of ``tensor.IMAGE_BLOCK / 2`` window entries
    each, so ``pool`` walks it as two whole image blocks and a partial one,
    and every window on either side of a block seam is checked too.
    Returns (ok, max_abs_diff) over all three pooling kinds; a NaN fails.
    """
    k = 2
    rng = np.random.default_rng(0)
    params = MembershipParams()
    worst = 0.0
    rows = T.IMAGE_BLOCK // (2 * k * k)  # windows per image, in one column
    x = rng.uniform(-1.0, 8.0, (5, 1, rows * k, k))
    patches = x.reshape(-1, k, k)  # every window, in output order
    # half the windows lie wholly below c, negatives included, so fuzzy pooling
    # averages them; every other one of those gets one entry exactly at c
    patches[::2] = rng.uniform(-1.0, params.c, patches[::2].shape)
    patches[::4, 0, 0] = params.c
    for kind in ("max", "average", "fuzzy"):
        config = PoolConfig(kind=kind, k=k, stride=k)
        out = pool(T.Tensor(x), config).data.reshape(-1)
        for w, patch in enumerate(patches):
            expected = pool_window_oracle(patch, kind, params)
            worst = np.maximum(worst, abs(out[w] - expected))  # unlike max(), keeps a NaN
    return bool(worst == 0.0), float(worst)


def check_spline():
    """Partition of unity and non-negativity at 2001 points across the default
    grid's range, and the basis and its derivative against the scalar oracle
    across the extension zones, beyond them and at every knot.

    Returns (ok, unity_deviation, min_value, oracle_error).
    """
    grid = SplineGrid()
    x = np.linspace(grid.lo, grid.hi, 2001)
    basis = bspline_basis(x, grid)
    deviation = float(np.abs(basis.sum(axis=-1) - 1.0).max())
    min_value = float(basis.min())

    knots = grid.knots()
    probe = np.concatenate([np.linspace(knots[0] - grid.step, knots[-1] + grid.step, 401), knots])
    values, deriv = bspline_basis(probe, grid, with_derivative=True)
    ref_values, ref_deriv = spline_oracle(probe, grid)
    oracle_error = float(np.maximum(np.abs(values - ref_values).max(), np.abs(deriv - ref_deriv).max()))

    ok = deviation < 1e-9 and min_value >= -1e-15 and oracle_error <= SPLINE_ORACLE_TOL
    return ok, deviation, min_value, oracle_error


def tiny_fuzzy_kan_setup(seed: int = 0, head: str = "kan", pooling_kind: str = "fuzzy"):
    """A 2-filter, 8x8-input model plus a batch safe for finite differences.

    Scans seeds until every non-smooth point (relu kinks, membership
    breakpoints, argmax/score ties) is comfortably far from the realized
    activations, so central differences are valid.
    """
    for trial in range(seed, seed + 200):
        rng = np.random.default_rng(trial)
        config = ModelConfig(
            dataset="mnist",
            pooling=PoolConfig(kind=pooling_kind, k=2, stride=2),
            head=head,
            head_widths=(3,),
            seed=trial,
        )
        model = build(config, input_hw=8, conv_channels=(2, 2), conv_kernel=(3, 2), n_classes=3)
        images = rng.uniform(0.0, 1.0, (2, 1, 8, 8))
        labels = rng.integers(0, 3, 2)
        if _setup_is_smooth(model, images):
            return model, images, labels
    raise RuntimeError("no finite-difference-safe seed found")


def _setup_is_smooth(model, images) -> bool:
    """Walk ``model.stages`` on ``images``, rejecting inputs near a kink or a tie."""
    h = T.Tensor(images)
    for name, stage in model.stages:
        if name.endswith(".act") and np.abs(h.data).min() <= BREAKPOINT_MARGIN:  # relu kink
            return False
        if name.startswith("pool") and not _pool_input_is_smooth(h.data, model.config.pooling):
            return False
        h = stage(h)
    return True


def _pool_input_is_smooth(values, config: PoolConfig) -> bool:
    """No fuzzy entry near a breakpoint, and no window whose top two entries (max) or scores (fuzzy) are that close."""
    if config.kind == "fuzzy" and _near_breakpoint(values, config.membership).any():
        return False
    if config.kind == "average":
        return True
    ranked = T.window_planes(T.windows(np.asarray(values, dtype=float), config.k, config.stride))
    if config.kind == "fuzzy":
        _, ranked = fuzzy_scores(ranked, config.membership)
    runner_up, top = np.sort(ranked, axis=0)[-2:]
    return not (top - runner_up <= BREAKPOINT_MARGIN).any()


def check_gradients():
    """Finite-difference check of the tiny fuzzy-KAN composite.

    Returns (ok, worst_relative_error).
    """
    model, images, labels = tiny_fuzzy_kan_setup()
    tensors = [t for _, t in model.parameters()]
    x = T.Tensor(images, requires_grad=True)
    tensors.append(x)

    def loss_builder():
        return T.softmax_cross_entropy(model.forward(x), labels)

    worst = gradient_check(loss_builder, tensors)
    return worst < GRAD_TOL, worst

