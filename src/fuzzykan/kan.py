"""Kolmogorov-Arnold layers with B-spline learnable edge activations.

Each edge carries phi(x) = w_b * silu(x) + w_s * sum_i c_i * B_i(x); a layer
output sums its incoming edge functions, and stacking layers composes the
outer/inner univariate functions.

A layer on N samples with `in` inputs, `out` outputs and nb basis functions
per edge contracts by GEMMs over one flattened (input, basis) axis, as
efficient-kan does.  With sil = silu(x), w = (c * w_s)[out, in*nb] and the
output gradient g[N, out]:

    out   = sil @ w_b.T + basis[N, in*nb] @ w.T
    gb    = g.T @ basis                          # [out, in*nb]
    dc    = gb * w_s,  dw_s = sum_i gb * c,  dw_b = g.T @ sil
    dx    = silu'(x) * (g @ w_b) + sum_i (g @ w) * dbasis

One routine, ``_basis_rows``, finds each point's knot interval and local
B-spline values once for ``bspline_basis`` and the layer, and returns the
basis rows with a function that builds dbasis from the same intermediates.
The layer's backward calls it only when x needs a gradient, so a
forward-only evaluation never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class SplineGrid:
    """Uniform extended knot grid for degree-`order` B-splines.

    The knot vector extends `order` uniform steps beyond each end of
    [lo, hi], giving `intervals + order` basis functions that form a
    partition of unity inside the range.
    """

    order: int = 3
    intervals: int = 5
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("spline order must be >= 0")
        if self.intervals < 1:
            raise ValueError("grid must have at least one interval")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"grid range must be finite, got lo={self.lo}, hi={self.hi}")
        if not self.lo < self.hi:
            raise ValueError("grid range must satisfy lo < hi")
        if not math.isfinite(self.step):
            raise ValueError(f"grid step (hi - lo) / intervals must be finite, got {self.step}")

    @property
    def num_basis(self) -> int:
        return self.intervals + self.order

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.intervals

    def knots(self) -> np.ndarray:
        return self.lo + np.arange(-self.order, self.intervals + self.order + 1) * self.step


def bspline_basis(x, grid: SplineGrid, with_derivative: bool = False):
    """B-spline basis values B_i(x) (and optionally dB_i/dx) on the extended knots.

    Works on arrays of any shape; the basis index is appended as a trailing
    axis.  De Boor's local recursion evaluates only the order+1 functions
    that are nonzero on each point's knot interval; the rest of the row is
    exactly zero.  Edge semantics, those of the Cox-de Boor recursion
    (``oracles.bspline_reference``):

    - x lies in interval m when knots[m] <= x < knots[m+1], decided by
      comparison with ``grid.knots()``;
    - x == hi lies in the top in-range interval, which keeps the in-range
      partition of unity closed on the right;
    - values outside [lo, hi] come from the extended knots rather than
      clamping, and a point outside [knots[0], knots[-1]) has a zero row;
    - a NaN or infinite point has a NaN row (a zero row at order 0, whose
      basis is an indicator); the derivative's row is NaN from order 2 on.

    A float32 ``x`` gives float32 rows, computed in float32; anything else
    is taken as float64.
    """
    x = np.asarray(x)
    basis, derivative = _basis_rows(x if x.dtype == np.float32 else x.astype(np.float64, copy=False), grid)
    return (basis, derivative()) if with_derivative else basis


def _basis_rows(x: np.ndarray, grid: SplineGrid):
    """Dense basis rows [..., num_basis] of a float32 or float64 x, and a function building its derivative rows.

    Over the flattened points, values[r] is B_{m-order+r}(x) on each point's
    knot interval m, and lower[r] is the degree-(order-1) B_{m-order+1+r}(x).
    A point outside the extended knots gets m = 0 and zero values.  The values
    have x's dtype; the interval is decided against the float64 knots, exactly.
    """
    k = grid.order
    t = grid.knots()
    flat = x.reshape(-1)
    # by comparison, not floor((x - t[0]) / step): a point one ulp below a
    # knot must not land in the interval above it
    interval = np.searchsorted(t, flat, side="right") - 1
    interval[flat == np.float64(grid.hi)] = grid.intervals + k - 1
    inside = (interval >= 0) & (interval < len(t) - 1)
    interval[~inside] = 0
    # clipped to [0, step] before the divide, so no value rounds below 0 and none overflows
    # (a point past 0.4x the float maximum would); the quotient is the clipped one's, bit for bit
    u = np.clip(flat - t.astype(x.dtype, copy=False)[interval], 0.0, grid.step) / grid.step
    # de Boor's BSPLVB in units of the step: x - t[m+1-j] = u + j - 1 and t[m+j] - x = j - u
    left = [u + (j - 1) for j in range(1, k + 1)]
    right = [j - u for j in range(1, k + 1)]
    values, lower = [inside.astype(x.dtype)], []
    for d in range(1, k + 1):
        lower, values, saved = values, [], 0.0
        for r in range(d):
            temp = lower[r] / d
            values.append(saved + right[r] * temp)
            saved = left[d - 1 - r] * temp
        values.append(saved)
    del u, left, right, inside  # 2*order + 2 point-sized arrays, freed before ``_dense`` allocates the rows

    def derivative():
        # dB_{i,k}/dx = (B_{i,k-1} - B_{i+1,k-1}) / step on uniform knots, from the local values;
        # it combines degree-(order-1) functions, NaN at a non-finite point from degree 1 on
        zero = np.zeros(interval.size, x.dtype)
        slopes = [(a - b) / grid.step for a, b in zip([zero, *lower], [*lower, zero])]
        return _dense(x, interval, slopes, grid, nan_rows=grid.order > 1)

    return _dense(x, interval, values, grid, nan_rows=k > 0), derivative


def _dense(x: np.ndarray, interval, values, grid: SplineGrid, nan_rows: bool) -> np.ndarray:
    """C-contiguous rows [..., num_basis], each point's order+1 local values written once at its interval.

    nan_rows gives a non-finite point a NaN row, as the Cox-de Boor recursion
    does from degree 1 on, where its zero indicator meets x = NaN or +-inf.
    """
    k, nb = grid.order, grid.num_basis
    spare = interval.size * nb
    # column m - k + r holds B_{m-k+r}; a column outside [0, nb) is a function
    # beyond the knot vector, and its value goes to one spare element past the rows
    flat = np.zeros(spare + 1, x.dtype)
    at = np.arange(-k, spare - k, nb) + interval
    for r, v in enumerate(values):
        flat[np.where((interval >= k - r) & (interval < nb + k - r), at + r, spare)] = v
    dense = flat[:spare].reshape(interval.size, nb)
    if nan_rows:
        dense[~np.isfinite(x.reshape(-1))] = np.nan
    return dense.reshape(x.shape + (nb,))


@dataclass
class KanLayerParams:
    """Trainable state of one KAN layer.

    coeffs: [out, in, num_basis] spline coefficients c_i per edge; its shape is the layer's widths.
    w_b, w_s: [out, in] scales of the silu base term and the spline term.
    """

    grid: SplineGrid
    coeffs: T.Tensor
    w_b: T.Tensor
    w_s: T.Tensor


def kan_init(in_features: int, out_features: int, grid: SplineGrid | None = None, seed: int = 0) -> KanLayerParams:
    """Seeded initialization: c ~ N(0, sigma^2) with sigma = 0.1/sqrt(num_basis), w_b = w_s = 1.

    Two departures from Liu et al. (2024), section 2.2, which set w_s = 1 too: they draw w_b by Xavier
    initialization, where this sets w_b = 1, and they draw c with sigma = 0.1, where this divides it by
    sqrt(num_basis).
    """
    grid = grid or SplineGrid()
    rng = np.random.default_rng(seed)
    scale = 0.1 / np.sqrt(grid.num_basis)
    coeffs = T.Tensor(rng.normal(0.0, scale, (out_features, in_features, grid.num_basis)), requires_grad=True)
    w_b = T.Tensor(np.ones((out_features, in_features)), requires_grad=True)
    w_s = T.Tensor(np.ones((out_features, in_features)), requires_grad=True)
    return KanLayerParams(grid, coeffs, w_b, w_s)


def kan_layer_forward(x: T.Tensor, params: KanLayerParams) -> T.Tensor:
    """out[s,j] = sum_p w_b[j,p]*silu(x[s,p]) + w_s[j,p]*sum_i c[j,p,i]*B_i(x[s,p])."""
    n_out, n_in, _ = params.coeffs.shape
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"expected input [N,{n_in}], got {x.shape}")

    basis, derivative = _basis_rows(x.data, params.grid)  # x.data is float32 or float64, kept through both GEMMs
    basis = basis.reshape(len(x.data), -1)  # [N, in*nb], a view of the C-contiguous rows
    sil = T.silu_values(x.data)
    c, wb, ws = params.coeffs, params.w_b, params.w_s
    spline_w = (c.data * ws.data[..., None]).reshape(n_out, -1)  # [out, in*nb]

    out_data = sil @ wb.data.T
    out_data += basis @ spline_w.T

    def backward(g):
        g_basis = (g.T @ basis).reshape(c.data.shape)  # [out, in, nb]
        T.accumulate_grad(ws, np.einsum("jpi,jpi->jp", g_basis, c.data))
        T.accumulate_grad(c, np.multiply(g_basis, ws.data[..., None], out=g_basis))  # in place, after dw_s
        T.accumulate_grad(wb, g.T @ sil)
        if x.requires_grad:
            dbasis = derivative()  # [N, in, nb]
            dx = T.silu_derivative(x.data) * (g @ wb.data)
            dx += np.einsum("spi,spi->sp", (g @ spline_w).reshape(dbasis.shape), dbasis)
            T.accumulate_grad(x, dx)

    return T.from_op(out_data, (x, c, wb, ws), backward)


def kan_stack_forward(x: T.Tensor, layers) -> T.Tensor:
    """Compose kan_layer_forward over a list of layers; each layer checks its input width."""
    for layer in layers:
        x = kan_layer_forward(x, layer)
    return x
