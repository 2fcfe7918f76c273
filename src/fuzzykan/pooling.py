"""Subsampling layers: max, average, and Type-1 fuzzy pooling.

Fuzzy pooling processes each channel's k-by-k window through four stages:
fuzzify with three fixed triangular memberships, aggregate each fuzzified
window with the fuzzy algebraic sum, keep the membership set with the
largest score, and collapse the window by center-of-gravity defuzzification.

The vectorized ``pool`` path reproduces the scalar per-window semantics of
``fuzzy_window_reference`` bit-for-bit (same operations, same fold order),
which the test suite asserts.

Fuzzy pooling splits the windows in two.  A window whose entries are all
finite and below c has mu1 == 1 and mu2 == mu3 == 0 everywhere, because
a = r_max/4 and r = r_max/2 both exceed c = r_max/6; so v* = 1, the output
is the window mean, and the COG gradient reduces to 1/(k*k), all bit for
bit.  The other windows form one (M, k, k) block, which ``fuzzy_scores``
fuzzifies once and scores with one fold; ``np.choose`` takes the winning
set's memberships and, in backward, its derivatives.

The COG of a fuzzified window divides by the mass ``den`` of its winning
set, and ``den`` is never small.  For any finite x, max(mu1, mu2, mu3) >=
3/7: below c, mu1 = 1; on [c, a], mu1 >= 3/4; on [a, d], mu1 and mu2 cross
at x = 5*r_max/14, where both equal 3/7; on [d, b], mu2 + mu3 = 1; above q,
mu3 = 1.  A set's algebraic-sum score lies between its largest membership
and its mass, max(pi_i) <= 1 - prod(1 - pi_i) <= sum(pi_i), so the winning
score is at least 3/7, and so is the winning set's mass, for any window
size and any r_max.  An entry of +-inf has a membership of exactly 1, and
a NaN entry gives a NaN mass.  So ``pool`` needs no fall-back;
``defuzzify_cog``, which takes arbitrary memberships, keeps one.

A window of +inf among entries below c pools to NaN, as it does in
``fuzzy_window_reference``.  mu1 and mu3 tie at score 1 (the entries below
c have mu1 = 1, the +inf entry mu3 = 1), the lowest v wins the tie, and the
+inf entry's mu1 is 0, so 0 * inf puts NaN in the COG numerator.  With
entries above q instead, mu3 wins alone and the window pools to inf.  No
finite training reaches such a window: a non-finite logit stops ``train``
with ``NumericalError``.

``pool`` takes the window view from ``tensor.windows``.  Each kind maps that
view to its pooled values plus a function from the output gradient to a
gradient per window entry, and ``pool`` adds that back onto the input with
``tensor.scatter_windows``.  Every sum, score and mask over a window's
entries is a ``tensor.fold_windows``, which walks them in the row-major
order of the scalar oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

COG_EPS = 1e-12
POOL_KINDS = ("max", "average", "fuzzy")


@dataclass(frozen=True)
class MembershipParams:
    """Breakpoints of the three triangular memberships, derived from r_max.

    With the default r_max = 6: c=1, d=3, a=1.5, m=3, b=4.5, r=3, q=4.5.
    All negative inputs saturate mu1 to 1; inputs above q saturate mu3 to 1.
    """

    r_max: float = 6.0

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be finite and > 0, got {self.r_max}")
        # a subnormal r_max can round breakpoints together, and a ramp would divide by 0
        if not self.c < self.a < self.d < self.b:
            raise ValueError(f"r_max {self.r_max!r} is too small: its breakpoints need c < a < d < b")

    @property
    def d(self):
        return self.r_max / 2.0

    @property
    def c(self):
        return self.d / 3.0

    @property
    def a(self):
        return self.r_max / 4.0

    @property
    def m(self):
        return self.r_max / 2.0

    @property
    def b(self):
        return self.m + self.a

    @property
    def r(self):
        return self.r_max / 2.0

    @property
    def q(self):
        return self.r + self.r_max / 4.0

    def breakpoints(self):
        """Distinct abscissae where some membership is non-smooth."""
        return sorted({self.c, self.d, self.a, self.m, self.b, self.r, self.q})


@dataclass(frozen=True)
class PoolConfig:
    kind: str = "max"
    k: int = 2
    stride: int = 2
    membership: MembershipParams = field(default_factory=MembershipParams)

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise ValueError(f"pooling kind must be one of {POOL_KINDS}, got {self.kind!r}")
        if self.k < 1 or self.stride < 1:
            raise ValueError("window size and stride must be >= 1")


def membership(v: int, x, params: MembershipParams):
    """Triangular membership mu_v at x (scalar or array): its ramps clipped to [0, 1], which
    c < a < d < b makes bit-identical to the piecewise triangle, signed zeros included."""
    x = np.asarray(x, dtype=float)
    if v == 1:
        out = np.clip((params.d - x) / (params.d - params.c), 0.0, 1.0)
    elif v == 2:
        out = np.maximum(0.0, np.minimum((x - params.a) / (params.m - params.a), (params.b - x) / (params.b - params.m)))
    elif v == 3:
        out = np.clip((x - params.r) / (params.q - params.r), 0.0, 1.0)
    else:
        raise ValueError(f"membership index must be 1, 2 or 3, got {v}")
    return out if out.ndim else float(out)


def membership_derivative(v: int, x, params: MembershipParams):
    """d(mu_v)/dx; at breakpoints the branch whose bound is inclusive wins."""
    x = np.asarray(x, dtype=float)
    if v == 1:
        out = np.where((x >= params.c) & (x <= params.d), -1.0 / (params.d - params.c), 0.0)
    elif v == 2:
        out = np.where(
            (x > params.a) & (x <= params.m),
            1.0 / (params.m - params.a),
            np.where((x > params.m) & (x < params.b), -1.0 / (params.b - params.m), 0.0),
        )
    elif v == 3:
        out = np.where((x >= params.r) & (x <= params.q), 1.0 / (params.q - params.r), 0.0)
    else:
        raise ValueError(f"membership index must be 1, 2 or 3, got {v}")
    return out if out.ndim else float(out)


def fuzzify(patch, params: MembershipParams):
    """Map one crisp patch to its three membership arrays."""
    patch = np.asarray(patch, dtype=float)
    return tuple(membership(v, patch, params) for v in (1, 2, 3))


def algebraic_sum_score(memberships) -> float:
    """Fold the fuzzy algebraic sum x+y-x*y over all entries (row-major)."""
    values = np.ravel(np.asarray(memberships, dtype=float))
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("membership values must lie in [0, 1]")
    s = 0.0
    for p in values:
        s = s + p - s * p
    return float(s)


def select_fuzzy_patch(scores) -> int:
    """The 1-based index of the membership set with the largest score; ties pick lowest v."""
    return int(np.argmax(scores)) + 1


def defuzzify_cog(patch, memberships) -> float:
    """Center of gravity; a vanishing membership mass falls back to the mean."""
    patch = np.asarray(patch, dtype=float)
    pi = np.asarray(memberships, dtype=float)
    if patch.shape != pi.shape:
        raise ValueError(f"shape mismatch: patch {patch.shape} vs memberships {pi.shape}")
    num = 0.0
    den = 0.0
    for p, w in zip(patch.ravel(), pi.ravel()):
        num = num + w * p
        den = den + w
    if den < COG_EPS:
        s = 0.0
        for p in patch.ravel():
            s = s + p
        return float(s / patch.size)
    return float(num / den)


def fuzzy_window_reference(patch, params: MembershipParams) -> float:
    """Independent scalar implementation of the whole fuzzy-pooling window.

    Deliberately self-contained (own piecewise code, own folds) so it can
    serve as an oracle for the vectorized path.
    """
    patch = np.asarray(patch, dtype=float)
    c, d = params.c, params.d
    a, m, b = params.a, params.m, params.b
    r, q = params.r, params.q

    def mu1(x):
        if x > d:
            return 0.0
        if x < c:
            return 1.0
        return (d - x) / (d - c)

    def mu2(x):
        if x <= a or x >= b:
            return 0.0
        if x <= m:
            return (x - a) / (m - a)
        return (b - x) / (b - m)

    def mu3(x):
        if x < r:
            return 0.0
        if x > q:
            return 1.0
        return (x - r) / (q - r)

    flat = [float(x) for x in patch.ravel()]
    best_score, best_pi = None, None
    for mu in (mu1, mu2, mu3):
        pi = [mu(x) for x in flat]
        s = 0.0
        for p in pi:
            s = s + p - s * p
        if best_pi is None or s > best_score:  # a later set must score strictly higher: lowest v wins ties
            best_score, best_pi = s, pi

    num = 0.0
    den = 0.0
    for w, x in zip(best_pi, flat):
        num = num + w * x
        den = den + w
    if den < COG_EPS:
        s = 0.0
        for x in flat:
            s = s + x
        return s / len(flat)
    return num / den


# -- vectorized pooling over tensors --------------------------------------


def pool(x: T.Tensor, config: PoolConfig) -> T.Tensor:
    """Apply the configured pooling to [N,C,H,W], per channel slice."""
    if x.ndim != 4:
        raise ValueError("pool expects [N,C,H,W]")
    win = T.windows(x.data, config.k, config.stride)
    if config.kind == "max":
        out_data, window_grad = _max_pool(win)
    elif config.kind == "average":
        out_data, window_grad = _average_pool(win)
    else:
        out_data, window_grad = _fuzzy_pool(win, config.membership)

    def backward(g):
        T.accumulate_grad(x, T.scatter_windows(window_grad(g), x.shape, config.stride))

    return T.from_op(out_data, (x,), backward)


def _max_pool(win):
    """First-argmax value; the gradient goes to that one window entry."""
    n, c, ho, wo, k, _ = win.shape
    flat = win.reshape(n, c, ho, wo, k * k)
    idx = flat.argmax(axis=-1)[..., None]  # first occurrence on ties
    out = np.take_along_axis(flat, idx, axis=-1)[..., 0]

    def window_grad(g):
        onehot = np.arange(k * k) == idx
        return (onehot * g[..., None]).reshape(win.shape)

    return out, window_grad


def _window_sum(win):
    """Each window's entries added one at a time, row-major, as the scalar oracles fold them."""
    return T.fold_windows(win, np.add, np.zeros(win.shape[:-2], dtype=win.dtype))


def _window_mean(win):
    k = win.shape[-1]
    return _window_sum(win) / (k * k)


def _average_pool(win):
    k = win.shape[-1]
    return _window_mean(win), lambda g: np.broadcast_to((g / (k * k))[..., None, None], win.shape)


def fuzzy_scores(win, params: MembershipParams):
    """Memberships [3, ..., k, k] of windows [..., k, k] and their algebraic-sum scores [3, ...].

    In ``win``'s dtype; each score folds its window row-major, as ``algebraic_sum_score`` does.
    """
    pis = np.stack(fuzzify(win, params)).astype(win.dtype, copy=False)
    scores = T.fold_windows(pis, lambda s, p: s + p - s * p, np.zeros(pis.shape[:-2], dtype=win.dtype))
    return pis, scores


def _fuzzy_pool(win, params: MembershipParams):
    """Windows wholly below c are averaged; the rest are fuzzified as one (M, k, k) block."""
    k = win.shape[-1]
    out = _window_mean(win)
    # every entry finite and below c: mu1 == 1, mu2 == mu3 == 0, so v* = 1 and the
    # COG is the window mean (a finite mean rules out -inf and an overflowing sum)
    fast = T.fold_windows(win, lambda f, x: f & (x < params.c), np.isfinite(out))
    rest = ~fast
    w = win[rest]

    pis, scores = fuzzy_scores(w, params)
    v_star = scores.argmax(axis=0)[:, None, None]  # first max -> lowest v on ties
    sel = np.choose(v_star, pis)

    num, den = _window_sum(sel * w), _window_sum(sel)
    out[rest] = num / den  # den >= 3/7 (module docstring)

    def window_grad(g):
        # an averaged window's entry gradient is the COG rule below at dsel = 0 and den = k*k
        dwin = np.empty(win.shape, dtype=np.result_type(g, win))
        dwin[...] = (g * (win.dtype.type(1.0) / (k * k)))[..., None, None]
        # selection v* is held constant; memberships are differentiated
        dsel = np.choose(v_star, [membership_derivative(v, w, params) for v in (1, 2, 3)]).astype(win.dtype, copy=False)
        den_e = den[:, None, None]
        num_e = num[:, None, None]
        dw = (sel + dsel * w) / den_e - num_e * dsel / (den_e * den_e)
        dwin[rest] = g[rest][:, None, None] * dw
        return dwin

    return out, window_grad
