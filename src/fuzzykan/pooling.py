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
bit.  The other windows of an image block are gathered as the [k*k, M]
columns of the block's window planes, which ``fuzzy_scores`` fuzzifies once
into the block's [3, k*k, M] memberships; it folds each set's algebraic-sum
score, COG numerator and COG denominator in place into [3, M] arrays.
Selection comes after the folds: v* is picked per window from the scores,
and the output divides the winner's numerator by its denominator, so
selecting touches [M] arrays and no membership is gathered again.  Each fold
makes the sums of the scalar oracle, so the output keeps its bits.  The
forward keeps only v* for the backward (-1 for an averaged window), which
gathers the fuzzified windows' columns from the view and rebuilds the
winner's memberships, COG folds and derivatives from them.  A block with no
fuzzified window is averaged and skips all of that, forward and backward.

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

``pool`` takes the window view from ``tensor.windows`` and walks it in
``tensor.image_blocks``: blocks of whole images, at most
``tensor.IMAGE_BLOCK`` window entries each, the rule ``conv2d`` uses.  Each
kind pools one block's ``tensor.window_planes``, [k*k, n, C, Ho, Wo] and
C-contiguous, into that block's rows of the output and of one per-window
state array (the max-pool argmax, the fuzzy v*), and maps the block's output
gradient to gradient planes, which ``pool`` adds onto the block's rows of
the input gradient with ``tensor.scatter_windows``.  No window spans two
images, so every output and gradient has the bits of one pass over the
batch, while a block's planes hold at most ``IMAGE_BLOCK`` entries.  Every
sum, score and mask over a window's entries is a ``tensor.fold_windows``,
which walks the planes in the row-major order of the scalar oracles, one
geometry-independent code path for every k and stride.

Max pooling folds the planes keeping the first maximum and the first NaN,
``(x > best) | (isnan(x) & ~isnan(best))``, and moves the winner's bits, so
its output is ``argmax`` plus ``take_along_axis`` bit for bit, +-0 ties and
NaN payloads included; its backward gives plane i ``(state == i) * g``, the
one-hot product's 0 * NaN and -0 included.  Where two NaNs meet in a sum
(a NaN entry and inf - inf in one window, say), numpy's contiguous add keeps
one operand's NaN in its vector loop and the other's in its scalar tail
(numpy 2.4.6), so the sign and payload of such a NaN output can depend on
its position in the block; the strided sums before window planes, like the
scalar oracle, kept the first.  Every other value keeps its bits.
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
    """Apply the configured pooling to [N,C,H,W], per channel slice, one ``tensor.image_blocks`` block at a time."""
    if x.ndim != 4:
        raise ValueError("pool expects [N,C,H,W]")
    win = T.windows(x.data, config.k, config.stride)
    pool_block, window_grad = _KINDS[config.kind]
    blocks = T.image_blocks(win)
    out_data = np.empty(win.shape[:4], dtype=win.dtype)
    # what the backward needs of each window, in one array made before the blocks:
    # max pooling's argmax, or the fuzzy winner v* (-1 for an averaged window)
    state = np.empty(win.shape[:4], dtype=np.int32)
    for b in blocks:
        pool_block(T.window_planes(win[b]), out_data[b], state[b], config.membership)

    def backward(g):
        dx = np.zeros(x.shape, dtype=g.dtype)
        for b in blocks:
            T.scatter_windows(window_grad(win[b], g[b], state[b], config.membership), dx[b], config.stride)
        T.accumulate_grad(x, dx)

    return T.from_op(out_data, (x,), backward)


# Each kind pools one block's window planes [k*k, n,C,Ho,Wo] into ``out`` and ``state``
# [n,C,Ho,Wo], and maps the block's output gradient to gradient planes [k*k, n,C,Ho,Wo];
# only the fuzzy gradient reads the block's windows ``win``, and only if it fuzzified one.


def _max_pool(planes, out, state, params):
    """Each window's first maximum, or first NaN, as ``argmax`` picks it, bit for bit; its plane goes to ``state``."""
    bits = np.dtype(f"u{out.itemsize}")
    out[...] = planes[0]
    state[...] = 0
    for i in range(1, len(planes)):
        x = planes[i]
        better = (x > out) | (np.isnan(x) & ~np.isnan(out))
        # out = where(better, x, out) without where's allocation: xor in the bits where x wins
        diff = np.bitwise_xor(out.view(bits), x.view(bits))
        diff &= np.negative(better, dtype=bits)
        out.view(bits)[...] ^= diff
        np.maximum(state, better * np.int32(i), out=state)  # i exceeds every earlier plane's index


def _max_window_grad(win, g, state, params):
    # the one-hot product: plane i is (state == i) * g, so a NaN or inf g puts 0 * g on the other planes
    dplanes = np.empty((win.shape[-1] ** 2,) + g.shape, dtype=g.dtype)
    for i, plane in enumerate(dplanes):
        np.multiply(state == i, g, out=plane)
    return dplanes


def _add_into(acc, x):
    return np.add(acc, x, out=acc)


def _algebraic_sum_into(s, p):
    """s + p - s * p, computed into s."""
    sp = s * p
    s += p
    s -= sp
    return s


def _window_sum(planes):
    """Each window's entries added one at a time from 0, row-major, as the scalar oracles fold them."""
    return T.fold_windows(planes, _add_into, np.zeros(planes.shape[1:], dtype=planes.dtype))


def _average_pool(planes, out, state, params):
    np.divide(_window_sum(planes), len(planes), out=out)


def _average_window_grad(win, g, state, params):
    kk = win.shape[-1] ** 2
    return np.broadcast_to(g / kk, (kk,) + g.shape)


def fuzzy_scores(planes, params: MembershipParams):
    """Each membership set's algebraic-sum score, COG numerator and COG denominator, [3, ...] each, over planes [k*k, ...].

    In ``planes``' dtype; every fold walks the planes in order, a window row-major, as ``algebraic_sum_score`` and
    ``defuzzify_cog`` do.
    """
    pis = np.stack(fuzzify(planes, params)).astype(planes.dtype, copy=False)  # [3, k*k, ...]
    by_entry = pis.swapaxes(0, 1)  # plane i: the three sets' memberships of entry i
    scores, nums, dens = np.zeros((3, 3) + planes.shape[1:], dtype=planes.dtype)
    T.fold_windows(by_entry, _algebraic_sum_into, scores)
    T.fold_windows(by_entry, _add_into, dens)
    np.multiply(pis, planes, out=pis)
    T.fold_windows(by_entry, _add_into, nums)
    return scores, nums, dens


def _fuzzy_pool(planes, out, state, params: MembershipParams):
    """Windows wholly below c are averaged; the rest are gathered as columns, folded once per set, and keep the winner's COG."""
    kk = len(planes)
    np.divide(_window_sum(planes), kk, out=out)
    state[...] = -1
    # every entry finite and below c: mu1 == 1, mu2 == mu3 == 0, so v* = 1 and the
    # COG is the window mean (a finite mean rules out -inf and an overflowing sum)
    fast = T.fold_windows(planes, lambda f, x: np.logical_and(f, x < params.c, out=f), np.isfinite(out))
    rest = np.flatnonzero(~fast)
    if rest.size == 0:
        return
    scores, nums, dens = fuzzy_scores(np.take(planes.reshape(kk, -1), rest, axis=1), params)
    v_star = scores.argmax(axis=0)  # first max -> lowest v on ties
    out.reshape(-1)[rest] = np.choose(v_star, nums) / np.choose(v_star, dens)  # den >= 3/7 (module docstring)
    state.reshape(-1)[rest] = v_star


def _fuzzy_window_grad(win, g, state, params: MembershipParams):
    kk = win.shape[-1] ** 2
    # an averaged window's entry gradient is the COG rule below at dsel = 0 and den = k*k
    dplanes = np.empty((kk,) + g.shape, dtype=np.result_type(g, win))
    dplanes[...] = g * (win.dtype.type(1.0) / kk)
    rest = np.flatnonzero(state >= 0)
    if rest.size == 0:
        return dplanes
    # v* is held constant; the winner's memberships, its COG folds (as the forward
    # made them) and its derivatives come from the input, which the tape keeps unchanged
    # the fuzzified windows' entries as [k*k, m] columns, gathered from the view alone
    at = (slice(None), slice(None)) + np.unravel_index(rest, state.shape)
    w = win.transpose(4, 5, 0, 1, 2, 3)[at].reshape(kk, -1)
    winner = state.reshape(-1)[rest]
    sel = np.choose(winner, fuzzify(w, params)).astype(win.dtype, copy=False)
    dsel = np.choose(winner, [membership_derivative(v, w, params) for v in (1, 2, 3)]).astype(win.dtype, copy=False)
    den = _window_sum(sel)
    num = _window_sum(sel * w)
    dw = (sel + dsel * w) / den - num * dsel / (den * den)
    dplanes.reshape(kk, -1)[:, rest] = g.reshape(-1)[rest] * dw
    return dplanes


_KINDS = {
    "max": (_max_pool, _max_window_grad),
    "average": (_average_pool, _average_window_grad),
    "fuzzy": (_fuzzy_pool, _fuzzy_window_grad),
}
