"""Subsampling layers: max, average, and Type-1 fuzzy pooling.

Fuzzy pooling processes each channel's k-by-k window through four stages:
fuzzify with three fixed triangular memberships, aggregate each fuzzified
window with the fuzzy algebraic sum, keep the membership set with the
largest score, and collapse the window by center-of-gravity defuzzification.
``pool`` reproduces ``oracles.pool_window_oracle`` bit for bit (same
operations, same fold order); ``oracles`` states the contract.

Fuzzy pooling splits the windows in two.  A window whose entries are all
finite and below c has mu1 == 1 and mu2 == mu3 == 0 everywhere, because
a = r_max/4 and r = r_max/2 both exceed c = r_max/6; so v* = 1, the output
is the window mean, and the COG gradient reduces to 1/(k*k), all bit for
bit.  The other windows of an image block are gathered as the [k*k, M]
columns of the block's window planes, which ``fuzzy_scores`` fuzzifies once
into the block's [3, k*k, M] memberships and scores by folding each set's
algebraic sum into a [3, M] array.  Selection comes next, by
``oracles.select_fuzzy_patch``'s two comparisons (a later set must score
strictly higher; a NaN entry makes every score NaN, so v* = 1), and only
the winner is defuzzified: ``_pick`` takes each column's winning
memberships, [k*k, M], and ``_cog`` folds their COG numerator and mass, the
stages in the order of ``oracles.fuzzy_window_reference``.  Each fold makes
the sums of the scalar oracle, so the output keeps its bits.  A block's
gradient rule keeps the one-byte below-c mask and v* (int8) of each
fuzzified window; it gathers those windows' columns from the view with
``tensor.window_columns``, evaluates the three sets' memberships and slopes
there, and ``_pick`` and ``_cog`` rebuild the winner's memberships, slopes
and COG as the forward made them.  A block with no fuzzified window is
averaged and skips all of that, forward and backward.

The COG of a fuzzified window divides by the mass ``den`` of its winning
set, and ``den`` is never small.  For any finite x, max(mu1, mu2, mu3) >=
3/7: below c, mu1 = 1; on [c, a], mu1 >= 3/4; on [a, d], mu1 and mu2 cross
at x = 5*r_max/14, where both equal 3/7; on [d, b], mu2 + mu3 = 1; above q,
mu3 = 1.  A set's algebraic-sum score lies between its largest membership
and its mass, max(pi_i) <= 1 - prod(1 - pi_i) <= sum(pi_i), so the winning
score is at least 3/7, and so is the winning set's mass, for any window
size and any r_max.  An entry of +-inf has a membership of exactly 1, and
a NaN entry gives a NaN mass.  So ``pool`` and its oracle have no fall-back.

A window of +inf among entries below c pools to NaN, as it does in
``oracles.fuzzy_window_reference``.  mu1 and mu3 tie at score 1 (the entries
below c have mu1 = 1, the +inf entry mu3 = 1), the lowest v wins the tie,
and the +inf entry's mu1 is 0, so 0 * inf puts NaN in the COG numerator.
With entries above q instead, mu3 wins alone and the window pools to inf.
No finite training reaches such a window: a non-finite logit stops
``train`` with ``NumericalError``.

``pool`` takes the window view from ``tensor.windows`` and walks it in
``tensor.image_blocks``: blocks of whole images, at most
``tensor.IMAGE_BLOCK`` window entries each, the rule ``conv2d`` uses.  Each
kind pools one block's ``tensor.window_planes``, [k*k, n, C, Ho, Wo] and
C-contiguous, into that block's rows of the output, and returns the block's
gradient rule, a closure over what its backward needs, which maps the
block's output gradient to gradient planes; ``pool`` adds those onto the
block's rows of the input gradient with ``tensor.scatter_windows``.  No
window spans two images, so every output and gradient has the bits of one
pass over the batch, while a block's planes hold at most ``IMAGE_BLOCK``
entries and are freed once the block is pooled.  Every sum, score and mask
over a window's entries is a ``functools.reduce`` over the planes in order,
which walks each window row-major as the scalar oracles do, one
geometry-independent code path for every k and stride.

Max pooling folds the planes keeping the first maximum and the first NaN,
``(x > best) | (isnan(x) & ~isnan(best))``, and moves the winner's bits, so
its output is ``argmax`` plus ``take_along_axis`` bit for bit, +-0 ties and
NaN payloads included.  Its rule keeps each window's winning plane, one
byte up to k = 16, and gives plane i ``(winner == i) * g``, the one-hot
product's 0 * NaN and -0 included.  Where two NaNs meet in a sum (a NaN
entry and inf - inf in one window, say), numpy's contiguous add keeps one
operand's NaN in its vector loop and the other's in its scalar tail (numpy
2.4.6), so the sign and payload of such a NaN output can depend on its
position in the block.  Every other value keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import tensor as T
from .oracles import fuzzy_window_reference  # noqa: F401  perfbench/bench.py reads pooling.fuzzy_window_reference


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
        if self.kind not in _KINDS:
            raise ValueError(f"pooling kind must be one of {tuple(_KINDS)}, got {self.kind!r}")
        if self.k < 1 or self.stride < 1:
            raise ValueError("window size and stride must be >= 1")


def memberships(x, params: MembershipParams):
    """The kernel's three triangular memberships of x, [3, *x.shape]: ramps clipped to [0, 1], which c < a < d < b
    makes bit-identical to ``oracles.fuzzify``'s triangles, signed zeros included.

    Evaluated in float64 and stored in x's dtype if it is float32, else in float64.
    """
    x = np.asarray(x)
    mu = np.empty((3,) + x.shape, dtype=np.float32 if x.dtype == np.float32 else float)
    x = x.astype(float, copy=False)
    np.clip((params.d - x) / (params.d - params.c), 0.0, 1.0, out=mu[0, ...])
    np.clip(np.minimum((x - params.a) / (params.m - params.a), (params.b - x) / (params.b - params.m)), 0.0, 1.0,
            out=mu[1, ...])
    np.clip((x - params.r) / (params.q - params.r), 0.0, 1.0, out=mu[2, ...])
    return mu


def membership_slopes(x, params: MembershipParams):
    """d(mu_v)/dx of the three memberships, laid out and typed as ``memberships``; at a breakpoint the branch whose
    bound is inclusive wins."""
    x = np.asarray(x)
    dmu = np.zeros((3,) + x.shape, dtype=np.float32 if x.dtype == np.float32 else float)
    x = x.astype(float, copy=False)
    np.copyto(dmu[0, ...], -1.0 / (params.d - params.c), where=(x >= params.c) & (x <= params.d))
    np.copyto(dmu[1, ...], 1.0 / (params.m - params.a), where=(x > params.a) & (x <= params.m))
    np.copyto(dmu[1, ...], -1.0 / (params.b - params.m), where=(x > params.m) & (x < params.b))
    np.copyto(dmu[2, ...], 1.0 / (params.q - params.r), where=(x >= params.r) & (x <= params.q))
    return dmu


def pool(x: T.Tensor, config: PoolConfig) -> T.Tensor:
    """Apply the configured pooling to [N,C,H,W], per channel slice, one ``tensor.image_blocks`` block at a time."""
    if x.ndim != 4:
        raise ValueError("pool expects [N,C,H,W]")
    win = T.windows(x.data, config.k, config.stride)
    pool_block = _KINDS[config.kind]
    blocks = T.image_blocks(win)
    out_data = np.empty(win.shape[:4], dtype=win.dtype)
    rules = [pool_block(T.window_planes(win[b]), win[b], out_data[b], config.membership) for b in blocks]

    def backward(g):
        dx = np.zeros(x.shape, dtype=g.dtype)
        for b, rule in zip(blocks, rules):
            T.scatter_windows(rule(g[b]), dx[b], config.stride)
        T.accumulate_grad(x, dx)

    return T.from_op(out_data, (x,), backward)


# Each kind pools one block's window planes [k*k, n,C,Ho,Wo] into ``out`` [n,C,Ho,Wo] and returns the block's
# gradient rule, g [n,C,Ho,Wo] -> gradient planes [k*k, n,C,Ho,Wo].  A rule that closed over the planes would keep
# every block's copy until the backward; only the fuzzy rule reads the block's window view ``win``, which is free.


def _max_pool(planes, win, out, params):
    """Each window's first maximum, or first NaN, as ``argmax`` picks it, bit for bit; the rule sends g to that plane."""
    bits = np.dtype(f"u{out.itemsize}")
    kk = len(planes)
    winner = np.zeros(out.shape, dtype=np.min_scalar_type(kk - 1))  # uint8 up to k = 16
    out[...] = planes[0]
    for i in range(1, kk):
        x = planes[i]
        better = (x > out) | (np.isnan(x) & ~np.isnan(out))
        # out = where(better, x, out) without where's allocation: xor in the bits where x wins
        diff = np.bitwise_xor(out.view(bits), x.view(bits))
        diff &= np.negative(better, dtype=bits)
        out.view(bits)[...] ^= diff
        np.maximum(winner, better * winner.dtype.type(i), out=winner)  # i exceeds every earlier plane's index

    def rule(g):
        # the one-hot product: plane i is (winner == i) * g, so a NaN or inf g puts 0 * g on the other planes
        dplanes = np.empty((kk,) + g.shape, dtype=g.dtype)
        for i, plane in enumerate(dplanes):
            np.multiply(winner == i, g, out=plane)
        return dplanes

    return rule


def _add_into(acc, x):
    with np.errstate(over="ignore"):  # a sum past the float maximum is +-inf, as in the oracles' Python floats
        return np.add(acc, x, out=acc)


def _algebraic_sum_into(s, p):
    """s + p - s * p, computed into s."""
    sp = s * p
    s += p
    s -= sp
    return s


def _window_sum(planes):
    """Each window's entries added one at a time from 0, row-major, as the scalar oracles fold them."""
    return reduce(_add_into, planes, np.zeros(planes.shape[1:], dtype=planes.dtype))


def _average_pool(planes, win, out, params):
    kk = len(planes)
    np.divide(_window_sum(planes), kk, out=out)
    return lambda g: np.broadcast_to(g / kk, (kk,) + g.shape)


def fuzzy_scores(planes, params: MembershipParams):
    """The three sets' memberships [3, k*k, ...] of planes [k*k, ...], and each set's algebraic-sum score [3, ...].

    The scores are in ``planes``' dtype, folded over the planes in order, a window row-major, as
    ``oracles.algebraic_sum_score`` folds them.
    """
    pis = memberships(planes, params)
    scores = np.zeros((3,) + planes.shape[1:], dtype=planes.dtype)
    reduce(_algebraic_sum_into, pis.swapaxes(0, 1), scores)  # plane i: the three sets' memberships of entry i
    return pis, scores


def _pick(v_star, sets):
    """The winning set's rows of ``sets`` [3, k*k, M], by each column's v* in 0..2."""
    return np.where(v_star == 2, sets[2], np.where(v_star == 1, sets[1], sets[0]))


def _cog(sel, w):
    """``oracles.defuzzify_cog``'s numerator and mass folds over each column of ``w`` [k*k, M], weighted by ``sel``."""
    return _window_sum(sel * w), _window_sum(sel)


def _fuzzy_pool(planes, win, out, params: MembershipParams):
    """Windows wholly below c are averaged; the rest are gathered as columns, scored, and keep the winner's COG."""
    kk = len(planes)
    np.divide(_window_sum(planes), kk, out=out)
    # every entry finite and below c: mu1 == 1, mu2 == mu3 == 0, so v* = 1 and the
    # COG is the window mean (a finite mean rules out -inf and an overflowing sum)
    fast = reduce(lambda f, x: np.logical_and(f, x < params.c, out=f), planes, np.isfinite(out))
    rest = np.flatnonzero(~fast)
    if rest.size:
        w = np.take(planes.reshape(kk, -1), rest, axis=1)
        pis, scores = fuzzy_scores(w, params)
        b1 = scores[1] > scores[0]  # a later set must score strictly higher: the lowest v wins a tie
        b2 = scores[2] > np.where(b1, scores[1], scores[0])
        v_star = np.where(b2, np.int8(2), b1.view(np.int8))
        num, den = _cog(_pick(v_star, pis), w)
        out.reshape(-1)[rest] = num / den  # den >= 3/7 (module docstring)

    def rule(g):
        # an averaged window's entry gradient is the COG rule below at dsel = 0 and den = k*k
        dplanes = np.empty((kk,) + g.shape, dtype=np.result_type(g, win))
        dplanes[...] = g * (win.dtype.type(1.0) / kk)
        rest = np.flatnonzero(~fast)  # recomputed, not kept: an int64 per fuzzified window outweighs ``fast``
        if rest.size == 0:
            return dplanes
        # v* is held constant; the winner's memberships, its COG folds (as the forward
        # made them) and its derivatives come from the input, which the tape keeps unchanged
        w = T.window_columns(win, rest)
        sel = _pick(v_star, memberships(w, params))
        dsel = _pick(v_star, membership_slopes(w, params))
        num, den = _cog(sel, w)
        with np.errstate(invalid="ignore"):  # an infinite or overflowed num times a zero slope is NaN
            dw = (sel + dsel * w) / den - num * dsel / (den * den)
        dplanes.reshape(kk, -1)[:, rest] = g.reshape(-1)[rest] * dw
        return dplanes

    return rule


_KINDS = {"max": _max_pool, "average": _average_pool, "fuzzy": _fuzzy_pool}
