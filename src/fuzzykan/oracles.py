"""The exactness contract: every scalar reference the library keeps, and the kernels that must equal it.

An oracle works in Python floats or loops, one window or point at a time;
this module imports numpy alone and reads a ``MembershipParams`` or a
``SplineGrid`` by attribute.  Each kernel, its oracle, and how closely:

- ``pooling.pool``, every kind at every window: ``pool_window_oracle``, bit
  for bit.  Its fuzzy rule, ``fuzzy_window_reference``, composes the paper's
  four stages: ``fuzzify``, ``algebraic_sum_score``, ``select_fuzzy_patch``
  and ``defuzzify_cog``.
- ``pooling.memberships``: ``fuzzify``'s triangles; ``pooling.fuzzy_scores``:
  the folds of ``algebraic_sum_score`` and ``defuzzify_cog``; the fuzzy
  winner: ``select_fuzzy_patch``'s two strict comparisons.  All bit for bit.
- ``kan.bspline_basis`` and its derivative: ``spline_oracle``, over
  ``bspline_reference`` and ``bspline_derivative_reference``, within 1e-12.

The references only tests or the benchmark call stay beside their callers, bit
for bit unless noted: ``row_major_conv2d`` (``conv2d``'s gradients; within a
reordered-sum bound at one filter or one entry per window), the nested-loop
conv and the triple-loop matmul (but a 1x1 output) in ``tests/test_tensor.py``;
``slope_branches`` (``membership_slopes``), ``fuzzy_window_grad_reference``
and ``argmax_max_pool`` in ``tests/test_pooling.py``; ``window_oracle`` in
``perfbench/bench.py``.
"""

import numpy as np

COG_EPS = 1e-12


def fuzzify(patch, params):
    """The oracle's memberships of one crisp patch: the three piecewise triangles, entry by entry in Python floats."""
    patch = np.asarray(patch, dtype=float)
    c, d, a, m, b, r, q = params.c, params.d, params.a, params.m, params.b, params.r, params.q

    def mu1(x):
        return 0.0 if x > d else 1.0 if x < c else (d - x) / (d - c)

    def mu2(x):
        return 0.0 if x <= a or x >= b else (x - a) / (m - a) if x <= m else (b - x) / (b - m)

    def mu3(x):
        return 0.0 if x < r else 1.0 if x > q else (x - r) / (q - r)

    flat = patch.ravel().tolist()
    return tuple(np.array([mu(x) for x in flat]).reshape(patch.shape) for mu in (mu1, mu2, mu3))


def algebraic_sum_score(memberships) -> float:
    """Fold the fuzzy algebraic sum x+y-x*y over all entries (row-major), in Python floats."""
    s = 0.0
    for p in np.asarray(memberships, dtype=float).ravel().tolist():
        if p < 0.0 or p > 1.0:
            raise ValueError("membership values must lie in [0, 1]")
        s = s + p - s * p
    return s


def select_fuzzy_patch(scores) -> int:
    """The 1-based index of the top-scoring set; a later set must score strictly higher, so the lowest v wins a tie."""
    best = 0
    for v in range(1, len(scores)):
        best = v if scores[v] > scores[best] else best
    return best + 1


def defuzzify_cog(patch, memberships) -> float:
    """Center of gravity, folded row-major in Python floats; a vanishing membership mass falls back to the mean."""
    patch = np.asarray(patch, dtype=float)
    pi = np.asarray(memberships, dtype=float)
    if patch.shape != pi.shape:
        raise ValueError(f"shape mismatch: patch {patch.shape} vs memberships {pi.shape}")
    num = den = total = 0.0
    for w, x in zip(pi.ravel().tolist(), patch.ravel().tolist()):
        num, den, total = num + w * x, den + w, total + x
    return total / patch.size if den < COG_EPS else num / den


def fuzzy_window_reference(patch, params) -> float:
    """One fuzzy window by the four stages; its winning mass, >= 3/7 or NaN (``pooling``), never takes the fall-back."""
    pis = fuzzify(patch, params)
    v = select_fuzzy_patch([algebraic_sum_score(pi) for pi in pis])
    return defuzzify_cog(patch, pis[v - 1])


def pool_window_oracle(patch, kind: str, params):
    """One k-by-k window pooled by the scalar rule of ``kind``: its max, its entries added one at a time
    row-major from 0 in Python floats and divided by k*k, or ``fuzzy_window_reference``."""
    if kind == "max":
        return patch.max()
    if kind == "average":
        s = 0.0
        for v in np.asarray(patch, dtype=float).ravel().tolist():  # a sum past the float maximum is +-inf, unwarned
            s = v + s  # keeps v's NaN where two NaNs meet, the one numpy's float64 scalar add keeps
        return s / patch.size
    return fuzzy_window_reference(patch, params)


def bspline_reference(i: int, degree: int, knots, x: float) -> float:
    """Textbook recursive Cox-de Boor definition of B_{i,degree}(x), on half-open knot intervals."""
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    value = 0.0
    left = knots[i + degree] - knots[i]
    if left > 0:
        value += (x - knots[i]) / left * bspline_reference(i, degree - 1, knots, x)
    right = knots[i + degree + 1] - knots[i + 1]
    if right > 0:
        value += (knots[i + degree + 1] - x) / right * bspline_reference(i + 1, degree - 1, knots, x)
    return value


def bspline_derivative_reference(i: int, degree: int, knots, x: float) -> float:
    """dB_{i,k}/dx = k B_{i,k-1}/(t_{i+k} - t_i) - k B_{i+1,k-1}/(t_{i+k+1} - t_{i+1})."""
    if degree == 0:
        return 0.0
    value = 0.0
    left = knots[i + degree] - knots[i]
    if left > 0:
        value += degree * bspline_reference(i, degree - 1, knots, x) / left
    right = knots[i + degree + 1] - knots[i + 1]
    if right > 0:
        value -= degree * bspline_reference(i + 1, degree - 1, knots, x) / right
    return value


def spline_oracle(x, grid):
    """Basis and derivative rows [x.size, num_basis] from the scalar Cox-de Boor oracles.

    x == hi is evaluated one ulp below hi: ``kan.bspline_basis`` closes the top in-range interval on the
    right, so it takes the left limit there, where the half-open intervals would give the first extension's.
    """
    knots = grid.knots()
    x = np.asarray(x, dtype=float).reshape(-1)
    basis = np.zeros((x.size, grid.num_basis))
    deriv = np.zeros_like(basis)
    for n, xi in enumerate(x):
        at = float(np.nextafter(grid.hi, -np.inf)) if xi == grid.hi else float(xi)
        for i in range(grid.num_basis):
            basis[n, i] = bspline_reference(i, grid.order, knots, at)
            deriv[n, i] = bspline_derivative_reference(i, grid.order, knots, at)
    return basis, deriv
