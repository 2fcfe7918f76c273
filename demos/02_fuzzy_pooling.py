"""Walk through Type-1 fuzzy pooling on a single 2x2 window.

The pipeline: fuzzify the window with three triangular memberships, score
each fuzzified window with the fuzzy algebraic sum, keep the set with the
highest score, and defuzzify it by center of gravity.  These four calls are
the ones ``fuzzy_window_reference`` composes, so the walk is the scalar
oracle itself.  The same patch is then pushed through the vectorized pool()
to show they agree exactly, and max/average pooling are shown for contrast.
"""

import numpy as np

import fuzzykan.tensor as T
from fuzzykan.pooling import (
    MembershipParams,
    PoolConfig,
    algebraic_sum_score,
    defuzzify_cog,
    fuzzify,
    pool,
    select_fuzzy_patch,
)

params = MembershipParams()  # r_max = 6
print("breakpoints: c,d =", (params.c, params.d), " a,m,b =", (params.a, params.m, params.b), " r,q =", (params.r, params.q))

patch = np.array([[2.0, 2.5], [3.5, 4.0]])
print("\nwindow:\n", patch)

pis = fuzzify(patch, params)
for v, pi in enumerate(pis, start=1):
    print(f"\npi{v} (membership {v}):\n", pi)

scores = tuple(algebraic_sum_score(pi) for pi in pis)
print("\nalgebraic-sum scores:", [f"{s:.6f}" for s in scores])

v = select_fuzzy_patch(scores)
print("selected membership set:", v)

value = defuzzify_cog(patch, pis[v - 1])
print("center-of-gravity output:", value)

# the vectorized layer reproduces the scalar walk-through bit for bit
x = T.Tensor(patch.reshape(1, 1, 2, 2))
for kind in ("fuzzy", "max", "average"):
    out = pool(x, PoolConfig(kind=kind)).data[0, 0, 0, 0]
    print(f"pool({kind!r}) =", out)
