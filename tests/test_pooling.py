import numpy as np
import pytest

import fuzzykan.pooling as pooling
import fuzzykan.tensor as T
from fuzzykan.checks import BREAKPOINT_MARGIN, GRAD_TOL, _pool_input_is_smooth, gradient_check
from fuzzykan.oracles import (
    algebraic_sum_score,
    defuzzify_cog,
    fuzzify,
    fuzzy_window_reference,
    pool_window_oracle,
    select_fuzzy_patch,
)
from fuzzykan.pooling import MembershipParams, PoolConfig, fuzzy_scores, membership_slopes, memberships, pool

from conftest import sample_fuzzy_safe_input

PARAMS = MembershipParams()
SMALLEST_R_MAX = 3e-323  # six times the smallest subnormal; below it breakpoints collapse
WORKED_PATCH = np.array([[2.0, 2.5], [3.5, 4.0]])


class TestMembershipParams:
    def test_default_breakpoints(self):
        assert (PARAMS.c, PARAMS.d) == (1.0, 3.0)
        assert (PARAMS.a, PARAMS.m, PARAMS.b) == (1.5, 3.0, 4.5)
        assert (PARAMS.r, PARAMS.q) == (3.0, 4.5)

    def test_ordering_invariants(self):
        p = MembershipParams(r_max=10.0)
        assert p.c < p.d and p.a < p.m < p.b and p.r < p.q

    def test_invalid_r_max(self):
        with pytest.raises(ValueError):
            MembershipParams(r_max=0.0)

    @pytest.mark.parametrize("r_max", [float("inf"), float("nan")])
    def test_non_finite_r_max(self, r_max):
        with pytest.raises(ValueError, match=f"r_max must be finite and > 0, got {r_max}"):
            MembershipParams(r_max=r_max)

    @pytest.mark.parametrize("r_max", [5e-324, 1e-323, 1.5e-323, 2e-323, 2.5e-323, 5e-323])
    def test_collapsed_breakpoints_rejected(self, r_max):
        with pytest.raises(ValueError, match=f"r_max {r_max!r} is too small: its breakpoints need c < a < d < b"):
            MembershipParams(r_max=r_max)

    def test_smallest_accepted_r_max_pools_like_the_reference(self):
        params = MembershipParams(SMALLEST_R_MAX)
        assert params.c < params.a < params.d < params.b
        x = np.random.default_rng(8).uniform(-0.5, 1.5, (1, 2, 4, 4)) * SMALLEST_R_MAX
        out = pool(T.Tensor(x), PoolConfig(kind="fuzzy", membership=params)).data
        win = T.windows(x, 2, 2)
        assert np.all(np.isfinite(out))
        for idx in np.ndindex(out.shape):
            assert out[idx] == fuzzy_window_reference(win[idx], params)


class TestGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: PoolConfig(k=0), "window size and stride must be >= 1"),
            (lambda: PoolConfig(stride=0), "window size and stride must be >= 1"),
            (lambda: pool(T.Tensor(np.zeros((1, 4, 4))), PoolConfig()), r"pool expects \[N,C,H,W\]"),
        ],
        ids=["k", "stride", "pool-rank"],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class _Draws:
    """A stand-in generator whose ``uniform`` returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def uniform(self, lo, hi, size):
        return np.array(self.draws.pop(0), dtype=float).reshape(size)


class TestFiniteDifferenceSafety:
    """The scan that keeps gradient checks away from kinks and ties rejects fuzzy pool inputs."""

    FUZZY = PoolConfig(kind="fuzzy")

    def window(self, values):
        return np.array(values, dtype=float).reshape(1, 1, 2, 2)

    def test_entry_near_a_breakpoint_is_rejected(self):
        # mu_1 bends at c; the window's scores are far apart, so only the entry rejects it
        near_c = PARAMS.c + BREAKPOINT_MARGIN / 2
        assert _pool_input_is_smooth(self.window([0.2, 0.3, 0.4, PARAMS.c - 2 * BREAKPOINT_MARGIN]), self.FUZZY)
        assert not _pool_input_is_smooth(self.window([0.2, 0.3, 0.4, near_c]), self.FUZZY)

    def test_score_tie_is_rejected(self):
        # an entry below c and one above q saturate mu_1 and mu_3: both scores are exactly 1
        assert PARAMS.breakpoints()[0] > 0.0 and PARAMS.breakpoints()[-1] < 6.0
        assert not _pool_input_is_smooth(self.window([0.0, 6.0, 0.0, 6.0]), self.FUZZY)

    @pytest.mark.parametrize("offset", [0.0, BREAKPOINT_MARGIN / 2, -BREAKPOINT_MARGIN / 2])
    @pytest.mark.parametrize("point", PARAMS.breakpoints())
    def test_entry_at_or_within_the_margin_of_each_breakpoint_is_rejected(self, point, offset):
        assert not _pool_input_is_smooth(self.window([0.2, 0.3, 0.4, point + offset]), self.FUZZY)

    def test_nan_entry_is_near_every_breakpoint(self):
        # a NaN window's scores are NaN and pass the tie rule, so the breakpoint rule alone rejects it
        assert not _pool_input_is_smooth(self.window([0.2, 0.3, 0.4, np.nan]), self.FUZZY)

    @pytest.mark.parametrize(
        "values, smooth",
        [
            ([1.0, 3.0, 2.0, 3.0], False),  # an exact tie for the maximum
            ([1.0, 3.0, 2.0, 3.0 + 2 * BREAKPOINT_MARGIN], True),
            ([1.0, np.nan, 2.0, 3.0], True),  # NaN sorts last and its gap is NaN, which no margin rejects
        ],
    )
    def test_max_pool_rejects_only_a_near_tie(self, values, smooth):
        assert _pool_input_is_smooth(self.window(values), PoolConfig(kind="max")) == smooth

    def test_sampling_redraws_only_the_entries_near_a_breakpoint(self):
        rng = _Draws([0.5, PARAMS.a, 7.0, PARAMS.q + BREAKPOINT_MARGIN / 2], [2.0, 5.0])
        x = sample_fuzzy_safe_input((4,), rng, PARAMS)
        assert x.tolist() == [0.5, 2.0, 7.0, 5.0] and rng.draws == []

    def test_sampling_a_range_of_one_breakpoint_gives_up(self):
        with pytest.raises(RuntimeError, match="could not sample inputs away from membership breakpoints"):
            sample_fuzzy_safe_input((3,), np.random.default_rng(0), PARAMS, lo=PARAMS.c, hi=PARAMS.c)


class TestMembership:
    def test_mu1_midslope(self):
        assert memberships(2.0, PARAMS)[0] == 0.5

    def test_mu2_apex(self):
        assert memberships(3.0, PARAMS)[1] == 1.0

    def test_mu3_below_onset(self):
        assert memberships(2.9, PARAMS)[2] == 0.0

    def test_negative_inputs_saturate_mu1(self):
        assert memberships(-5.0, PARAMS)[0] == 1.0

    def test_mu3_saturates(self):
        assert memberships(7.0, PARAMS)[2] == 1.0

    def test_range(self):
        values = memberships(np.linspace(-2, 10, 500), PARAMS)
        assert values.shape == (3, 500)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_coverage_on_nonnegative_inputs(self):
        assert memberships(np.linspace(0, 8, 1000), PARAMS).max(axis=0).min() > 0.0

    @pytest.mark.parametrize("dtype, stored", [(np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)])
    def test_float32_is_kept_and_every_other_dtype_stored_in_float64(self, dtype, stored):
        # both evaluate in float64: a float32 input stores the float64 results rounded once
        x = np.array([-1.0, 1.25, 2.0, 3.0, 4.0, 7.0]).astype(dtype)
        for sets in (memberships, membership_slopes):
            got, want = sets(x, PARAMS), sets(x.astype(np.float64), PARAMS)
            assert got.shape == (3, 6) and got.dtype == stored, sets.__name__
            assert got.tobytes() == want.astype(stored).tobytes(), sets.__name__


def ulps_around(points, n):
    out, up, down = [points], points, points
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestClippedRamps:
    """``memberships``' clipped ramps, the kernel's memberships, give the bits of ``fuzzify``'s piecewise branches,
    the oracle's, signed zeros included."""

    # subnormal multiples from the smallest accepted r_max up, less 5e-323, whose breakpoints collapse
    R_MAXES = [k * np.nextafter(0.0, 1.0) for k in range(6, 40) if k != 10]
    R_MAXES += list(np.geomspace(1e-320, 1e308, 400)) + [0.5, 6.0, np.finfo(float).max]
    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])

    def test_bit_identical_to_branches(self):
        rng = np.random.default_rng(9)
        for r_max in self.R_MAXES:
            p = MembershipParams(float(r_max))
            points = np.array(p.breakpoints() + [0.0, 5 * p.r_max / 14])
            with np.errstate(all="ignore"):  # overflow to +-inf at the largest r_max
                x = np.concatenate([ulps_around(points, 3), self.SPECIALS, rng.uniform(-0.5, 1.5, 200) * p.r_max])
                ramps = memberships(x, p)
            for v, (got, want) in enumerate(zip(ramps, fuzzify(x, p)), start=1):
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), (r_max, v)
                assert got[~nan].tobytes() == want[~nan].tobytes(), (r_max, v)


class TestSlopes:
    """``membership_slopes``, the kernel's slopes, give the bits of ``slope_branches``, the slopes of ``fuzzify``'s
    triangles, at and around every breakpoint: the inclusive bound wins there."""

    def test_bit_identical_to_branches(self):
        for r_max in TestClippedRamps.R_MAXES:
            p = MembershipParams(float(r_max))
            x = np.concatenate([ulps_around(np.array(p.breakpoints()), 2), TestClippedRamps.SPECIALS])
            want = np.array([slope_branches(xi, p) for xi in x.tolist()]).T
            assert membership_slopes(x, p).tobytes() == want.tobytes(), r_max


class TestFuzzify:
    def test_all_zeros(self):
        p1, p2, p3 = fuzzify(np.zeros((2, 2)), PARAMS)
        np.testing.assert_array_equal(p1, np.ones((2, 2)))
        np.testing.assert_array_equal(p2, np.zeros((2, 2)))
        np.testing.assert_array_equal(p3, np.zeros((2, 2)))

    def test_saturated_high(self):
        p1, p2, p3 = fuzzify(np.full((2, 2), 6.0), PARAMS)
        np.testing.assert_array_equal(p3, np.ones((2, 2)))
        np.testing.assert_array_equal(p1, np.zeros((2, 2)))
        np.testing.assert_array_equal(p2, np.zeros((2, 2)))

    def test_worked_patch_mu2(self):
        _, p2, _ = fuzzify(WORKED_PATCH, PARAMS)
        np.testing.assert_allclose(p2, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-15)


class TestAlgebraicSum:
    def test_pair(self):
        assert algebraic_sum_score([0.5, 0.5]) == 0.75

    def test_absorbing_one(self):
        assert algebraic_sum_score([0.2, 1.0, 0.7]) == 1.0

    def test_worked_fold(self):
        got = algebraic_sum_score([1 / 3, 2 / 3, 2 / 3, 1 / 3])
        assert got == pytest.approx(77 / 81, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            algebraic_sum_score([0.5, 1.2])

    def test_bounds_property(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = rng.uniform(0, 1, rng.integers(1, 9))
            assert 0.0 <= algebraic_sum_score(values) <= 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            values = list(rng.uniform(0, 1, 4))
            base = algebraic_sum_score(values)
            assert algebraic_sum_score(values + [rng.uniform(0.01, 1)]) >= base

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fuzzy_scores_match_scalar_folds(self, k):
        win = np.random.default_rng(k).uniform(-1.0, 8.0, (4, 5, k, k))
        planes = np.moveaxis(win.reshape(4, 5, k * k), -1, 0)  # plane u*k+v is entry (u, v)
        pis, scores = fuzzy_scores(planes, PARAMS)
        assert pis.shape == (3, k * k, 4, 5) and scores.shape == (3, 4, 5)
        cogs = [pooling._cog(pi, planes) for pi in pis]  # every set's folds, though pool folds only the winner's
        for idx in np.ndindex(win.shape[:-2]):
            patch_pis = fuzzify(win[idx], PARAMS)
            for v in range(3):
                assert pis[v][(slice(None), *idx)].tobytes() == patch_pis[v].ravel().tobytes()
                assert scores[v][idx] == algebraic_sum_score(patch_pis[v])
                num = den = 0.0
                for w, x in zip(patch_pis[v].ravel(), win[idx].ravel()):  # defuzzify_cog's folds
                    num, den = num + w * x, den + w
                assert (cogs[v][0][idx], cogs[v][1][idx]) == (num, den)
                if den:  # a losing set's mass can be 0
                    assert num / den == defuzzify_cog(win[idx], patch_pis[v])


class TestSelect:
    def test_strict_argmax(self):
        assert select_fuzzy_patch((0.2, 0.9, 0.1)) == 2

    def test_pick_takes_each_columns_winner(self):
        rng = np.random.default_rng(5)
        sets = rng.uniform(0.0, 1.0, (3, 4, 12))
        sets[rng.random(sets.shape) < 0.2] = -0.0
        sets[rng.random(sets.shape) < 0.1] = -np.nan
        v_star = rng.permutation(np.arange(12, dtype=np.int8) % 3)  # each set wins four columns
        assert pooling._pick(v_star, sets).tobytes() == np.choose(v_star, sets).tobytes()

    def test_tie_breaks_low(self):
        assert select_fuzzy_patch((1.0, 0.5, 1.0)) == 1

    def test_worked_patch(self):
        pis = fuzzify(WORKED_PATCH, PARAMS)
        scores = tuple(algebraic_sum_score(p) for p in pis)
        assert scores[0] == pytest.approx(0.625, abs=1e-12)
        assert scores[1] == pytest.approx(77 / 81, abs=1e-12)
        assert scores[2] == pytest.approx(7 / 9, abs=1e-12)
        v = select_fuzzy_patch(scores)
        assert v == 2
        assert defuzzify_cog(WORKED_PATCH, pis[v - 1]) == fuzzy_window_reference(WORKED_PATCH, PARAMS)


class TestDefuzzify:
    def test_uniform_weights_give_mean(self):
        patch = np.array([[1.0, 2.0], [3.0, 6.0]])
        assert defuzzify_cog(patch, np.full((2, 2), 0.4)) == pytest.approx(3.0, abs=1e-12)

    def test_worked_patch(self):
        pi = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        assert defuzzify_cog(WORKED_PATCH, pi) == pytest.approx(3.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            defuzzify_cog(np.zeros((2, 2)), np.zeros(3))


class TestWinningMassBound:
    """The winning set's mass is at least 3/7, so ``pool`` divides by it without a fall-back."""

    @pytest.mark.parametrize("r_max", [1e-3, 0.5, 6.0, 1e3])
    def test_at_least_three_sevenths(self, r_max):
        params = MembershipParams(r_max)
        crossing = 5 * r_max / 14  # mu1 == mu2 == 3/7
        points = sorted(params.breakpoints() + [crossing])
        xs = {points[0] - r_max, points[-1] + r_max}
        for p in points:
            xs |= {p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)}
        xs |= {(lo + hi) / 2 for lo, hi in zip(points[:-1], points[1:])}
        xs = np.array(sorted(xs))
        rng = np.random.default_rng(4)
        lowest = np.inf
        for k in (1, 2, 3, 5):
            patches = [np.full((k, k), x) for x in xs] + [rng.choice(xs, (k, k)) for _ in range(100)]
            for patch in patches:
                pis = fuzzify(patch, params)
                v = select_fuzzy_patch([algebraic_sum_score(pi) for pi in pis])
                mass = 0.0
                for w in pis[v - 1].ravel():  # the COG's row-major fold
                    mass = mass + w
                lowest = min(lowest, mass)
        assert lowest >= 3 / 7 - 1e-12
        assert abs(lowest - 3 / 7) <= 1e-12


class TestOracleWithoutFallBack:
    """``fuzzy_window_reference`` divides by the winning mass with no fall-back, and matches ``pool`` bit for bit
    on windows where the 3/7 bound is tight: entries at 5*r_max/14, alone or among entries below c."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("r_max", [1e-3, 0.5, 6.0, 1e3])
    def test_tight_windows_pool_like_the_oracle(self, r_max, k):
        params = MembershipParams(r_max)
        rng = np.random.default_rng(k)
        masks = np.array(list(np.ndindex((2,) * k * k)), dtype=bool) if k < 3 else rng.random((40, 9)) < 0.5
        patches = np.full((len(masks), k * k), 5 * r_max / 14)
        patches[masks] = rng.choice([params.c / 2, 0.0, -r_max], int(masks.sum()))
        out = pool(T.Tensor(patches.reshape(1, 1, -1, k)), PoolConfig(kind="fuzzy", k=k, stride=k, membership=params))
        expected = np.array([fuzzy_window_reference(p.reshape(k, k), params) for p in patches])
        assert out.data.reshape(-1).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nan_window_is_nan_in_both(self, k):
        patch = np.full((k, k), 5 * PARAMS.r_max / 14)
        patch[-1, -1] = np.nan
        out = pool(T.Tensor(patch[None, None]), PoolConfig(kind="fuzzy", k=k, stride=k)).data
        assert np.isnan(out[0, 0, 0, 0]) and np.isnan(fuzzy_window_reference(patch, PARAMS))


def pool_values(values, kind, k=2, stride=2):
    x = T.Tensor(np.asarray(values, dtype=float).reshape(1, 1, *np.shape(values)))
    return pool(x, PoolConfig(kind=kind, k=k, stride=stride)).data[0, 0]


class TestPool:
    def test_max(self):
        assert pool_values([[1.0, 2.0], [3.0, 4.0]], "max") == 4.0

    def test_average(self):
        assert pool_values([[1.0, 2.0], [3.0, 4.0]], "average") == 2.5

    def test_fuzzy_worked_patch(self):
        assert pool_values(WORKED_PATCH, "fuzzy") == pytest.approx(3.0, abs=1e-12)

    def test_non_integral_extent(self):
        with pytest.raises(ValueError, match="does not tile"):
            pool(T.Tensor(np.zeros((1, 1, 5, 5))), PoolConfig(kind="max", k=2, stride=2))

    def test_bad_kind(self):
        with pytest.raises(ValueError, match=r"pooling kind must be one of \('max', 'average', 'fuzzy'\), got 'median'"):
            PoolConfig(kind="median")

    @pytest.mark.parametrize("kind", ["max", "average", "fuzzy"])
    def test_oracle_equivalence_exact(self, kind):
        rng = np.random.default_rng(17)
        for shape, k, stride, nans in [((2, 4, 8, 8), 2, 2, 0), ((1, 2, 6, 6), 3, 3, 0), ((2, 1, 8, 8), 2, 2, 0), ((1, 3, 6, 6), 2, 2, 9)]:
            x = rng.uniform(-1.0, 8.0, shape)
            x.flat[rng.choice(x.size, nans, replace=False)] = np.nan  # NaN windows must stay NaN, in place
            with np.errstate(invalid="ignore"):
                out = pool(T.Tensor(x), PoolConfig(kind=kind, k=k, stride=stride)).data
            n, c, ho, wo = out.shape
            for ni in range(n):
                for ci in range(c):
                    for i in range(ho):
                        for j in range(wo):
                            patch = x[ni, ci, i * stride : i * stride + k, j * stride : j * stride + k]
                            expected = pool_window_oracle(patch, kind, PARAMS)
                            assert out[ni, ci, i, j] == expected or np.isnan(out[ni, ci, i, j]) and np.isnan(expected)

    def test_constant_patch_passthrough(self):
        for value in (0.5, 2.0, 3.7, 5.0):
            assert pool_values(np.full((2, 2), value), "fuzzy") == pytest.approx(value, abs=1e-12)

    def test_scale_contract(self):
        # scaling moves this patch into a different membership set
        x = np.array([[0.6, 1.2], [1.8, 2.4]])
        scale = 2.0
        for kind in ("max", "average"):
            assert pool_values(x * scale, kind) == pytest.approx(scale * pool_values(x, kind), abs=1e-12)
        fuzzy_scaled = pool_values(x * scale, "fuzzy")
        assert abs(fuzzy_scaled - scale * pool_values(x, "fuzzy")) > 1e-3

    @pytest.mark.parametrize("kind", ["max", "average", "fuzzy"])
    def test_gradient_check(self, kind):
        rng = np.random.default_rng(9)
        if kind == "fuzzy":
            values = sample_fuzzy_safe_input((1, 2, 4, 4), rng, PARAMS)
        else:
            values = rng.uniform(-1.0, 8.0, (1, 2, 4, 4))
            values += np.arange(32).reshape(1, 2, 4, 4) * 1e-2  # split max ties
        x = T.Tensor(values, requires_grad=True)
        config = PoolConfig(kind=kind, k=2, stride=2)

        def build():
            out = pool(x, config)
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x]) < GRAD_TOL

    @pytest.mark.parametrize("kind", ["max", "average", "fuzzy"])
    def test_overlapping_stride_gradient(self, kind):
        rng = np.random.default_rng(10)
        if kind == "fuzzy":
            values = sample_fuzzy_safe_input((1, 1, 5, 5), rng, PARAMS)
        else:
            values = rng.uniform(-1.0, 8.0, (1, 1, 5, 5))
            values += np.arange(25).reshape(1, 1, 5, 5) * 1e-2  # split max ties
        x = T.Tensor(values, requires_grad=True)
        config = PoolConfig(kind=kind, k=3, stride=1)

        def build():
            out = pool(x, config)
            return T.reduce_sum(T.mul(out, out))

        assert gradient_check(build, [x]) < GRAD_TOL

    @pytest.mark.parametrize("shape, k", [((2, 3, 8, 8), 2), ((1, 2, 6, 6), 3)])
    def test_max_backward_matches_scatter_add(self, shape, k):
        rng = np.random.default_rng(12)
        # small integers make ties common, so first-argmax routing is exercised
        values = rng.integers(0, 3, shape).astype(float)
        x = T.Tensor(values, requires_grad=True)
        out = pool(x, PoolConfig(kind="max", k=k, stride=k))
        upstream = rng.uniform(-1.0, 1.0, out.shape)
        T.reduce_sum(T.mul(out, T.Tensor(upstream))).backward()

        # the formulation max pooling used before the shared window scatter
        n, c, ho, wo = out.shape
        idx = T.windows(values, k, k).reshape(n, c, ho, wo, k * k).argmax(axis=-1)
        expected = np.zeros_like(values)
        ni, ci, ii, ji = np.indices((n, c, ho, wo))
        np.add.at(expected, (ni, ci, ii * k + idx // k, ji * k + idx % k), upstream)
        assert np.array_equal(x.grad, expected)


def slope_branches(x, p):
    """The slopes of ``fuzzify``'s three triangles at one Python float; at a breakpoint the inclusive bound wins."""
    c, d, a, m, b, r, q = p.c, p.d, p.a, p.m, p.b, p.r, p.q
    mu1 = -1.0 / (d - c) if c <= x <= d else 0.0
    mu2 = 1.0 / (m - a) if a < x <= m else -1.0 / (b - m) if m < x < b else 0.0
    mu3 = 1.0 / (q - r) if r <= x <= q else 0.0
    return mu1, mu2, mu3


def fuzzy_window_grad_reference(patch, params):
    """d(pooled value)/d(entry) of one window: v* held fixed, scalar folds in row-major order."""
    flat = patch.ravel().tolist()
    pis = fuzzify(patch, params)
    v_star = select_fuzzy_patch([algebraic_sum_score(pi) for pi in pis])
    sel = pis[v_star - 1].ravel().tolist()
    num = 0.0
    den = 0.0
    for w, x in zip(sel, flat):
        num = num + w * x
        den = den + w
    dsel = [slope_branches(x, params)[v_star - 1] for x in flat]
    grads = [(w + dw * x) / den - num * dw / (den * den) for w, dw, x in zip(sel, dsel, flat)]
    return np.reshape(grads, patch.shape)


def fuzzy_pool_grad(values, k, stride, upstream=None):
    """The pooled output and the input gradient of sum(upstream * pool(values))."""
    x = T.Tensor(np.asarray(values, dtype=float), requires_grad=True)
    out = pool(x, PoolConfig(kind="fuzzy", k=k, stride=stride))
    upstream = np.ones(out.shape) if upstream is None else upstream
    T.reduce_sum(T.mul(out, T.Tensor(upstream))).backward()
    return out.data, x.grad


class TestFuzzyPaths:
    """Windows wholly below c are averaged; every other window is fuzzified."""

    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 1)])
    def test_gradient_matches_scalar_reference(self, k, stride):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1.0, 8.0, (2, 3, 8, 8))
        low = rng.random(x.shape) < 0.8
        x[low] = rng.uniform(-1.0, PARAMS.c, int(low.sum()))  # many windows wholly below c
        marks = rng.random(x.shape)
        x[marks < 0.03] = PARAMS.c
        on_breakpoint = (marks >= 0.03) & (marks < 0.06)
        x[on_breakpoint] = rng.choice(PARAMS.breakpoints(), int(on_breakpoint.sum()))
        win = T.windows(x, k, stride)
        below = (win < PARAMS.c).all(axis=(-2, -1))
        assert 0 < below.sum() < below.size  # both paths run

        upstream = rng.uniform(-1.0, 1.0, below.shape)
        out, grad = fuzzy_pool_grad(x, k, stride, upstream)
        dwin = np.empty(win.shape)
        for idx in np.ndindex(below.shape):
            assert out[idx] == fuzzy_window_reference(win[idx], PARAMS)
            dwin[idx] = fuzzy_window_grad_reference(win[idx], PARAMS)
        expected = np.zeros_like(x)
        for u, v in np.ndindex(k, k):  # each pixel sums its windows' entries in (u, v) order
            for ni, ci, i, j in np.ndindex(below.shape):
                contribution = upstream[ni, ci, i, j] * dwin[ni, ci, i, j, u, v]
                expected[ni, ci, i * stride + u, j * stride + v] += contribution
        assert np.array_equal(grad, expected)

    def test_entry_at_c_is_fuzzified(self):
        # mu1(c) = 1, so the output is the mean, but d(mu1)/dx at c is not 0
        patch = np.array([[PARAMS.c, 0.2], [-0.3, 0.1]])
        out, grad = fuzzy_pool_grad(patch[None, None], 2, 2)
        assert out[0, 0, 0, 0] == fuzzy_window_reference(patch, PARAMS) == (PARAMS.c + 0.2 - 0.3 + 0.1) / 4
        assert np.array_equal(grad[0, 0], fuzzy_window_grad_reference(patch, PARAMS))
        assert grad[0, 0, 0, 0] != 0.25 and np.all(grad[0, 0].ravel()[1:] == 0.25)

    def test_all_negative_window_is_the_mean(self):
        patch = np.array([[-0.5, -2.0], [-7.25, -1e-3]])
        out, grad = fuzzy_pool_grad(patch[None, None], 2, 2)
        assert out[0, 0, 0, 0] == fuzzy_window_reference(patch, PARAMS)
        assert np.all(grad == 0.25)

    @pytest.mark.parametrize(
        "window, expected",
        [
            ([[np.inf, 0.0], [0.0, 0.0]], np.nan),  # mu1 and mu3 tie at 1, mu1 wins, and mu1(inf) * inf is NaN
            ([[np.inf, 5.0], [5.0, 5.0]], np.inf),
            ([[-np.inf, 0.0], [0.0, 0.0]], -np.inf),
            ([[np.inf, np.inf], [np.inf, np.inf]], np.inf),
            ([[-np.inf, -np.inf], [-np.inf, -np.inf]], -np.inf),
        ],
    )
    def test_infinite_entries_pool_like_the_reference(self, window, expected):
        patch = np.array(window)
        with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf in the COG rule
            out = pool(T.Tensor(patch[None, None]), PoolConfig(kind="fuzzy", membership=PARAMS)).data
            reference = fuzzy_window_reference(patch, PARAMS)
        np.testing.assert_equal([out[0, 0, 0, 0], reference], [expected, expected])  # a NaN equals a NaN

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tied_sets_pool_like_the_reference(self, dtype):
        # windows whose winning sets tie exactly at score 1 but give different COGs; the lowest v wins:
        # mu1 and mu3 (0 below c, 10 above q), mu1 and mu2 (3 = m), mu2 and mu3 above mu1, all three
        windows = np.array([[0, 0, 0, 10], [0, 0, 0, 3], [3, 10, 3, 10], [0, 3, 10, 0]], dtype=dtype)
        x = windows.reshape(1, 1, 4, 2, 2).transpose(0, 1, 3, 2, 4).reshape(1, 1, 2, 8)  # window i at columns 2i, 2i+1
        out = pool(T.Tensor(x), PoolConfig(kind="fuzzy", membership=PARAMS)).data
        expected = [fuzzy_window_reference(w.reshape(2, 2), PARAMS) for w in windows]
        assert expected == [0.0, 0.0, 3.0, 0.0]  # exact in either dtype
        assert out.dtype == dtype and out.reshape(-1).tolist() == expected

    def test_minus_inf_window_has_nan_gradient(self):
        values = np.array([[-np.inf, 0.2, 0.5, 0.5], [0.3, 0.1, 0.5, 0.5]])
        with np.errstate(invalid="ignore"):  # -inf * 0 in the COG rule
            out, grad = fuzzy_pool_grad(values[None, None], 2, 2)
        assert out[0, 0, 0, 0] == -np.inf and out[0, 0, 0, 1] == 0.5
        assert np.all(np.isnan(grad[0, 0, :, :2])) and np.all(grad[0, 0, :, 2:] == 0.25)


BIG = [(np.float64, 1e308), (np.float32, 3e38)]  # a window of four passes the float maximum


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dtype, big", BIG)
@pytest.mark.parametrize("kind", ["average", "fuzzy"])
def test_overflowing_window_sums_are_quiet(kind, dtype, big, sign):
    # the forward's window sums and COG folds and the fuzzy backward's COG folds warned "overflow encountered in add"
    x = T.Tensor(np.full((1, 1, 2, 2), sign * big, dtype), requires_grad=True)
    out = pool(x, PoolConfig(kind=kind, membership=PARAMS))
    T.reduce_sum(out).backward()
    assert out.data.dtype == dtype and out.data.item() == sign * np.inf
    if dtype == np.float64:
        assert out.data.item() == pool_window_oracle(x.data[0, 0], kind, PARAMS)
    # the fuzzy COG rule's num * dsel is inf * 0 once num overflows, NaN as at an infinite entry
    assert np.array_equal(x.grad.reshape(-1), np.full(4, 0.25 if kind == "average" else np.nan), equal_nan=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dtype, big", BIG)
def test_average_oracle_folds_python_floats(dtype, big, sign):
    # numpy scalars warned "overflow encountered in scalar add" (and a float32 patch summed in float32)
    v = float(dtype(sign * big))
    assert pool_window_oracle(np.full((2, 2), v, dtype), "average", PARAMS) == (((0.0 + v) + v) + v + v) / 4


def edge_images(rng, params, dtype, shape):
    """Entries at and one ulp around every breakpoint and 5*r_max/14, whole images and half images
    below c (the averaged windows), and +-0, +-inf and NaN, in ``dtype``."""
    points = np.array(params.breakpoints() + [5 * params.r_max / 14]).astype(dtype)
    near = np.concatenate([points, np.nextafter(points, dtype(np.inf)), np.nextafter(points, dtype(-np.inf))])
    x = rng.uniform(-1.0, 1.4 * params.r_max, shape).astype(dtype)
    flat = x.reshape(-1)
    pick = rng.random(flat.size) < 0.3
    flat[pick] = rng.choice(near, int(pick.sum()))
    x[1] = rng.uniform(-1.0, params.c, x[1].shape)
    x[3, :, : shape[2] // 2] = rng.uniform(-1.0, params.c, x[3, :, : shape[2] // 2].shape)
    flat[rng.choice(flat.size, 10, replace=False)] = [0.0, -0.0, np.inf, -np.inf, np.nan] * 2
    return x


def pool_and_grad(x, config, upstream):
    xt = T.Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf at the infinite entries
        out = pool(xt, config)
        T.reduce_sum(T.mul(out, T.Tensor(upstream))).backward()
    return out.data, xt.grad


class TestImageBlocks:
    """``pool`` walks the batch in ``tensor.image_blocks``; no window spans two images."""

    @pytest.mark.parametrize("r_max", [6.0, 0.5])
    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["max", "average", "fuzzy"])
    def test_blocks_match_one_pass(self, monkeypatch, kind, dtype, k, stride, r_max):
        # two images per block, so 5 images are two whole blocks and a partial one
        params = MembershipParams(r_max)
        config = PoolConfig(kind=kind, k=k, stride=stride, membership=params)
        rng = np.random.default_rng(31)
        x = edge_images(rng, params, dtype, (5, 2, 6, 6))
        win = T.windows(x, k, stride)
        upstream = rng.uniform(-1.0, 1.0, win.shape[:4]).astype(dtype)

        monkeypatch.setattr(T, "IMAGE_BLOCK", 1 << 40)
        assert len(T.image_blocks(win)) == 1
        one_out, one_grad = pool_and_grad(x, config, upstream)
        monkeypatch.setattr(T, "IMAGE_BLOCK", 2 * win[0].size + 1)
        assert [(b.start, b.stop) for b in T.image_blocks(win)] == [(0, 2), (2, 4), (4, 6)]
        out, grad = pool_and_grad(x, config, upstream)

        assert out.dtype == grad.dtype == dtype
        assert out.tobytes() == one_out.tobytes() and grad.tobytes() == one_grad.tobytes()
        if dtype == np.float64:  # every window of every block, against the scalar oracle
            for idx in np.ndindex(out.shape):
                expected = pool_window_oracle(win[idx], kind, params)
                assert out[idx] == expected or np.isnan(out[idx]) and np.isnan(expected), idx


def argmax_max_pool(x, k, stride, upstream):
    """Max pooling by ``argmax`` and ``take_along_axis`` over each window's k*k entries, and its gradient by the
    one-hot x g product added onto the input in (u, v) order: the formulation before window planes."""
    win = T.windows(x, k, stride)
    flat = win.reshape(*win.shape[:4], k * k)
    idx = flat.argmax(axis=-1)  # the first maximum, or the first NaN
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    dwin = ((np.arange(k * k) == idx[..., None]) * upstream[..., None]).reshape(win.shape)
    dx = np.zeros(x.shape, dtype=upstream.dtype)
    ho, wo = out.shape[2:]
    for u in range(k):
        for v in range(k):
            dx[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += dwin[..., u, v]
    return out, dx


class TestMaxBits:
    """Max pooling keeps ``argmax``'s bits: the first of +-0 ties, the first NaN and its payload, the one-hot routing."""

    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_match_argmax(self, dtype, k, stride):
        rng = np.random.default_rng(41)
        x = edge_images(rng, PARAMS, dtype, (5, 2, 6, 6))
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        top = np.iinfo(bits).max ^ (np.iinfo(bits).max >> 1)  # the sign bit
        quiet = np.array(np.nan, dtype).view(bits)
        nan_a, nan_b = np.array([quiet | 1, top | quiet | 2], bits).view(dtype)  # two NaN payloads, one negative
        x[0, 0, 0:2, 0:2] = [[0.0, -0.0], [-0.0, 0.0]]  # +-0 ties, +0 first
        x[0, 0, 0:2, 2:4] = [[-0.0, 0.0], [0.0, -0.0]]  # -0 first
        x[0, 0, 2:4, 0:2] = [[nan_a, 1.0], [2.0, nan_b]]  # a NaN first
        x[0, 0, 2:4, 2:4] = [[1.0, 2.0], [nan_b, nan_a]]  # a NaN later
        x[0, 1, 0:2, 0:2] = -np.inf
        x[0, 1, 0:2, 2:4] = [[np.inf, 1.0], [np.inf, -np.inf]]
        x[0, 1, 2:4, 0:2] = [[-0.0, -1.0], [-2.0, 0.0]]
        upstream = rng.uniform(-1.0, 1.0, T.windows(x, k, stride).shape[:4]).astype(dtype)
        upstream[0, 0, 0, :] = [np.nan, -0.0, np.inf, 0.0][: upstream.shape[3]]  # 0 * NaN and 0 * inf on the other entries
        out, grad = pool_and_grad(x, PoolConfig(kind="max", k=k, stride=stride), upstream)
        with np.errstate(invalid="ignore"):
            want_out, want_grad = argmax_max_pool(x, k, stride, upstream)
        assert out.dtype == grad.dtype == dtype
        assert out.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


class TestFuzzySkip:
    """An image block with no fuzzified window runs no membership pass, scores, winner pick or COG fold, forward or
    backward."""

    def test_all_below_c_batch_never_fuzzifies(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fuzzified a block whose windows are all below c")

        monkeypatch.setattr(pooling, "memberships", refuse)
        monkeypatch.setattr(pooling, "membership_slopes", refuse)
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, np.nextafter(PARAMS.c, -np.inf), (20, 3, 8, 8))
        x[0, 0, 0, 0] = -0.0
        upstream = rng.uniform(-1.0, 1.0, (20, 3, 4, 4))
        out, grad = pool_and_grad(x, PoolConfig(kind="fuzzy", membership=PARAMS), upstream)
        want_out, want_grad = pool_and_grad(x, PoolConfig(kind="average"), upstream)  # g / 4 == g * (1 / 4)
        assert out.tobytes() == want_out.tobytes() and grad.tobytes() == want_grad.tobytes()

    def test_only_blocks_with_a_fuzzified_window_fuzzify(self, monkeypatch):
        calls = []

        def counted(x, params):
            calls.append(np.shape(x))
            return memberships(x, params)

        monkeypatch.setattr(pooling, "memberships", counted)
        monkeypatch.setattr(T, "IMAGE_BLOCK", 1)  # one image per block
        rng = np.random.default_rng(43)
        x = rng.uniform(-1.0, np.nextafter(PARAMS.c, -np.inf), (4, 2, 4, 4))
        x[2, 1, 3, 3] = PARAMS.c  # one window of image 2 is fuzzified
        upstream = rng.uniform(-1.0, 1.0, (4, 2, 2, 2))
        out, grad = pool_and_grad(x, PoolConfig(kind="fuzzy", membership=PARAMS), upstream)
        assert calls == [(4, 1), (4, 1)]  # its block's one window, forward then backward
        patch = x[2, 1, 2:, 2:]
        assert out[2, 1, 1, 1] == fuzzy_window_reference(patch, PARAMS)
        assert np.array_equal(grad[2, 1, 2:, 2:], upstream[2, 1, 1, 1] * fuzzy_window_grad_reference(patch, PARAMS))
