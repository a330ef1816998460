import math
import sys
from collections import Counter

import numpy as np
import pytest

from bandperm import analysis
from bandperm import (
    INFINITY,
    DomainError,
    ModelParams,
    NoDataError,
    Permutation,
    SamplerConfig,
    TailCurve,
    TailPoint,
    UnfittableError,
    band_structure_stat,
    cycle_of,
    estimate_tail_curve,
    exact_tail_and_partition,
    fit_exponential_decay,
    largest_propagating_c0,
    preimage_size_stats,
    recurrence_check,
    run_chain,
    sample_cycle_observables,
    uncross,
    uncross_preimage,
)
from bandperm.cli import RECURRENCE_K_MAX_CAP
from uncross_reference import preimage_images
from conftest import table_images

BAND_W1 = ModelParams(p=INFINITY, W=1, n=3)
BAND_W2 = ModelParams(p=INFINITY, W=2, n=3)


def synthetic_curve(params, rate, grid, count=10**9, mean_diam=None):
    points = tuple(
        TailPoint(lam, math.exp(-rate * lam), 0.0, count) for lam in grid
    )
    return TailCurve(params, 0, points, mean_diam, 0.0)


class TestEstimateTailCurve:
    def test_all_zero_diameters(self):
        curve = estimate_tail_curve([0] * 50, [0, 1, 2], BAND_W1)
        assert [pt.survival for pt in curve.points] == [1.0, 0.0, 0.0]

    def test_empty_stream(self):
        with pytest.raises(NoDataError):
            estimate_tail_curve([], [0, 1], BAND_W1)

    def test_counts_and_stderr(self):
        curve = estimate_tail_curve([0, 1, 1, 3], [0, 1, 2, 3, 4], BAND_W1)
        pt = curve.points[1]
        assert pt.survival == 0.75
        assert pt.count == 4
        assert pt.stderr == pytest.approx(math.sqrt(0.75 * 0.25 / 4))
        assert curve.points[2].survival == 0.25
        assert curve.points[4].survival == 0.0

    def test_nonincreasing_always(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            diams = rng.integers(0, 7, size=rng.integers(1, 200)).tolist()
            curve = estimate_tail_curve(diams, range(0, 8), BAND_W1)
            vals = [pt.survival for pt in curve.points]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert vals[0] == 1.0

    def test_mean_diam_carried(self):
        curve = estimate_tail_curve([0, 2, 4], [0, 1], BAND_W1)
        assert curve.mean_diam == pytest.approx(2.0)
        assert curve.mean_diam_stderr >= 0.0

    def test_real_thresholds_floor_to_integers(self):
        curve = estimate_tail_curve([0, 1, 2, 3], [0, 1.8, 3.2], BAND_W1)
        assert [pt.lam for pt in curve.points] == [0, 1, 3]
        assert curve.points[1].survival == 0.75  # floor(1.8) = 1


class TestFits:
    def test_synthetic_decay_recovered(self):
        curve = synthetic_curve(BAND_W1, 0.25, range(0, 41))
        fit = fit_exponential_decay(curve)
        assert fit.decay_rate_c_hat == pytest.approx(0.25, abs=1e-9)
        assert fit.residual == pytest.approx(1.0, abs=1e-12)
        assert fit.exponent_alpha_hat is None

    def test_synthetic_exponent_recovered(self):
        # means 3 W^2 from several samples each, the bandwidths out of order
        data = {w: [2.0 * w * w, 4.0 * w * w, 3.0 * w * w] for w in (8, 1, 4, 2)}
        fit = band_structure_stat(data)
        assert fit.exponent_alpha_hat == pytest.approx(2.0, abs=1e-9)
        assert fit.residual == pytest.approx(1.0, abs=1e-12)
        assert fit.decay_rate_c_hat is None
        assert (fit.window, fit.n_points) == ((1.0, 8.0), 4)

    def test_degenerate_curve_unfittable(self):
        flat = TailCurve(
            BAND_W1, 0, tuple(TailPoint(lam, 1.0, 0.0, 100) for lam in range(5))
        )
        with pytest.raises(UnfittableError):
            fit_exponential_decay(flat)

    def test_window_excludes_head_and_noise(self):
        curve = synthetic_curve(BAND_W2, 0.5, range(0, 15), count=1000)
        fit = fit_exponential_decay(curve)
        # head lam <= 2W = 4 dropped; survival * count < 10 dropped
        assert fit.window == (5.0, 9.0)
        assert fit.n_points == 5

    def test_band_structure_synthetic_slope_one(self):
        data = {w: [0.7 * w] for w in (2, 4, 8, 16)}
        fit = band_structure_stat(data)
        assert fit.exponent_alpha_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.residual == pytest.approx(1.0, abs=1e-12)

    def test_band_structure_identity_stream_unfittable(self):
        with pytest.raises(UnfittableError):
            band_structure_stat({2: [0, 0, 0], 4: [0, 0]})

    def test_band_structure_needs_two_bandwidths(self):
        with pytest.raises(UnfittableError):
            band_structure_stat({2: [1.0]})


class TestPreimageSizeStats:
    def test_w1_sizes_at_most_one(self):
        taus = [Permutation(img) for img in table_images(BAND_W1)]
        stats = preimage_size_stats(BAND_W1, 1, taus)
        assert stats.max_size <= 1
        assert stats.count == sum(
            1 for tau in taus if cycle_of(tau, 0).max <= 1
        )

    def test_w2_exhaustive_matches_forward_map(self):
        # independent route: apply the forward map to every band permutation
        # and histogram the fiber sizes (zero fibers included)
        t = 1
        members = [Permutation(img) for img in table_images(BAND_W2)]
        fibers = {}
        for pi in members:
            if cycle_of(pi, 0).max > t:
                fibers.setdefault(uncross(pi, t), []).append(pi)
        expected = {}
        for tau in members:
            if cycle_of(tau, 0).max > t:
                continue
            size = len(fibers.get(tau, []))
            expected[size] = expected.get(size, 0) + 1
        stats = preimage_size_stats(BAND_W2, t, members)
        assert stats.histogram == expected
        assert stats.max_size <= 4

    @pytest.mark.parametrize("W, n", [(3, 36), (4, 70)])
    def test_one_kernel_call_matches_the_per_tau_loop(self, W, n):
        # a seeded chain sample; 2n+1 = 141 points need more than int8
        params = ModelParams(p=INFINITY, W=W, n=n)
        m = params.interval_size
        taus = []
        config = SamplerConfig.with_defaults(params, seed=5, steps=150 * m * 10, thinning=m * 10)
        run_chain(params, config, taus.append)
        for t in (W, 2 * W):
            admissible = [tau for tau in taus if cycle_of(tau, 0).max <= t]
            expected = [len(preimage_images(tau.image, t, W)) for tau in admissible]
            assert [len(uncross_preimage(tau, t, params)) for tau in admissible] == expected
            stats = preimage_size_stats(params, t, taus)
            assert stats.count == len(expected) > 0
            assert stats.histogram == dict(sorted(Counter(expected).items()))
            assert stats.max_size == max(expected) > 0

    def test_requires_band_model(self):
        with pytest.raises(ValueError):
            preimage_size_stats(ModelParams(p=1.0, W=1, n=3), 1, [])

    def test_mismatched_interval(self):
        # params for [-5, 5], tau on [-2, 2], as uncross_preimage refuses
        with pytest.raises(DomainError):
            preimage_size_stats(ModelParams(p=INFINITY, W=1, n=5), 0, [Permutation.identity(2)])

    def test_no_admissible_samples(self):
        tau = Permutation.from_mapping(3, {0: 2, 2: 0})
        with pytest.raises(NoDataError):
            preimage_size_stats(BAND_W2, 1, [tau])


class TestRecurrence:
    def test_zero_rate_always_propagates(self):
        result = recurrence_check(1.0, 3, 1.0, 0.0, 200)
        assert result.propagated and result.first_failure_k is None

    def test_contraction_constant(self):
        result = recurrence_check(1.0, 2, 1.0, 0.0, 10)
        assert result.c == pytest.approx(1.0 / (1.0 + 0.25))

    def test_negative_control_fails(self):
        result = recurrence_check(1.0, 4, 1.0, 10.0, 50 * 64)
        assert not result.propagated
        assert isinstance(result.first_failure_k, int)

    @pytest.mark.parametrize(
        "C0, c0",
        [(math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1), (1.0, math.nan), (1.0, math.inf), (1.0, -0.1)],
    )
    def test_rejects_nonfinite_or_out_of_range_constants(self, C0, c0):
        # every comparison with NaN is False, so an unchecked NaN c0 "propagates"
        with pytest.raises(ValueError, match="C0" if c0 == 0.1 else "c0"):
            recurrence_check(1.0, 2, C0, c0, 100)

    def test_monotone_under_smaller_c0(self):
        for w in (1, 2, 3):
            k_max = 50 * w**3
            star = largest_propagating_c0(1.0, w, 1.0, k_max)
            assert star > 0
            for frac in (1.0, 0.5, 0.25, 0.1):
                assert recurrence_check(1.0, w, 1.0, star * frac, k_max).propagated

    def test_search_brackets_boundary(self):
        star = largest_propagating_c0(1.0, 1, 1.0, 50)
        assert 0.2 < star < 1.0
        assert recurrence_check(1.0, 1, 1.0, star, 50).propagated
        assert not recurrence_check(1.0, 1, 1.0, star * 1.05, 50).propagated

    @pytest.mark.parametrize("w", [6, 7, 8])
    def test_search_passes_its_start_value(self, w):
        # with a one-step constant W in place of W^2 (C0 = 1/W), c0* passes
        # C0_SEARCH_START = 4 from W = 6 on; a search that stopped at its
        # start returned exactly 4.0 here, though 8.0 fails
        k_max = 50 * w**3
        star = largest_propagating_c0(1.0, w, 1 / w, k_max)
        assert star > analysis.C0_SEARCH_START
        assert recurrence_check(1.0, w, 1 / w, star, k_max).propagated
        above = star + 2 * analysis.C0_SEARCH_TOL
        assert not recurrence_check(1.0, w, 1 / w, above, k_max).propagated

    def test_search_growth_stops_where_nothing_is_compared(self):
        # at C0 = 1e-300 the one-step factor is ~1e-300 and every c0
        # propagates until f(1) = 2 exp(-c0) leaves the normal floats near
        # c0 = 709.09; a check that compares no k is no propagation
        star = largest_propagating_c0(1.0, 1, 1e-300, 50)
        got = recurrence_check(1.0, 1, 1e-300, star, 50)
        assert got.propagated and got.last_compared_k == 0
        above = recurrence_check(1.0, 1, 1e-300, star + 2 * analysis.C0_SEARCH_TOL, 50)
        assert above.last_compared_k is None and not above.propagated
        assert 709.0 < star < 709.1

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_other_exponents(self, p):
        star = largest_propagating_c0(p, 2, 1.0, 400)
        assert star > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            recurrence_check(INFINITY, 1, 1.0, 0.1, 10)
        with pytest.raises(ValueError):
            recurrence_check(1.0, 1, 0.0, 0.1, 10)
        with pytest.raises(ValueError):
            recurrence_check(1.0, 1, 1.0, -0.1, 10)

    @pytest.mark.parametrize(
        "p, W, C0, k_max",
        [
            (INFINITY, 2, 1.0, 100),
            (0.5, 2, 1.0, 100),
            (1.0, 0, 1.0, 100),
            (1.0, 2, 1.0, 0),
            (1.0, 2, 0.0, 100),
            (1.0, 2, math.nan, 100),
            (1.0, 2, math.inf, 100),
        ],
    )
    def test_search_rejects_what_the_check_rejects(self, p, W, C0, k_max, monkeypatch):
        with pytest.raises(ValueError) as want:
            recurrence_check(p, W, C0, 0.1, k_max)

        def forbidden(*args):
            raise AssertionError("kernel built before the arguments were checked")

        monkeypatch.setattr(analysis, "_kernel", forbidden)
        for search in (largest_propagating_c0, analysis._largest_propagating):
            with pytest.raises(ValueError) as got:
                search(p, W, C0, k_max)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("p, W, C0", [(1.0, 1, 1.0), (1.0, 4, 1.0), (2.0, 3, 0.5), (1.0, 6, 1 / 6)])
    def test_search_builds_one_kernel(self, p, W, C0, monkeypatch):
        calls = Counter()
        build, check = analysis._kernel, analysis._propagation

        def counted_build(*args):
            calls["kernel"] += 1
            return build(*args)

        def counted_check(*args):
            calls["check"] += 1
            return check(*args)

        monkeypatch.setattr(analysis, "_kernel", counted_build)
        monkeypatch.setattr(analysis, "_propagation", counted_check)
        largest_propagating_c0(p, W, C0, 50 * W**3)
        assert calls["kernel"] == 1
        # the doubling or descent and the bisection to C0_SEARCH_TOL
        assert calls["check"] > 10

    @pytest.mark.parametrize("p, W, C0", [(1.0, 1, 1.0), (1.0, 4, 1.0), (2.0, 3, 0.5), (1.0, 2, 0.3)])
    def test_search_and_its_check_share_one_kernel(self, p, W, C0, monkeypatch):
        k_max = 50 * W**3
        star = largest_propagating_c0(p, W, C0, k_max)
        want = (star, recurrence_check(p, W, C0, star, k_max))
        builds = []
        build = analysis._kernel

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(analysis, "_kernel", counted_build)
        assert analysis._largest_propagating(p, W, C0, k_max) == want
        assert builds == [(p, W, k_max)]


def recurrence_sides_per_c0(p, W, factor, c0, k_max):
    """The closed form as it ran before the kernel was shared: g, h and the
    kernel cut rebuilt for every c0, and the right side for k < K1 gathered
    as g[k - min(k, K1 - 1)]."""
    ks = np.arange(k_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        f = np.minimum(1.0, 2.0 * np.exp(-c0 * ks / W**3))
        g = np.exp(-((ks / W) ** p))
    ones = f[:k_max] == 1.0
    k1 = k_max if ones.all() else int(np.argmin(ones))
    k = np.arange(k_max)
    rhs = g[k - np.minimum(k, k1 - 1)]
    if k1 < k_max:
        h = g[: k_max - k1] - g[1 : k_max - k1 + 1]
        nonzero = np.nonzero(h)[0]
        cut = int(nonzero[-1]) + 1 if len(nonzero) else 0
        rhs[k1:] += f[k1] * analysis._geometric_sums(h, c0 / W**3, cut)
    return factor * rhs, f[1:], k1, cut if k1 < k_max else None


def direct_recurrence_sides(p, W, C0, c0, k_max):
    """Reference for the recurrence's closed form: the direct O(k_max * cut)
    convolution sum_{j<=k} f(j) h(k-j), with the kernel cut at its
    underflow point."""
    factor = 1.0 - 1.0 / (C0 + W**-2) / W**2
    ks = np.arange(k_max + 2, dtype=float)
    f = np.minimum(1.0, 2.0 * np.exp(-c0 * ks[: k_max + 1] / W**3))
    g = np.exp(-((ks / W) ** p))
    h = g[: k_max + 1] - g[1 : k_max + 2]
    cut = int(np.nonzero(h)[0][-1]) + 1
    conv = np.convolve(f, h[:cut])[: k_max + 1]
    rhs = factor * (conv + f[0] * g[1 : k_max + 2])
    target = np.minimum(1.0, 2.0 * np.exp(-c0 * np.arange(1, k_max + 1) / W**3))
    return rhs[:k_max], target


def direct_recurrence_check(p, W, C0, c0, k_max):
    rhs, target = direct_recurrence_sides(p, W, C0, c0, k_max)
    # the comparison rule of recurrence_check: only where f(k+1) is normal
    bad = (rhs > target * (1.0 + 1e-9)) & (target >= sys.float_info.min)
    first = int(np.argmax(bad)) if bad.any() else None
    compared = [k for k, t in enumerate(target) if t >= sys.float_info.min]
    last = compared[-1] if compared else None
    return analysis.RecurrenceResult(first is None, first, 1.0 / (C0 + W**-2), last)


class TestRecurrenceClosedForm:
    C0_GRID = (0.0, 0.01, 0.03, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 10.0)

    # k_max = 1000 at W = 1 and p = 1 reaches alpha * cut ~ 3000 at c0 >= 4,
    # where one unblocked cumsum of e^{alpha r} h(r) would overflow
    @pytest.mark.parametrize(
        "W, k_max", [(1, 50), (1, 1000), (2, 400), (3, 1350), (5, 6250), (8, 25600)]
    )
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_direct_convolution(self, p, W, k_max):
        factor = 1.0 - 1.0 / (1.0 + W**-2) / W**2
        kernel = analysis._kernel(p, W, k_max)
        for c0 in self.C0_GRID:
            rhs, target = analysis._recurrence_sides(kernel, factor, c0)
            ref_rhs, ref_target = direct_recurrence_sides(p, W, 1.0, c0, k_max)
            assert np.array_equal(target, ref_target)
            # relative agreement in the normal range; below it both forms
            # keep only absolute precision
            tiny = np.finfo(float).tiny
            np.testing.assert_allclose(rhs, ref_rhs, rtol=1e-12, atol=tiny, err_msg=f"c0={c0}")
            got = recurrence_check(p, W, 1.0, c0, k_max)
            want = direct_recurrence_check(p, W, 1.0, c0, k_max)
            assert (got.propagated, got.first_failure_k, got.last_compared_k) == (
                want.propagated,
                want.first_failure_k,
                want.last_compared_k,
            ), f"c0={c0}"

    @staticmethod
    def search_over_reference(monkeypatch, p):
        # the search's per-c0 check, replaced by the direct convolution,
        # which reads nothing of the kernel but its (W, k_max)
        def direct(kernel, C0, c0):
            return direct_recurrence_check(p, kernel.W, C0, c0, kernel.k_max)

        monkeypatch.setattr(analysis, "_propagation", direct)

    def test_largest_c0_matches_search_over_reference(self, monkeypatch):
        ks = [50 * w**3 for w in range(1, 9)]
        stars = [largest_propagating_c0(1.0, w, 1.0, k) for w, k in zip(range(1, 9), ks)]
        self.search_over_reference(monkeypatch, 1.0)
        ref = [largest_propagating_c0(1.0, w, 1.0, k) for w, k in zip(range(1, 9), ks)]
        assert stars == ref

    def test_underflow_regime_c0_matches_reference(self, monkeypatch):
        # recurrence --W-list 1:3 --k-max-factor 2000 --C0 0.3: the search's
        # decisions reach k where f(k+1) is subnormal, which must not count
        ks = [2000 * w**3 for w in range(1, 4)]
        stars = [largest_propagating_c0(1.0, w, 0.3, k) for w, k in zip(range(1, 4), ks)]
        self.search_over_reference(monkeypatch, 1.0)
        ref = [largest_propagating_c0(1.0, w, 0.3, k) for w, k in zip(range(1, 4), ks)]
        assert stars == ref


class TestSharedKernel:
    """The sides read off one kernel equal, bit for bit, the per-c0 form
    that rebuilt g, h and the cut for every c0."""

    C0_GRID = (0.0, 0.01, 0.3, 1.0, 4.0, 50.0, 700.0, 1e4)

    @pytest.mark.parametrize(
        "W, k_max",
        [
            (W, factor * W**3)
            for W in (1, 2, 3, 5, 8)
            for factor in (50, 2000)
            if factor * W**3 <= RECURRENCE_K_MAX_CAP
        ],
    )
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 50.0, 1000.0])
    def test_sides_equal_the_per_c0_form(self, p, W, k_max):
        # c0 = W^3 ln 2 / (k_max - j - 1/2) puts K1 at k_max - j, so the
        # geometric sum runs over a prefix of h only j long: at large p,
        # h starts with zeros and such a prefix's cut is 0
        near_end = [W**3 * math.log(2) / (k_max - j - 0.5) for j in (1, 2, 3, W - 1, W, W + 1)]
        factor = 1.0 - 1.0 / (1.0 + W**-2) / W**2
        kernel = analysis._kernel(p, W, k_max)
        k1s, cuts = set(), set()
        for c0 in self.C0_GRID + tuple(near_end):
            rhs, target = analysis._recurrence_sides(kernel, factor, c0)
            want_rhs, want_target, k1, cut = recurrence_sides_per_c0(p, W, factor, c0, k_max)
            assert np.array_equal(rhs, want_rhs), f"c0={c0}"
            assert np.array_equal(target, want_target), f"c0={c0}"
            k1s.add(k1)
            cuts.add((k_max - k1, cut))
        assert {1, k_max} <= k1s  # c0 = 1e4 and c0 = 0
        if p == 1000.0 and W > 1:
            # h(t) = 0 for t < W - 1, so the prefixes up to W - 1 long cut at 0
            assert (1, 0) in cuts and (W - 1, 0) in cuts and (W, W) in cuts

    def test_cuts_are_the_prefix_cuts(self):
        for p, W in [(1.0, 2), (3.0, 3), (50.0, 5), (1000.0, 8)]:
            kernel = analysis._kernel(p, W, 50 * W**3)
            for m in range(kernel.k_max + 1):
                nonzero = np.nonzero(kernel.h[:m])[0]
                assert kernel.cuts[m] == (int(nonzero[-1]) + 1 if len(nonzero) else 0)


class TestEstimatorAgainstOracle:
    def test_survival_within_four_stderr(self):
        # oracle-sized band instance, many independent seeded chains
        params = BAND_W2
        grid = list(range(0, 5))
        oracle = dict(exact_tail_and_partition(params, 0, grid)[0])
        points_total = 0
        points_ok = 0
        for seed in range(100):
            cfg = SamplerConfig(seed=seed, steps=20_000, burn_in=2_000, thinning=10)
            diams = []
            sample_cycle_observables(params, cfg, 0, lambda r: diams.append(r.diam))
            curve = estimate_tail_curve(diams, grid, params, 0)
            for pt in curve.points:
                points_total += 1
                if abs(pt.survival - oracle[pt.lam]) <= 4.0 * pt.stderr:
                    points_ok += 1
        assert points_ok / points_total >= 0.99

    def test_reflection_symmetry_of_curves(self):
        params = BAND_W2
        grid = list(range(0, 5))
        curves = {}
        for j, seed in ((2, 1001), (-2, 2002)):
            cfg = SamplerConfig(seed=seed, steps=60_000, burn_in=5_000, thinning=10)
            diams = []
            sample_cycle_observables(params, cfg, j, lambda r: diams.append(r.diam))
            curves[j] = estimate_tail_curve(diams, grid, params, j)
        for a, b in zip(curves[2].points, curves[-2].points):
            slack = 5.0 * math.hypot(a.stderr, b.stderr) + 1e-9
            assert abs(a.survival - b.survival) <= slack
