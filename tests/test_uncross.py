import importlib
import itertools
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bandperm import (
    INFINITY,
    CrossingConditionError,
    DomainError,
    ModelParams,
    NoCrossingError,
    Permutation,
    UnsupportedExponentError,
    crossing_ratio_check,
    crossing_record,
    cycle_of,
    energy,
    in_support,
    reflect,
    run_verification,
    swap_images,
    uncross,
    uncross_preimage,
)
from bandperm.core import image_max_displacement, orbit, swapped
from bandperm.exact import _band_table, _exp
from conftest import table_images

import uncross_reference as reference

# the module, not the function of the same name that the package exports
uncross_module = importlib.import_module("bandperm.uncross")

def full_scan_preimage(tau, t, W):
    """Reference band preimage: every straddling swap of tau, kept when a
    full scan of its displacements stays within W and uncross returns tau."""
    n = len(tau) // 2
    cycle = set(orbit(tau, 0))
    found = []
    for a in range(max(-n, t - W + 1), min(n, t) + 1):
        for b in range(t + 1, min(n, t + W) + 1):
            if a not in cycle or tau[a + n] > t or tau[b + n] <= t:
                continue
            candidate = swapped(tau, a, b)
            if image_max_displacement(candidate) > W:
                continue
            if uncross(Permutation(candidate), t).image == tau:
                found.append(candidate)
    return sorted(found)


THREE_CYCLE_UP = Permutation.from_mapping(3, {0: 3, 3: 1, 1: 0})   # orbit 0,3,1
THREE_CYCLE_LOW = Permutation.from_mapping(3, {0: 1, 1: 3, 3: 0})  # orbit 0,1,3


class TestCrossings:
    def test_identity_has_none(self):
        assert crossing_record(Permutation.identity(2), 0) is None
        assert crossing_record(Permutation.identity(2), 3) is None

    def test_up_immediately(self):
        up = crossing_record(THREE_CYCLE_UP, 2).up
        assert (up.index, up.source, up.target) == (0, 0, 3)

    def test_up_after_one_step(self):
        up = crossing_record(THREE_CYCLE_LOW, 2).up
        assert (up.index, up.source, up.target) == (1, 1, 3)

    def test_down_hand_traced(self):
        down = crossing_record(THREE_CYCLE_UP, 2).down
        assert (down.index, down.source, down.target) == (1, 3, 1)
        down = crossing_record(THREE_CYCLE_LOW, 2).down
        assert (down.index, down.source, down.target) == (2, 3, 0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            crossing_record(Permutation.identity(1), -1)

    @given(st.permutations(list(range(-3, 4))), st.integers(0, 3))
    def test_both_exist_iff_orbit_exceeds(self, img, t):
        pi = Permutation(tuple(img))
        exceeds = cycle_of(pi, 0).max > t
        rec = crossing_record(pi, t)
        assert (rec is not None) == exceeds
        if rec is not None:
            assert rec.up.source <= t < rec.up.target
            assert rec.down.target <= t < rec.down.source
            # first up, last down: recomputed straight from the orbit
            members = orbit(pi.image, 0)
            steps = list(zip(members, members[1:] + [0]))
            assert not any(x <= t < y for x, y in steps[: rec.up.index])
            assert not any(y <= t < x for x, y in steps[rec.down.index + 1 :])


class TestUncross:
    def test_three_cycle_example(self):
        rho = uncross(THREE_CYCLE_UP, 2)
        assert rho == Permutation.from_mapping(3, {0: 1, 1: 0})
        assert cycle_of(rho, 0).elements == frozenset({0, 1})
        params = ModelParams(p=1.0, W=1, n=3)
        assert energy(THREE_CYCLE_UP, params) == 6.0
        assert energy(rho, params) == 2.0

    def test_long_transposition_restores_identity(self):
        pi = Permutation.from_mapping(5, {0: 5, 5: 0})
        assert uncross(pi, 3) == Permutation.identity(5)

    def test_no_crossing_error(self):
        with pytest.raises(NoCrossingError):
            uncross(Permutation.identity(3), 1)
        with pytest.raises(NoCrossingError):
            uncross(THREE_CYCLE_UP, 3)  # orbit max is exactly 3

    @given(st.permutations(list(range(-3, 4))), st.integers(0, 2))
    @settings(max_examples=300)
    def test_contract_on_random_permutations(self, img, t):
        pi = Permutation(tuple(img))
        if cycle_of(pi, 0).max <= t:
            return
        rho = uncross(pi, t)
        assert cycle_of(rho, 0).max <= t
        for p in (1.0, 2.0):
            params = ModelParams(p=p, W=1, n=3)
            assert energy(rho, params) <= energy(pi, params) + 1e-9
        # the swap is an involution, so pi is recovered from rho
        rec = crossing_record(pi, t)
        assert swap_images(rho, rec.up.source, rec.down.source) == pi

    @given(st.permutations(list(range(-3, 4))), st.integers(0, 2))
    @settings(max_examples=300)
    def test_forward_map_lands_in_preimage(self, img, t):
        pi = Permutation(tuple(img))
        if cycle_of(pi, 0).max <= t:
            return
        tau = uncross(pi, t)
        params = ModelParams(p=1.0, W=1, n=3)
        assert pi in uncross_preimage(tau, t, params)

    def test_alternative_composition_reading_fails(self):
        # swapping the images at the crossing targets (instead of sources)
        # leaves some orbits above the threshold; this documents why the
        # source-swap reading is the right one
        params = ModelParams(p=INFINITY, W=2, n=3)
        bad = 0
        for img in table_images(params):
            pi = Permutation(img)
            for t in range(0, 3):
                rec = crossing_record(pi, t)
                if rec is None:
                    continue
                alt = swap_images(pi, rec.up.target, rec.down.target)
                if cycle_of(alt, 0).max > t:
                    bad += 1
        assert bad > 0


class TestUncrossMin:
    """The uncrossing map conjugated by the reflection i -> -i acts on the
    minimum of the cycle of 0."""

    def test_clears_minimum_excursion(self):
        for img in itertools.permutations(range(-3, 4)):
            pi = Permutation(img)
            for t in range(0, 3):
                if cycle_of(pi, 0).min >= -t:
                    continue
                rho = reflect(uncross(reflect(pi), t))
                assert cycle_of(rho, 0).min >= -t


class TestPreimage:
    def test_identity_band_t0(self):
        params = ModelParams(p=INFINITY, W=1, n=1)
        pre = uncross_preimage(Permutation.identity(1), 0, params)
        assert pre == [Permutation.from_mapping(1, {0: 1, 1: 0})]

    def test_not_in_image_error(self):
        params = ModelParams(p=INFINITY, W=1, n=1)
        tau = Permutation.from_mapping(1, {0: 1, 1: 0})
        with pytest.raises(DomainError):
            uncross_preimage(tau, 0, params)

    def test_mismatched_interval(self):
        # params for [-5, 5], tau on [-2, 2], as crossing_ratio_check refuses
        with pytest.raises(DomainError):
            uncross_preimage(Permutation.identity(2), 0, ModelParams(p=INFINITY, W=1, n=5))

    def test_band_w2_identity_t1(self):
        params = ModelParams(p=INFINITY, W=2, n=3)
        pre = uncross_preimage(Permutation.identity(3), 1, params)
        assert 0 < len(pre) <= 4
        for pi in pre:
            assert in_support(pi, 2)
            assert uncross(pi, 1) == Permutation.identity(3)

    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_band_matches_brute_force_inversion(self, W):
        # forward map over all of S_W, fibers grouped, then compared
        params = ModelParams(p=INFINITY, W=W, n=3)
        members = [Permutation(img) for img in table_images(params)]
        for t in range(0, 4):
            fibers = {}
            for pi in members:
                if cycle_of(pi, 0).max > t:
                    fibers.setdefault(uncross(pi, t), []).append(pi)
            for tau in members:
                if cycle_of(tau, 0).max > t:
                    continue
                expected = sorted(fibers.get(tau, []), key=lambda q: q.image)
                got = uncross_preimage(tau, t, params)
                assert got == expected
                assert len(got) <= W * W

    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_band_filter_matches_full_scan(self, W):
        # every tau on 7 points, in S_W or not: the O(1) band test keeps
        # exactly the candidates a full displacement scan keeps
        params = ModelParams(p=INFINITY, W=W, n=3)
        outside = 0
        for img in itertools.permutations(range(-3, 4)):
            outside += image_max_displacement(img) > W
            for t in range(0, 4):
                if max(orbit(img, 0)) > t:
                    continue
                got = uncross_preimage(Permutation(img), t, params)
                assert [pi.image for pi in got] == full_scan_preimage(img, t, W)
        assert outside > 0

    def test_full_support_matches_brute_force_inversion(self):
        params = ModelParams(p=2.0, W=1, n=2)
        everyone = [Permutation(img) for img in table_images(params)]
        for t in range(0, 2):
            fibers = {}
            for pi in everyone:
                if cycle_of(pi, 0).max > t:
                    fibers.setdefault(uncross(pi, t), []).append(pi)
            for tau in everyone:
                if cycle_of(tau, 0).max > t:
                    continue
                expected = sorted(fibers.get(tau, []), key=lambda q: q.image)
                assert uncross_preimage(tau, t, params) == expected


class TestRatioCheck:
    def test_identity_adjacent(self):
        params = ModelParams(p=1.0, W=1, n=3)
        check = crossing_ratio_check(Permutation.identity(3), 0, 1, 0, params)
        assert check.ratio == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert check.bound == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert check.satisfied

    def test_identity_distance_two(self):
        params = ModelParams(p=2.0, W=2, n=3)
        check = crossing_ratio_check(Permutation.identity(3), 0, 2, 1, params)
        assert check.ratio == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert check.bound == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert check.satisfied

    def test_condition_errors(self):
        params = ModelParams(p=1.0, W=1, n=3)
        with pytest.raises(CrossingConditionError):
            crossing_ratio_check(Permutation.identity(3), 1, 2, 0, params)
        with pytest.raises(CrossingConditionError):
            crossing_ratio_check(Permutation.identity(3), 0, 1, 1, params)

    def test_infinite_p_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            crossing_ratio_check(
                Permutation.identity(3), 0, 1, 0, ModelParams(p=INFINITY, W=1, n=3)
            )

    def test_mismatched_interval(self):
        # params for [-1, 1], tau on [-3, 3], as core.energy refuses
        with pytest.raises(DomainError):
            crossing_ratio_check(Permutation.identity(3), 0, 2, 1, ModelParams(p=1.0, W=1, n=1))

    def test_ratio_equals_weight_quotient(self):
        # independent route: both Gibbs weights computed from full energies
        params = ModelParams(p=1.5, W=2, n=3)
        tau = Permutation.from_mapping(3, {0: -1, -1: 0, 2: 3, 3: 2})
        check = crossing_ratio_check(tau, 0, 2, 1, params)
        swapped = swap_images(tau, 0, 2)
        direct = math.exp(-(energy(swapped, params) - energy(tau, params)))
        assert check.ratio == pytest.approx(direct, rel=1e-12)


class TestVerificationSuite:
    def test_small_interval_all_clean(self):
        cert = run_verification(2, [1, 2], [INFINITY, 1.0, 2.0])
        assert cert.ok
        assert cert.counts["uncross_contract"] > 0
        assert cert.counts["preimage_sets_band"] > 0
        assert cert.counts["energy_monotonicity"] > 0
        assert cert.counts["ratio_bound"] > 0
        assert cert.counts["ratio_sum"] > 0
        assert cert.max_ratio_quotient <= 1.0 + 1e-9

    def test_clean_at_large_p(self):
        # every energy difference is the four changed terms: at p=341 two
        # full energies near 6^341 would cancel to 0, and each fibre
        # member's weight ratio would read 1
        cert = run_verification(3, [1], [341.0])
        assert cert.ok, f"violations: {cert.violations[:3]}"
        assert cert.counts["ratio_sum"] > 0
        assert cert.max_ratio_sum_quotient == pytest.approx(math.exp(-2))

    def test_overflowing_power_refused(self):
        # 6^2000 passes the float maximum: the certificate would count the
        # nan swap costs of inf - inf as violations, and this swap's cost
        # would be 3^2000 + 6^2000 - 3^2000 = nan
        with pytest.raises(UnsupportedExponentError, match=r"\(2n\)\^p"):
            run_verification(3, [1], [2000.0])
        tau = Permutation.from_mapping(3, {0: -3, -3: 0})
        with pytest.raises(UnsupportedExponentError, match=r"\(2n\)\^p"):
            crossing_ratio_check(tau, 0, 3, 0, ModelParams(p=2000.0, W=1, n=3))

    def test_power_bound_holds_a_sum_of_two_terms(self):
        # a swap cost adds two terms up to (2n)^p before it subtracts: at
        # n=4, 2 * 8^340 = 2^1021 is finite and 2 * 8^341 = 2^1024 is not
        tau = Permutation.identity(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = run_verification(4, (1,), (340.0,))
            crossing_ratio_check(tau, -4, 4, 0, ModelParams(p=340.0, W=1, n=4))
        assert cert.ok, f"violations: {cert.violations[:3]}"
        with pytest.raises(UnsupportedExponentError, match=r"\(2n\)\^p"):
            run_verification(4, (1,), (341.0,))
        with pytest.raises(UnsupportedExponentError, match=r"\(2n\)\^p"):
            crossing_ratio_check(tau, -4, 4, 0, ModelParams(p=341.0, W=1, n=4))

    def test_ratio_sum_bound_over_exhaustive_range(self):
        # the frozen K = 1.0 must hold across the full exhaustive range;
        # the brute-force maximum quotient (0.657 at p=1, W=1) is pinned
        # as a regression value
        cert = run_verification(3, [1, 2], [1.0, 1.5, 2.0, 4.0], t_values=range(0, 3))
        assert cert.ok, f"violations: {cert.violations[:3]}"
        assert cert.counts["ratio_sum"] > 1000
        assert 0.5 < cert.max_ratio_sum_quotient <= 1.0
        assert cert.max_ratio_sum_quotient == pytest.approx(0.65619, abs=1e-4)

    def test_one_step_membership_nonvacuous_at_m11(self):
        # at 2n+1 = 7 no band orbit can exceed lam + 2W, so the one-step
        # check only bites from 2n+1 = 11, W = 2 upward
        cert = run_verification(5, [2], [INFINITY], lam_values=[0, 1], t_values=[])
        assert cert.counts["one_step_membership"] > 0
        assert cert.ok

    def test_band_certificate_at_13_points(self):
        # 2n+1 = 13: |S_3| = 563,172 members, every t in 0..5
        cert = run_verification(6, (1, 2, 3), (INFINITY,))
        assert cert.ok, f"violations: {cert.violations[:3]}"
        for check in ("one_step_membership", "uncross_contract", "preimage_sets_band"):
            assert cert.counts[check] > 0
        assert 1 <= cert.max_preimage_size <= 9

    def test_certificate_serializes(self):
        import json

        cert = run_verification(2, [1], [INFINITY])
        payload = cert.to_json_dict()
        assert payload["violations_total"] == 0
        json.dumps(payload)

    def test_preimage_witness_recorded(self):
        cert = run_verification(3, [2], [INFINITY], lam_values=[], t_values=range(0, 3))
        assert cert.ok
        assert cert.max_preimage_size >= 1
        assert cert.max_preimage_witness is not None


class TestAgainstPerImageReference:
    """The table passes and the one-row kernel against the per-image Python
    code they replaced (tests/uncross_reference.py)."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certificates_equal(self, n):
        # t runs past n, where no orbit crosses and every tau is admissible
        args = (n, (1, 2, 3), (1.0, 1.5, 2.0, 4.0, INFINITY))
        t_values = range(0, 2 * n + 1)
        got = run_verification(*args, t_values=t_values).to_json_dict()
        assert got == reference.run_verification(*args, t_values=t_values).to_json_dict()

    def test_ratio_sum_violations_equal(self, monkeypatch):
        monkeypatch.setattr(uncross_module, "RATIO_SUM_K", 1e-3)
        args = (3, (1, 2), (1.0, 1.5))
        got = run_verification(*args).to_json_dict()
        assert got == reference.run_verification(*args).to_json_dict()
        assert got["violations_total"] > 1000

    def test_energy_violations_equal(self, monkeypatch):
        # negated fibre members' swap costs on both sides: uncrossing now
        # raises the energy, and the fibres' weight sums blow up
        table_costs = uncross_module._swap_costs
        image_cost = reference.member_cost
        monkeypatch.setattr(
            uncross_module,
            "_swap_costs",
            lambda table, fibres, costs: -table_costs(table, fibres, costs),
        )
        monkeypatch.setattr(reference, "member_cost", lambda *args: -image_cost(*args))
        args = (3, (1, 2), (1.5, 2.0))
        got = run_verification(*args).to_json_dict()
        assert got == reference.run_verification(*args).to_json_dict()
        checks = {v["check"] for v in got["violations"]}
        assert checks == {"energy_monotonicity", "ratio_sum"}

    def test_ratio_bound_violations_equal(self, monkeypatch):
        # a guard of -0.5 makes every swap whose ratio passes half its bound
        # a ratio_bound violation, and ratio_sum reads the same guard
        monkeypatch.setattr(uncross_module, "RATIO_GUARD", -0.5)
        args = (3, (1, 2), (1.0, 2.0))
        got = run_verification(*args).to_json_dict()
        assert got == reference.run_verification(*args).to_json_dict()
        checks = Counter(v["check"] for v in got["violations"])
        assert checks == {"ratio_bound": 9120, "ratio_sum": 254}

    def test_preimage_violations_equal(self, monkeypatch):
        # both sides lose the lexicographically first preimage of every tau
        kernel = uncross_module._preimages

        def short(taus, walk, t, band):
            owner, a, b = kernel(taus, walk, t, band)
            first = np.ones(len(owner), dtype=bool)
            first[1:] = owner[1:] != owner[:-1]
            return owner[~first], a[~first], b[~first]

        per_image = reference.preimage_images
        monkeypatch.setattr(uncross_module, "_preimages", short)
        monkeypatch.setattr(
            reference, "preimage_images", lambda tau, t, band: per_image(tau, t, band)[1:]
        )
        args = (2, (1, 2), (1.0, INFINITY))
        got = run_verification(*args).to_json_dict()
        assert got == reference.run_verification(*args).to_json_dict()
        checks = {v["check"] for v in got["violations"]}
        assert checks == {"preimage_sets_band", "preimage_sets_full"}

    def test_one_row_kernel_on_every_image_of_7_points(self):
        # every image on [-3, 3], in S_W or not; the band preimages at W = 1
        # and 2 are compared on the same images in test_band_filter_matches_full_scan
        models = (ModelParams(p=INFINITY, W=3, n=3), ModelParams(p=1.0, W=1, n=3))
        for img in itertools.permutations(range(-3, 4)):
            pi = Permutation(img)
            for t in range(0, 4):
                up, down = reference.crossings(img, t)
                rec = crossing_record(pi, t)
                if up is None:
                    assert rec is None
                    with pytest.raises(NoCrossingError):
                        uncross(pi, t)
                    for params in models:
                        band = params.W if params.infinite_p else None
                        got = [q.image for q in uncross_preimage(pi, t, params)]
                        assert got == reference.preimage_images(img, t, band)
                    continue
                assert (rec.up.index, rec.up.source, rec.up.target) == up
                assert (rec.down.index, rec.down.source, rec.down.target) == down
                assert uncross(pi, t).image == reference.uncross_image(img, t)


class TestKernelPreconditions:
    """What the batched kernel skips, and the facts that make it exact."""

    def test_crossings_get_no_row_at_thresholds_past_n(self, monkeypatch):
        # no 0-cycle on [-3, 3] exceeds t >= 3, so the forward map and the
        # preimage search there never reach the crossing search
        rows_by_t = Counter()
        kernel = uncross_module._crossings

        def counted(walk, t):
            rows_by_t[t] += walk.orbits.shape[1]
            return kernel(walk, t)

        monkeypatch.setattr(uncross_module, "_crossings", counted)
        cert = run_verification(
            3, (1, 2), (1.0, INFINITY), lam_values=range(0, 5), t_values=range(0, 7)
        )
        assert cert.ok
        assert all(rows_by_t[t] > 0 for t in range(0, 3))
        assert all(rows_by_t[t] == 0 for t in range(3, 9))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(p=INFINITY, W=1, n=6),
            ModelParams(p=INFINITY, W=2, n=5),
            ModelParams(p=INFINITY, W=9, n=3),  # wider than the interval
            ModelParams(p=1.0, W=1, n=3),
            ModelParams(p=2.0, W=3, n=4),  # every permutation of 9 points
        ],
    )
    def test_member_keys_strictly_increasing(self, params):
        members = uncross_module._members(params)
        assert len(members.keys) == len(members.table)
        assert (np.diff(members.keys) > 0).all()

    def test_first_exp_max_is_the_argmax_of_every_exp(self):
        # the first maximum of exact._exp(x), the quotients ratio_bound used
        # to exponentiate in full: ties at the 700 clip, values an ulp or a
        # few apart, maxima whose exp is subnormal or zero
        rng = np.random.default_rng(7)
        top = 700.0
        cases = [
            np.array([0.0]),
            np.array([top, 1.0, top, top]),
            np.array([-3.0, -1.0, -1.0 + 1e-17, np.nextafter(-1.0, 0.0), -1.0]),
            np.array([-745.0, -744.5, -745.2, -744.5, -800.0]),
            np.array([-800.0, -900.0, -750.0, -760.0]),
            np.array([-708.4, np.nextafter(-708.4, 0.0), -708.39]),
            # distinct values whose exp rounds to one float
            np.array([-1.0, 1e-20, 2e-20, 1e-17, -1e-17]),
            np.array([0.3, 0.5, 0.5 + 2**-53, np.nextafter(0.5 + 2**-53, 1.0)]),
        ]
        for _ in range(200):
            base = rng.choice([-740.0, -20.0, 0.0, 0.5, 3.0, top])
            spread = rng.choice([0.0, 1e-17, 1e-15, 1e-12, 1e-9, 1.0])
            x = base + spread * rng.integers(-3, 1, size=rng.integers(1, 60))
            cases.append(np.minimum(x, top))
        for x in cases:
            quotient = _exp(x)
            i = int(quotient.argmax())
            assert uncross_module._first_exp_max(x) == (i, quotient[i]), x

    def test_widest_keys_under_the_cap(self):
        # S_1 on 29 points, F(30) = 832,040 members: the most key bits any
        # table under the enumeration cap needs, just under 46
        table = _band_table(14, 1)
        keys = uncross_module._row_keys(table, 1)
        assert (np.diff(keys) > 0).all()
        assert keys[-1] < 1 << 46

    @pytest.mark.parametrize("n, W", [(3, 1), (3, 2), (4, 2)])
    def test_rows_leaving_the_band_locate_to_minus_one(self, n, W):
        # every member with the images at columns a and b traded, located
        # by key arithmetic alone, and built here by a column swap
        members = uncross_module._members(ModelParams(p=INFINITY, W=W, n=n))
        table, m = members.table, 2 * n + 1
        every = np.arange(len(table))
        aliased = 0
        for a, b in itertools.combinations(range(m), 2):
            rows = table.copy()
            rows[:, [a, b]] = rows[:, [b, a]]
            # int8 columns, as the crossing search returns them
            cols = (np.full(len(table), c, dtype=table.dtype) for c in (a, b))
            at = uncross_module._locate_swaps(members, every, *cols)
            outside = (np.abs(rows - np.arange(m)) > W).any(1)
            assert (at[outside] == -1).all()
            assert (table[at[~outside]] == rows[~outside]).all()
            # the digits of a row outside the band leave 0..2W, and its
            # key, were it encoded, could equal a member's
            keys = uncross_module._row_keys(rows[outside], W)
            aliased += np.isin(keys, members.keys).sum()
        assert aliased > 0

    def test_every_admissible_candidate_round_trips(self):
        # the fact that lets the preimage search keep its candidates
        # without uncrossing them: tau's 0-cycle stays <= t and b > t lies
        # off it, so the swap at (a, b) merges b's cycle in between a and
        # tau(a), and its crossing sources are a and b.  Every image of 7
        # points, in S_W or not; the kernel returns exactly the candidates
        # of these conditions, each of which is checked to round-trip
        images = list(itertools.permutations(range(-3, 4)))
        table = uncross_module._table(images)
        walk = uncross_module._walk(table)
        checked = Counter()
        for t in range(0, 4):
            candidates = []
            for k, img in enumerate(images):
                cycle = orbit(img, 0)
                if max(cycle) > t:
                    continue
                for a in cycle:
                    for b in range(t + 1, 4):
                        if img[a + 3] <= t < img[b + 3]:
                            pi = swap_images(Permutation(img), a, b)
                            rec = crossing_record(pi, t)
                            assert (rec.up.source, rec.down.source) == (a, b)
                            assert uncross(pi, t).image == img
                            candidates.append((k, a, b))
            admissible = np.flatnonzero(walk.top <= t + 3)
            for band in (1, 2, 3, None):  # None: finite p
                owner, a, b = uncross_module._preimages(
                    table[admissible], walk.take(admissible), t, band
                )
                got = set(zip(admissible[owner].tolist(), (a - 3).tolist(), (b - 3).tolist()))
                expected = {
                    (k, a, b)
                    for k, a, b in candidates
                    if band is None
                    or (
                        t - band < a
                        and b <= t + band
                        and image_max_displacement(swapped(images[k], a, b)) <= band
                    )
                }
                assert got == expected
                checked[band] += len(got)
        assert 0 < checked[1] < checked[2] < checked[3] < checked[None]

    def test_preimage_on_a_large_interval_matches_reference(self):
        # 121 points, int8 rows: the preimages are ordered by the
        # (a descending, tau(b) ascending) rule alone, at infinite p with
        # W = 2 and with a band of 100, whose limits a + W and b - W leave
        # int8, and at finite p; tau in S_2, and tau with a displacement of
        # 5 far from the threshold
        rng = random.Random(20)
        n = 60
        bands = (2, 100, None)  # None: finite p
        sizes = Counter()
        for k in range(8):
            image = list(range(-n, n + 1))
            for i in range(-n + rng.randint(0, 2), n - 1, 3):
                j = i + rng.randint(0, 2)
                image[i + n], image[j + n] = image[j + n], image[i + n]
            if k % 4 == 3:
                image[-50 + n], image[-45 + n] = image[-45 + n], image[-50 + n]
            tau = Permutation(tuple(image))
            top = max(orbit(tau.image, 0))
            for t in sorted({top, top + 1, top + 3, n - 1}):
                for band in bands:
                    params = ModelParams(p=1.0 if band is None else INFINITY, W=band or 1, n=n)
                    got = [q.image for q in uncross_preimage(tau, t, params)]
                    assert got == reference.preimage_images(tau.image, t, band)
                    sizes[band] += len(got)
        assert 0 < sizes[2] < sizes[100] <= sizes[None]
