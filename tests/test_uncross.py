import importlib
import itertools
import math

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
    enumerate_permutations,
    first_upcrossing,
    in_support,
    last_downcrossing,
    reflect,
    run_verification,
    swap_images,
    uncross,
    uncross_min,
    uncross_preimage,
)
from bandperm.core import image_max_displacement, orbit, swapped

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
        assert first_upcrossing(Permutation.identity(2), 0) is None
        assert last_downcrossing(Permutation.identity(2), 3) is None

    def test_up_immediately(self):
        up = first_upcrossing(THREE_CYCLE_UP, 2)
        assert (up.index, up.source, up.target) == (0, 0, 3)

    def test_up_after_one_step(self):
        up = first_upcrossing(THREE_CYCLE_LOW, 2)
        assert (up.index, up.source, up.target) == (1, 1, 3)

    def test_down_hand_traced(self):
        down = last_downcrossing(THREE_CYCLE_UP, 2)
        assert (down.index, down.source, down.target) == (1, 3, 1)
        down = last_downcrossing(THREE_CYCLE_LOW, 2)
        assert (down.index, down.source, down.target) == (2, 3, 0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            first_upcrossing(Permutation.identity(1), -1)

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
        for pi in enumerate_permutations(params):
            for t in range(0, 3):
                rec = crossing_record(pi, t)
                if rec is None:
                    continue
                alt = swap_images(pi, rec.up.target, rec.down.target)
                if cycle_of(alt, 0).max > t:
                    bad += 1
        assert bad > 0


class TestUncrossMin:
    def test_conjugation_identity(self):
        pi = Permutation.from_mapping(3, {0: -3, -3: -1, -1: 0})
        assert reflect(uncross_min(pi, 2)) == uncross(reflect(pi), 2)

    def test_clears_minimum_excursion(self):
        for img in itertools.permutations(range(-3, 4)):
            pi = Permutation(img)
            for t in range(0, 3):
                if cycle_of(pi, 0).min >= -t:
                    continue
                rho = uncross_min(pi, t)
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
        members = list(enumerate_permutations(params))
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
        everyone = list(enumerate_permutations(params))
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
            uncross_module, "_swap_costs", lambda fibres, costs: -table_costs(fibres, costs)
        )
        monkeypatch.setattr(reference, "member_cost", lambda *args: -image_cost(*args))
        args = (3, (1, 2), (1.5, 2.0))
        got = run_verification(*args).to_json_dict()
        assert got == reference.run_verification(*args).to_json_dict()
        checks = {v["check"] for v in got["violations"]}
        assert checks == {"energy_monotonicity", "ratio_sum"}

    def test_preimage_violations_equal(self, monkeypatch):
        # both sides lose the lexicographically first preimage of every tau
        kernel = uncross_module._preimages

        def short(taus, walk, t, band):
            owner, found = kernel(taus, walk, t, band)
            first = np.ones(len(owner), dtype=bool)
            first[1:] = owner[1:] != owner[:-1]
            return owner[~first], found[~first]

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
