import itertools
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bandperm import (
    INFINITY,
    DegenerateSwapError,
    DomainError,
    ModelParams,
    Permutation,
    UnsupportedExponentError,
    cycle_of,
    energy,
    in_support,
    max_displacement,
    reflect,
    swap_images,
)
from bandperm.core import _orbit_table, displacement_costs, orbit, swap_cost
from bandperm.exact import _band_table
from conftest import interval_permutations, orbit_by_iteration


class TestModelParams:
    def test_accepts_finite_and_infinite_p(self):
        ModelParams(p=1.0, W=1, n=1)
        ModelParams(p=1.5, W=3, n=10)
        assert ModelParams(p=INFINITY, W=2, n=5).infinite_p

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, float("nan")])
    def test_rejects_bad_p(self, bad):
        with pytest.raises(ValueError):
            ModelParams(p=bad, W=1, n=1)

    @pytest.mark.parametrize("kwargs", [dict(W=0), dict(W=-2), dict(n=0), dict(n=-1)])
    def test_rejects_bad_w_n(self, kwargs):
        full = dict(p=1.0, W=1, n=1)
        full.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**full)

    def test_interval_size(self):
        assert ModelParams(p=1.0, W=1, n=3).interval_size == 7


class TestPermutation:
    def test_identity(self):
        pi = Permutation.identity(2)
        assert pi.image == (-2, -1, 0, 1, 2)
        assert pi(0) == 0 and pi(-2) == -2

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(DomainError):
            Permutation((-1, 0, 2))

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            Permutation((-1, 0, 1, 2))

    def test_call_outside_domain(self):
        with pytest.raises(DomainError):
            Permutation.identity(1)(2)

    def test_from_mapping_checks_domain(self):
        with pytest.raises(DomainError):
            Permutation.from_mapping(1, {2: 0})

    def test_json_round_trip(self):
        pi = Permutation.from_mapping(2, {0: 1, 1: 0})
        assert Permutation.from_list(pi.to_list()) == pi
        assert pi.to_list() == [-2, -1, 1, 0, 2]


class TestCycleOf:
    def test_fixed_point(self):
        stats = cycle_of(Permutation.identity(2), 0)
        assert stats.elements == frozenset({0})
        assert (stats.length, stats.diam) == (1, 0)

    def test_transposition_orbit(self):
        pi = Permutation.from_mapping(2, {0: 1, 1: 0})
        stats = cycle_of(pi, 0)
        assert stats.elements == frozenset({0, 1})
        assert (stats.length, stats.diam) == (2, 1)

    def test_three_cycle_hand_traced(self):
        # orbit 0 -> 3 -> 1 -> 0, cross-checked by brute-force iteration
        pi = Permutation.from_mapping(3, {0: 3, 3: 1, 1: 0})
        stats = cycle_of(pi, 0)
        assert stats.elements == frozenset({0, 1, 3})
        assert stats.elements == frozenset(orbit_by_iteration(pi, 0))
        assert (stats.min, stats.max, stats.diam, stats.length) == (0, 3, 3, 3)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            cycle_of(Permutation.identity(1), 5)

    @given(interval_permutations(), st.data())
    def test_matches_brute_force_orbit(self, pi, data):
        j = data.draw(st.integers(-pi.n, pi.n))
        stats = cycle_of(pi, j)
        expected = orbit_by_iteration(pi, j)
        assert set(stats.elements) == expected
        assert stats.length == len(expected)
        assert stats.diam == max(expected) - min(expected)

    @given(interval_permutations())
    def test_cycles_partition_domain(self, pi):
        seen: set[int] = set()
        total = 0
        for j in pi.domain():
            if j in seen:
                continue
            stats = cycle_of(pi, j)
            assert not (stats.elements & seen)
            seen |= stats.elements
            total += stats.length
        assert total == 2 * pi.n + 1

    @given(interval_permutations(), st.data())
    def test_same_cycle_same_stats(self, pi, data):
        j = data.draw(st.integers(-pi.n, pi.n))
        stats = cycle_of(pi, j)
        j2 = data.draw(st.sampled_from(sorted(stats.elements)))
        assert cycle_of(pi, j2) == stats


class TestOrbitTable:
    def test_row_k_is_the_kth_orbit_point_in_every_member(self):
        # all 5,040 permutations of 7 points, shifted to 0..6, at every x
        table = np.array(list(itertools.permutations(range(7))), dtype=np.int8)
        images = [tuple(v - 3 for v in row) for row in table.tolist()]
        for x in range(7):
            walked = _orbit_table(table, x)
            cycles = [orbit(image, x - 3) for image in images]
            assert walked.shape == (max(map(len, cycles)) + 1, len(table))
            for column, cycle in zip(walked.T.tolist(), cycles):
                assert [v - 3 for v in column] == [
                    cycle[k % len(cycle)] for k in range(len(column))
                ]

    def test_walk_stops_once_every_member_is_back(self):
        # S_1 on 17 points, F(18) = 2,584 members: every cycle has at most
        # two points, so the walk is x, pi(x), x
        table = _band_table(8, 1)
        assert len(table) == 2584
        for x in range(17):
            assert _orbit_table(table, x).shape == (3, 2584)


class TestEnergy:
    def test_identity_is_zero(self):
        for p in (1.0, 2.0, 3.5):
            assert energy(Permutation.identity(2), ModelParams(p=p, W=3, n=2)) == 0.0

    def test_adjacent_swap_p1(self):
        pi = Permutation.from_mapping(2, {0: 1, 1: 0})
        assert energy(pi, ModelParams(p=1.0, W=1, n=2)) == 2.0

    def test_distance_two_swap_p2(self):
        pi = Permutation.from_mapping(2, {0: 2, 2: 0})
        assert energy(pi, ModelParams(p=2.0, W=2, n=2)) == 2.0

    def test_swap_at_distance_three(self):
        pi = swap_images(Permutation.identity(3), 0, 3)
        assert energy(pi, ModelParams(p=1.0, W=1, n=3)) == 6.0

    def test_infinite_p_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            energy(Permutation.identity(1), ModelParams(p=INFINITY, W=1, n=1))

    def test_mismatched_interval(self):
        with pytest.raises(DomainError):
            energy(Permutation.identity(2), ModelParams(p=1.0, W=1, n=3))

    def test_small_energy_of_an_overflowing_sum(self):
        # W^p = 8^341 = 2^1023: the endpoint swap's two terms 8^341 sum past
        # the float maximum, but its energy is 2
        swap = Permutation((4, -3, -2, -1, 0, 1, 2, 3, -4))
        assert energy(swap, ModelParams(p=341.0, W=8, n=4)) == 2.0
        assert energy(swap, ModelParams(p=340.0, W=8, n=4)) == 2.0

    def test_energy_where_unscaled_powers_overflow(self):
        # 16^341 passes the float maximum, but every (d / 8)^341 is finite
        assert energy(Permutation.identity(8), ModelParams(p=341.0, W=8, n=8)) == 0.0

    def test_costs_past_the_float_maximum_are_inf(self):
        costs = displacement_costs(ModelParams(p=341.0, W=1, n=8))
        assert costs[:2] == (0.0, 1.0)
        assert costs[8] == 2.0**1023
        assert costs[9:] == (math.inf,) * 8

    def test_zero_only_at_identity(self):
        params = ModelParams(p=1.5, W=2, n=2)
        for img in itertools.permutations(range(-2, 3)):
            pi = Permutation(img)
            if pi == Permutation.identity(2):
                assert energy(pi, params) == 0.0
            else:
                assert energy(pi, params) > 0.0

    @given(interval_permutations(), st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    def test_reflection_invariance(self, pi, p):
        params = ModelParams(p=p, W=2, n=pi.n)
        assert energy(reflect(pi), params) == pytest.approx(
            energy(pi, params), abs=1e-12
        )


class TestSwapCost:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5])
    def test_equals_the_energy_change_of_the_swap(self, p):
        params = ModelParams(p=p, W=2, n=2)
        costs = displacement_costs(params)
        for img in itertools.permutations(range(-2, 3)):
            pi = Permutation(img)
            for a, b in itertools.combinations(pi.domain(), 2):
                change = energy(swap_images(pi, a, b), params) - energy(pi, params)
                assert swap_cost(costs, a, pi(a), b, pi(b)) == pytest.approx(change, rel=1e-12)

    def test_array_form_equals_the_scalar_calls(self):
        # every (a, pi(a), b, pi(b)) on [-3, 3], the arrays shifted to 0..6
        # in int8 as in a member table
        costs = displacement_costs(ModelParams(p=1.5, W=2, n=3))
        points = list(itertools.product(range(-3, 4), repeat=4))
        shifted = (np.array(points, dtype=np.int8) + 3).T
        got = swap_cost(np.array(costs), *shifted)
        assert got.tolist() == [swap_cost(costs, *args) for args in points]


class TestSupport:
    def test_identity_in_every_band(self):
        pi = Permutation.identity(2)
        assert max_displacement(pi) == 0
        assert all(in_support(pi, W) for W in (1, 2, 5))

    def test_distance_two_swap(self):
        pi = Permutation.from_mapping(2, {0: 2, 2: 0})
        assert max_displacement(pi) == 2
        assert not in_support(pi, 1)
        assert in_support(pi, 2)

    @given(interval_permutations(), st.integers(1, 5))
    def test_support_monotone_in_w(self, pi, w):
        if in_support(pi, w):
            assert in_support(pi, w + 1)

    def test_bad_w(self):
        with pytest.raises(ValueError):
            in_support(Permutation.identity(1), 0)


class TestSwapImages:
    def test_basic_swap(self):
        rho = swap_images(Permutation.identity(2), 0, 1)
        assert rho(0) == 1 and rho(1) == 0 and rho(2) == 2

    def test_degenerate(self):
        with pytest.raises(DegenerateSwapError):
            swap_images(Permutation.identity(1), 0, 0)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            swap_images(Permutation.identity(1), 0, 2)

    @given(interval_permutations(), st.data())
    def test_involution(self, pi, data):
        a = data.draw(st.integers(-pi.n, pi.n))
        b = data.draw(st.integers(-pi.n, pi.n).filter(lambda x: x != a))
        assert swap_images(swap_images(pi, a, b), a, b) == pi

    @pytest.mark.parametrize("n", [2, 3])
    def test_bijectivity_preserved_exhaustively(self, n):
        # every permutation of [-n, n] and every unordered position pair
        domain = list(range(-n, n + 1))
        pairs = list(itertools.combinations(domain, 2))
        for img in itertools.permutations(domain):
            pi = Permutation(img)
            for a, b in pairs:
                rho = swap_images(pi, a, b)  # constructor validates
                assert sorted(rho.image) == domain


class TestReflect:
    def test_identity_fixed(self):
        assert reflect(Permutation.identity(3)) == Permutation.identity(3)

    def test_explicit(self):
        pi = Permutation.from_mapping(2, {0: 1, 1: 0})
        assert reflect(pi) == Permutation.from_mapping(2, {0: -1, -1: 0})

    @given(interval_permutations())
    def test_involution(self, pi):
        assert reflect(reflect(pi)) == pi

    @given(interval_permutations())
    def test_preserves_displacement_multiset(self, pi):
        n = pi.n
        disp = sorted(abs(pi(i) - i) for i in pi.domain())
        disp_r = sorted(abs(reflect(pi)(i) - i) for i in pi.domain())
        assert disp == disp_r
