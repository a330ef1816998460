import itertools
import math
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bandperm import (
    INFINITY,
    CapacityError,
    ModelParams,
    Permutation,
    count_band_permutations,
    cycle_of,
    energy,
    enumerate_permutations,
    exact_distribution,
    exact_expectation,
    exact_tail,
    exact_tail_curve,
)
from bandperm.core import orbit
from bandperm.exact import (
    BAND_ENUMERATION_CAP,
    _band_counts,
    _band_table,
    _permutation_blocks,
    _weighted,
    band_diameter_counts,
    enumerate_images,
    exact_partition,
    exact_tail_and_partition,
)


def band_images(n: int, W: int):
    """Reference band enumerator: backtracking over positions, with the
    value q - W forced at position q while it is free, yielding the band-W
    image tuples on [-n, n] in lexicographic order."""
    m = 2 * n + 1
    used = [False] * m
    image = [0] * m

    def rec(q: int):
        if q == m:
            yield tuple(image)
            return
        must = q - W
        if must >= 0 and not used[must]:
            candidates = (must,)
        else:
            candidates = range(max(0, q - W), min(m - 1, q + W) + 1)
        for v in candidates:
            if used[v]:
                continue
            used[v] = True
            image[q] = v - n
            yield from rec(q + 1)
            used[v] = False

    return rec(0)


def brute_force_band_count(m: int, W: int) -> int:
    """Independent oracle: filter all m! permutations by the band condition."""
    count = 0
    n = m // 2
    for img in itertools.permutations(range(-n, n + 1)):
        if max(abs(v - (k - n)) for k, v in enumerate(img)) <= W:
            count += 1
    return count


class TestEnumeration:
    def test_band_w1_n1(self):
        perms = list(enumerate_permutations(ModelParams(p=INFINITY, W=1, n=1)))
        assert [pi.image for pi in perms] == [
            (-1, 0, 1),   # identity
            (-1, 1, 0),   # swap of 0, 1
            (0, -1, 1),   # swap of -1, 0
        ]

    def test_band_w1_n2_count(self):
        perms = list(enumerate_permutations(ModelParams(p=INFINITY, W=1, n=2)))
        assert len(perms) == 8

    def test_full_n1(self):
        perms = list(enumerate_permutations(ModelParams(p=1.0, W=1, n=1)))
        assert len(perms) == 6

    def test_lexicographic_and_unique(self):
        for params in (
            ModelParams(p=1.0, W=1, n=2),
            ModelParams(p=INFINITY, W=2, n=3),
        ):
            images = [pi.image for pi in enumerate_permutations(params)]
            assert images == sorted(images)
            assert len(set(images)) == len(images)

    def test_band_members_are_exactly_the_band(self):
        # generator output == brute-force filter of all permutations
        for m, W in ((5, 1), (5, 2), (7, 1), (7, 2), (7, 3)):
            n = m // 2
            got = [pi.image for pi in enumerate_permutations(ModelParams(p=INFINITY, W=W, n=n))]
            expected = sorted(
                img
                for img in itertools.permutations(range(-n, n + 1))
                if max(abs(v - (k - n)) for k, v in enumerate(img)) <= W
            )
            assert got == expected

    @pytest.mark.parametrize(
        "n, W", [(1, 1), (1, 4), (3, 3), (3, 9), (5, 1), (5, 2), (5, 3), (6, 2), (6, 3)]
    )
    def test_band_table_is_the_backtracking_enumeration(self, n, W):
        table = _band_table(n, W)
        assert table.dtype == np.int8
        assert [tuple(row) for row in (table.astype(int) - n).tolist()] == list(
            band_images(n, W)
        )

    def test_capacity_error_finite_p(self):
        # 11! permutations pass the one enumeration cap, which admits 9!
        with pytest.raises(CapacityError, match=str(BAND_ENUMERATION_CAP)):
            enumerate_permutations(ModelParams(p=1.0, W=1, n=5))

    def test_capacity_error_band(self):
        with pytest.raises(CapacityError, match="cap"):
            enumerate_permutations(ModelParams(p=INFINITY, W=3, n=30))


class TestBandCounts:
    def test_fibonacci_for_w1(self):
        # F(m+1) with F(1) = F(2) = 1, computed here independently
        fib = [1, 1]
        while len(fib) < 20:
            fib.append(fib[-1] + fib[-2])
        for m in range(3, 16, 2):
            assert count_band_permutations(m, 1) == fib[m]

    def test_dp_matches_generator(self):
        for m, W in ((5, 1), (7, 2), (9, 2), (7, 3), (11, 2)):
            n = m // 2
            generated = sum(
                1 for _ in enumerate_permutations(ModelParams(p=INFINITY, W=W, n=n))
            )
            assert count_band_permutations(m, W) == generated

    def test_dp_matches_brute_force(self):
        for m, W in ((3, 1), (5, 1), (5, 2), (7, 2), (7, 3)):
            assert count_band_permutations(m, W) == brute_force_band_count(m, W)

    def test_unconstrained_case(self):
        assert count_band_permutations(4, 5) == math.factorial(4)

    def test_wide_band_by_inclusion_exclusion(self):
        # W = 13 on 15 points excludes exactly the permutations that map
        # an end to the other end: 15! - 2 * 14! + 13!, through the DP,
        # whose masks have k = 15 free bits
        f = math.factorial
        assert count_band_permutations(15, 13) == f(15) - 2 * f(14) + f(13)

    def test_mask_bound_raises_before_the_first_step(self):
        # at (29, 12) the masks may reach C(24, 12) = 2,704,156; the DP
        # used to run out of a 1 GiB address space after 4.5 s
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        script = (
            "import time\n"
            "from bandperm import CapacityError, count_band_permutations\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    count_band_permutations(29, 12)\n"
            "except CapacityError:\n"
            "    print(time.perf_counter() - start)\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        )
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) < 5.0

    def test_running_totals_bound_the_count(self):
        # the capacity check stops once a running total passes the cap,
        # which proves the count does only if no total exceeds the count
        for m in range(1, 15):
            for W in range(1, 6):
                totals = list(_band_counts(m, W))
                assert totals == sorted(totals)
                assert totals[-1] == count_band_permutations(m, W)

    def test_first_totals_with_masks_wider_than_64_bits(self):
        # before position W nothing is forced and position q has W + 1 free
        # values, so the total after it is (W+1)^(q+1); at W = 40 a profile
        # mask has 81 bits, so the masks are Python ints in an object array
        assert list(itertools.islice(_band_counts(90, 40), 4)) == [41, 41**2, 41**3, 41**4]

    def test_largest_band_instances_under_the_cap(self):
        # 2n+1 = 29 is the largest interval where S_1 fits under the cap
        assert exact_partition(ModelParams(p=INFINITY, W=1, n=14)) == (832040.0, 832040)
        assert count_band_permutations(31, 1) > BAND_ENUMERATION_CAP

    @pytest.mark.parametrize(
        "n, W", [(15, 1), (14, 13), (14, 27), (100_000, 3), (10**30, 10**20)]
    )
    def test_capacity_check_is_bounded(self, n, W):
        # exact_partition is bound by the diameter DP's state cap, not by
        # |S_W|: |S_1| = F(32) on 31 points is past the enumeration cap
        params = ModelParams(p=INFINITY, W=W, n=n)
        if (n, W) == (15, 1):
            assert exact_partition(params) == (2_178_309.0, 2_178_309)
        else:
            with pytest.raises(CapacityError, match="cap"):
                exact_partition(params)


class TestExactDistribution:
    def test_uniform_on_band(self):
        dist = exact_distribution(ModelParams(p=INFINITY, W=1, n=1))
        assert dist.support_size == 3
        assert dist.partition_value == 3.0
        for _, prob in dist.entries:
            assert prob == pytest.approx(1 / 3, abs=1e-15)

    def test_p1_identity_probability(self):
        # weights on 3 points at p=1, W=1: identity 1, two swaps e^-2,
        # distance-2 swap and both 3-cycles e^-4
        dist = exact_distribution(ModelParams(p=1.0, W=1, n=1))
        expected = 1.0 / (1.0 + 2.0 * math.exp(-2.0) + 3.0 * math.exp(-4.0))
        assert dist.as_dict()[Permutation.identity(1)] == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.7544, abs=1e-4)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(p=1.0, W=1, n=1),
            ModelParams(p=2.0, W=2, n=2),
            ModelParams(p=INFINITY, W=2, n=2),
        ],
    )
    def test_probabilities_sum_to_one(self, params):
        dist = exact_distribution(params)
        assert math.fsum(pr for _, pr in dist.entries) == pytest.approx(1.0, abs=1e-12)

    def test_partition_value_finite_p(self):
        params = ModelParams(p=2.0, W=1, n=1)
        dist = exact_distribution(params)
        expected = math.fsum(
            math.exp(-energy(pi, params)) for pi in enumerate_permutations(params)
        )
        assert dist.partition_value == pytest.approx(expected, rel=1e-12)

    def test_tv_to_uniform_band_nonincreasing_in_p(self):
        # The hard-cap model is a separate convention, not the literal
        # p -> infinity limit (a displacement of exactly W always costs
        # e^-1), so the TV plateaus above 0; only the trend is asserted.
        target = exact_distribution(ModelParams(p=INFINITY, W=1, n=2)).as_dict()
        tvs = []
        for p in (1.0, 2.0, 4.0, 8.0, 16.0):
            d = exact_distribution(ModelParams(p=p, W=1, n=2)).as_dict()
            keys = set(d) | set(target)
            tvs.append(
                0.5 * sum(abs(d.get(k, 0.0) - target.get(k, 0.0)) for k in keys)
            )
        for earlier, later in zip(tvs, tvs[1:]):
            assert later <= earlier + 1e-12


class TestExactTail:
    def test_lambda_zero_is_one(self):
        for params in (ModelParams(p=1.0, W=1, n=1), ModelParams(p=INFINITY, W=2, n=2)):
            assert exact_tail(params, 0, 0) == 1.0

    def test_band_n1_values(self):
        params = ModelParams(p=INFINITY, W=1, n=1)
        assert exact_tail(params, 0, 1) == pytest.approx(2 / 3, abs=1e-12)
        assert exact_tail(params, 1, 1) == pytest.approx(1 / 3, abs=1e-12)
        assert exact_tail(params, 0, 2) == 0.0

    def test_monotone_in_lambda(self):
        params = ModelParams(p=1.0, W=1, n=2)
        curve = exact_tail_curve(params, 0, list(range(0, 6)))
        values = [v for _, v in curve]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert curve[-1][1] == 0.0  # lambda > 2n is impossible

    def test_reflection_symmetry_in_j(self):
        for params in (ModelParams(p=INFINITY, W=2, n=2), ModelParams(p=1.5, W=1, n=2)):
            for j in range(0, params.n + 1):
                for lam in range(0, 2 * params.n + 1):
                    assert exact_tail(params, j, lam) == pytest.approx(
                        exact_tail(params, -j, lam), abs=1e-12
                    )

    def test_matches_direct_summation(self):
        # independent route: sum probabilities from the materialized
        # distribution instead of the streaming pass
        params = ModelParams(p=1.0, W=1, n=2)
        dist = exact_distribution(params)
        for lam in (1, 2, 3):
            direct = sum(
                pr for pi, pr in dist.entries if cycle_of(pi, 0).diam >= lam
            )
            assert exact_tail(params, 0, lam) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_arguments(self):
        params = ModelParams(p=1.0, W=1, n=1)
        with pytest.raises(ValueError):
            exact_tail(params, 5, 0)
        with pytest.raises(ValueError):
            exact_tail(params, 0, -1)


class TestExactPartition:
    def test_matches_materialized_distribution(self):
        from bandperm.exact import exact_partition

        for params in (
            ModelParams(p=1.0, W=1, n=1),
            ModelParams(p=2.5, W=2, n=2),
            ModelParams(p=INFINITY, W=2, n=3),
        ):
            z, size = exact_partition(params)
            dist = exact_distribution(params)
            assert z == pytest.approx(dist.partition_value, rel=1e-12)
            assert size == dist.support_size

    @pytest.mark.parametrize("p", [2, 341])
    def test_int_p_gives_the_float_p_values(self, p):
        # an int p made Python-int powers, an object array that the float
        # displacement sums could not take
        from bandperm.exact import exact_partition

        int_params, float_params = ModelParams(p=p, W=1, n=4), ModelParams(p=float(p), W=1, n=4)
        assert exact_partition(int_params) == exact_partition(float_params)
        pi = Permutation((4, -3, -2, -1, 0, 1, 2, 3, -4))
        assert energy(pi, int_params) == energy(pi, float_params)

    def test_weighs_an_overflowing_unscaled_sum(self):
        # at p=341, W=8 the endpoint swap's unscaled terms 8^341 = 2^1023 sum
        # past the float maximum, but its energy is 2; at W=1 the sums past
        # the maximum are energies above 745, whose weight is 0.0
        swap = (4, -3, -2, -1, 0, 1, 2, 3, -4)
        weights = [w for img, w in _weighted(ModelParams(p=341.0, W=8, n=4)) if img == swap]
        assert weights == [math.exp(-2.0)]
        assert exact_partition(ModelParams(p=341.0, W=1, n=4))[0] == 2.518563039229159


def direct_energy(image, p, W):
    """sum_i (|pi(i) - i| / W)^p with each term computed in place, from i = -n up."""
    n = len(image) // 2
    total = 0.0
    for k, v in enumerate(image):
        total += (abs(v - (k - n)) / W) ** p
    return total


def two_pass_reference(params, j, lam_grid):
    """The oracle as two passes: one bins the weight mass by the diameter of
    j's cycle, the other lists every weight and sums the list with fsum."""
    n = params.n
    if params.infinite_p:
        weights = [1.0 for _ in enumerate_images(params)]
    else:
        weights = [
            math.exp(-direct_energy(img, params.p, params.W))
            for img in enumerate_images(params)
        ]
    mass = [0.0] * (2 * n + 1)
    for img, w in zip(enumerate_images(params), weights):
        members = orbit(img, j)
        mass[max(members) - min(members)] += w
    suffix = [0.0] * (2 * n + 2)
    for d in range(2 * n, -1, -1):
        suffix[d] = suffix[d + 1] + mass[d]
    curve = [(lam, suffix[lam] / suffix[0] if lam <= 2 * n else 0.0) for lam in lam_grid]
    return curve, math.fsum(weights), len(weights)


class TestOnePassOracle:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_table_weights_match_direct_powers(self, p):
        for W in (1, 2, 3):
            params = ModelParams(p=p, W=W, n=3)
            for img, w in _weighted(params):
                assert w == math.exp(-direct_energy(img, p, W))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.7, 341.0])
    def test_weights_are_exp_of_minus_energy(self, p):
        # the oracle sums the terms that core.energy and the chain sum, in
        # the same order; at p=341 a permutation with a displacement above W
        # has an energy far past 745, and weight 0.0
        for W in (1, 2, 3, 8):
            for n in (1, 2, 3):
                params = ModelParams(p=p, W=W, n=n)
                for img, w in _weighted(params):
                    assert w == math.exp(-energy(Permutation(img), params))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(p=p, W=W, n=n)
            for p in (1.0, 1.5, 2.0, 3.7)
            for W in (1, 2, 3)
            for n in (1, 2, 3)
        ],
        ids=str,
    )
    def test_finite_p_matches_two_passes(self, params):
        grid = list(range(0, 2 * params.n + 3))
        for j in (0, params.n, -1):
            got = exact_tail_and_partition(params, j, grid)
            assert got == two_pass_reference(params, j, grid)
        assert exact_tail_curve(params, -1, grid) == got[0]
        assert exact_partition(params) == got[1:]

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_finite_p_matches_two_passes_at_the_cap(self, p):
        params = ModelParams(p=p, W=2, n=4)  # 2n+1 = 9 points, 72 blocks
        grid = list(range(0, 11))
        assert exact_tail_and_partition(params, 0, grid) == two_pass_reference(
            params, 0, grid
        )

    @pytest.mark.parametrize("m", range(3, 9))
    def test_blocks_are_the_permutations_in_order(self, m):
        blocks = list(_permutation_blocks(m))
        assert len(blocks) == m * (m - 1)
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == list(itertools.permutations(range(m)))

    def test_traced_peak_holds_no_support_sized_array(self):
        params = ModelParams(p=1.5, W=2, n=4)
        tracemalloc.start()
        try:
            exact_tail_and_partition(params, 0, range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 per permutation would alone be 2.8 MiB at 9! = 362880
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_band_matches_two_passes_and_count(self, n):
        for W in (1, 2, 3):
            params = ModelParams(p=INFINITY, W=W, n=n)
            grid = list(range(0, 2 * n + 2))
            got = exact_tail_and_partition(params, 0, grid)
            assert got == two_pass_reference(params, 0, grid)
            count = count_band_permutations(2 * n + 1, W)
            assert got[1:] == (float(count), count) == exact_partition(params)


def band_walk_counts(n, W):
    """The per-member reference: walk every member of S_W, split it into
    cycles, and bin it by the diameter of the cycle of each point.  Row
    j + n holds the counts for base point j."""
    m = 2 * n + 1
    counts = [[0] * m for _ in range(m)]
    for img in band_images(n, W):
        seen = set()
        for x in range(-n, n + 1):
            if x in seen:
                continue
            members = orbit(img, x)
            seen.update(members)
            d = max(members) - min(members)
            for y in members:
                counts[y + n][d] += 1
    return counts


class TestBandDiameterDP:
    """The marked transfer DP against the per-member walk over S_W."""

    @staticmethod
    def check_against_walk(n, W, js):
        walk = band_walk_counts(n, W)
        params = ModelParams(p=INFINITY, W=W, n=n)
        grid = list(range(0, 2 * n + 3))
        for j in js:
            counts = band_diameter_counts(n, W, j)
            assert counts == walk[j + n], f"j={j}"
            got = exact_tail_and_partition(params, j, grid)
            size = sum(walk[j + n])
            suffix = [sum(walk[j + n][lam:]) for lam in range(2 * n + 1)]
            curve = [(lam, suffix[lam] / size if lam <= 2 * n else 0.0) for lam in grid]
            assert got == (curve, float(size), size), f"j={j}"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_every_j_up_to_11_points(self, n, W):
        self.check_against_walk(n, W, range(-n, n + 1))

    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_ends_and_centre_at_13_points(self, W):
        self.check_against_walk(6, W, (-6, 0, 6))

    @pytest.mark.parametrize("n, W", [(1, 2), (1, 5), (2, 4), (2, 7), (3, 6)])
    def test_band_wider_than_the_interval(self, n, W):
        # W >= 2n: S_W is every permutation of the 2n+1 points
        assert sum(band_walk_counts(n, W)[0]) == math.factorial(2 * n + 1)
        self.check_against_walk(n, W, range(-n, n + 1))

    def test_totals_match_the_counting_dp(self):
        for n in range(0, 11):
            for W in range(1, 5):
                for j in {-n, 0, n}:
                    total = sum(band_diameter_counts(n, W, j))
                    assert total == count_band_permutations(2 * n + 1, W)

    def test_matches_hand_count(self):
        # S_1 on [-1, 1]: the identity, (-1 0), (0 1); j = 0 sits in a fixed
        # point once and in a transposition twice
        assert band_diameter_counts(1, 1, 0) == [1, 2, 0]
        assert band_diameter_counts(1, 1, -1) == [2, 1, 0]

    @pytest.mark.parametrize(
        "n, W, j, total, moment",
        [
            (25, 2, 0, 2670418559604655193, 5042305410515178488),
            (12, 3, -4, 382497958000, 1479100120852),
        ],
    )
    def test_pinned_totals_past_the_walk(self, n, W, j, total, moment):
        # sum c and sum d * c, recorded from the DP that keyed a closed
        # marked cycle by its birth position too
        counts = band_diameter_counts(n, W, j)
        assert sum(counts) == total == count_band_permutations(2 * n + 1, W)
        assert sum(d * c for d, c in enumerate(counts)) == moment

    def test_every_instance_under_the_enumeration_cap_runs(self):
        # every (n, W) whose |S_W| is under the band enumeration cap stays
        # far under the DP's state cap (W >= 2n is the same DP as W = 2n)
        admitted = []
        for n in range(1, 15):
            for W in range(1, 2 * n + 1):
                totals = _band_counts(2 * n + 1, W)
                if any(t > BAND_ENUMERATION_CAP for t in totals):
                    break  # |S_W| grows with W
                admitted.append((n, W))
        assert len(admitted) == 38
        for n, W in admitted:
            count = count_band_permutations(2 * n + 1, W)
            got = exact_partition(ModelParams(p=INFINITY, W=W, n=n))
            assert got == (float(count), count), (n, W)


class TestExactExpectation:
    def test_matches_distribution_sum(self):
        for params in (ModelParams(p=1.0, W=1, n=1), ModelParams(p=INFINITY, W=1, n=2)):
            dist = exact_distribution(params)
            direct = sum(pr * abs(pi(0)) for pi, pr in dist.entries)
            streamed = exact_expectation(params, lambda pi: abs(pi(0)))
            assert streamed == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, INFINITY])
    def test_matches_two_list_formula(self, p):
        # the normaliser and the numerator each summed by fsum over one list
        # of terms, with each weight computed from its own image
        params = ModelParams(p=p, W=2, n=3)
        z_terms, num_terms = [], []
        for img in enumerate_images(params):
            if params.infinite_p:
                w = 1.0
            else:
                w = math.exp(-direct_energy(img, p, 2))
            z_terms.append(w)
            num_terms.append(w * abs(Permutation(img)(0)))
        expected = math.fsum(num_terms) / math.fsum(z_terms)
        assert exact_expectation(params, lambda pi: abs(pi(0))) == expected
