import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest

from bandperm import (
    INFINITY,
    ChainSummary,
    DomainError,
    InitialState,
    ModelParams,
    Permutation,
    SamplerConfig,
    cycle_of,
    energy,
    exact_distribution,
    in_support,
    metropolis_acceptance,
    run_chain,
    sample_cycle_observables,
    spawn_chain_seed,
    swap_images,
)
from bandperm import sampler
from bandperm.sampler import random_band_image
from conftest import table_images


def empirical_distribution(params, config):
    counts = Counter()
    run_chain(params, config, lambda pi: counts.update([pi]))
    total = sum(counts.values())
    return {pi: c / total for pi, c in counts.items()}


def tv_distance(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def band_step(pi, W, a, j):
    """The p=inf chain's step from pi for the outcome (a, j), a a point.

    With V = min(W, 2n), the partner b is the j-th of the 2V points other
    than a within V of pi(a), in increasing order; the swap happens iff b is
    in [-n, n] and the result stays in S_W.
    """
    n = pi.n
    V = min(W, 2 * n)
    b = [x for x in range(pi(a) - V, pi(a) + V + 1) if x != a][j]
    if -n <= b <= n:
        nxt = swap_images(pi, a, b)
        if in_support(nxt, W):
            return nxt
    return pi


def site_kernel(pi, W, a):
    """One p=inf step at site a from pi as {state: Fraction}, over the
    2 min(W, 2n) equally likely window indices j."""
    V = min(W, 2 * pi.n)
    row = Counter()
    for j in range(2 * V):
        row[band_step(pi, W, a, j)] += Fraction(1, 2 * V)
    return row


def finite_partners(n, W, a):
    """The finite-p chain's partners at site a, in window-index order: the
    2R points other than a within R = min(2W, 2n) of a, in increasing order."""
    R = min(2 * W, 2 * n)
    return [x for x in range(a - R, a + R + 1) if x != a]


def finite_site_kernel(pi, params, a):
    """One finite-p step at site a from pi as {state: probability}, over the
    equally likely window indices j; an in-range partner b is accepted with
    metropolis_acceptance."""
    partners = finite_partners(pi.n, params.W, a)
    row = Counter()
    for b in partners:
        acc = metropolis_acceptance(params, pi, a, b) if -pi.n <= b <= pi.n else 0.0
        if acc:
            row[swap_images(pi, a, b)] += acc / len(partners)
        row[pi] += (1 - acc) / len(partners)
    return row


def assert_sweep_primitive(states, kernels):
    """Some power of the sweep K_{-n} ... K_n is positive, as boolean support
    over states; kernels are the site kernels {state: row} in scan order."""
    index = {pi: i for i, pi in enumerate(states)}
    sweep = np.eye(len(states))  # 0/1 floats, so the products run in BLAS
    for kernel in kernels:
        support = np.zeros_like(sweep)
        for pi, row in kernel.items():
            for nxt, t in row.items():
                if t:
                    support[index[pi], index[nxt]] = 1
        sweep = np.minimum(sweep @ support, 1)
    # squaring reaches powers past Wielandt's bound (k - 1)^2 + 1 on k states
    for _ in range(2 * len(states).bit_length()):
        if sweep.all():
            break
        sweep = np.minimum(sweep @ sweep, 1)
    assert sweep.all()


def replay_chain(params, seed, steps, burn_in, thinning, block):
    """The chain from the identity, replayed from its RNG contract: each
    block of up to ``block`` steps draws its window indices j in one call
    and, at finite p, its uniforms u in a second, and step s updates site
    -n + (s mod m).  Returns the retained (step index, state) pairs and the
    final state."""
    n, W = params.n, params.W
    m = 2 * n + 1
    H = min(W, 2 * n) if params.infinite_p else min(2 * W, 2 * n)
    rng = np.random.default_rng(seed)
    pi = Permutation.identity(n)
    retained = []
    for start in range(0, steps, block):
        size = min(block, steps - start)
        jj = rng.integers(0, 2 * H, size=size).tolist()
        uu = [None] * size if params.infinite_p else rng.random(size=size).tolist()
        for s, j, u in zip(range(start, start + size), jj, uu):
            a = -n + s % m
            if params.infinite_p:
                pi = band_step(pi, W, a, j)
            else:
                b = finite_partners(n, W, a)[j]
                if -n <= b <= n and u < metropolis_acceptance(params, pi, a, b):
                    pi = swap_images(pi, a, b)
            if s + 1 > burn_in and (s + 1 - burn_in) % thinning == 0:
                retained.append((s + 1, pi))
    return retained, pi


class TestConfig:
    def test_defaults_rule(self):
        params = ModelParams(p=1.0, W=2, n=3)
        cfg = SamplerConfig.with_defaults(params, seed=1, steps=10_000)
        assert cfg.burn_in == 10 * 7 * 2
        assert cfg.thinning == 7

    def test_burn_in_clamped_for_short_chains(self):
        params = ModelParams(p=1.0, W=2, n=3)
        cfg = SamplerConfig.with_defaults(params, seed=1, steps=10)
        assert cfg.burn_in == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1, steps=10),
            dict(seed=2**64, steps=10),
            dict(seed=1, steps=-1),
            dict(seed=1, steps=10, burn_in=11),
            dict(seed=1, steps=10, burn_in=-1),
            dict(seed=1, steps=10, thinning=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)

    def test_zero_steps_allowed(self):
        cfg = SamplerConfig(seed=1, steps=0)
        assert cfg.retained_count == 0


class TestChainBasics:
    def test_zero_steps_identity(self):
        params = ModelParams(p=1.0, W=1, n=2)
        summary = run_chain(params, SamplerConfig(seed=3, steps=0))
        assert summary == ChainSummary(0, 0.0, Permutation.identity(2))

    def test_retained_count_formula(self):
        params = ModelParams(p=1.0, W=1, n=1)
        for steps, burn, thin in ((100, 10, 7), (50, 50, 3), (1000, 0, 1)):
            cfg = SamplerConfig(seed=5, steps=steps, burn_in=burn, thinning=thin)
            seen = []
            summary = run_chain(params, cfg, seen.append)
            assert len(seen) == summary.retained_samples == (steps - burn) // thin

    def test_deterministic_streams(self):
        params = ModelParams(p=1.5, W=2, n=3)
        cfg = SamplerConfig(seed=42, steps=5_000, burn_in=500, thinning=5)
        streams = []
        for _ in range(2):
            seen = []
            summary = run_chain(params, cfg, seen.append)
            streams.append((seen, summary))
        assert streams[0] == streams[1]

    def test_seeds_give_different_streams(self):
        params = ModelParams(p=1.0, W=1, n=2)
        finals = {
            run_chain(params, SamplerConfig(seed=s, steps=2_000)).final_state
            for s in range(6)
        }
        assert len(finals) > 1

    def test_retained_states_valid_and_in_band(self):
        params = ModelParams(p=INFINITY, W=2, n=4)
        seen = []
        run_chain(
            params,
            SamplerConfig(seed=9, steps=20_000, burn_in=100, thinning=50),
            seen.append,
        )
        assert seen
        for pi in seen:  # constructor already validated bijectivity
            assert in_support(pi, 2)

    def test_random_in_support_start(self):
        params = ModelParams(p=INFINITY, W=3, n=10)
        cfg = SamplerConfig(
            seed=4, steps=0, initial_state=InitialState.RANDOM_IN_SUPPORT
        )
        summary = run_chain(params, cfg)
        assert in_support(summary.final_state, 3)
        again = run_chain(params, cfg)
        assert again.final_state == summary.final_state

    def test_large_p_chain_runs(self):
        # every (d / W)^p is finite at W=8, though 16^341 passes the float
        # maximum; at W=1 the terms past 8 are inf and those swaps are
        # rejected
        summary = run_chain(ModelParams(p=341.0, W=8, n=8), SamplerConfig(seed=1, steps=100))
        assert summary.retained_samples == 100
        params = ModelParams(p=341.0, W=1, n=8)
        cfg = SamplerConfig(seed=1, steps=2_000, thinning=17)
        assert math.isfinite(energy(run_chain(params, cfg).final_state, params))

    def test_spawn_chain_seed(self):
        a = spawn_chain_seed(7, 0)
        b = spawn_chain_seed(7, 1)
        assert a != b
        assert a == spawn_chain_seed(7, 0)
        assert 0 <= a < 2**64


class TestDetailedBalance:
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    def test_explicit_three_point_states(self, p):
        # flow balance P(x) q acc(x->y) == P(y) q acc(y->x) for every pair
        # of states one image-swap apart, with both sides from raw energies
        params = ModelParams(p=p, W=1, n=1)
        states = [Permutation(img) for img in table_images(ModelParams(p=1.0, W=1, n=1))]
        for x in states:
            for a in range(-1, 2):
                for b in range(a + 1, 2):
                    y = swap_images(x, a, b)
                    gibbs_x = math.exp(-energy(x, params))
                    gibbs_y = math.exp(-energy(y, params))
                    fwd = gibbs_x * metropolis_acceptance(params, x, a, b)
                    bwd = gibbs_y * metropolis_acceptance(params, y, a, b)
                    assert fwd == pytest.approx(bwd, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, INFINITY])
    def test_chain_one_step_kernel_matches_reference(self, p):
        # the chain's own first step from the identity, over fixed seeds,
        # updates site -n and follows that site's kernel: at finite p each
        # in-range partner b comes up with probability 1 / (2R) and is then
        # accepted with metropolis_acceptance
        params = ModelParams(p=p, W=1, n=1)
        ident = Permutation.identity(1)
        if params.infinite_p:
            site_row = site_kernel(ident, 1, -1)
        else:
            site_row = finite_site_kernel(ident, params, -1)
        seeds = 20_000
        one_step = (SamplerConfig(seed=s, steps=1, burn_in=0, thinning=1) for s in range(seeds))
        finals = Counter(run_chain(params, cfg).final_state for cfg in one_step)
        for a, b in ((-1, 0), (0, 1), (-1, 1)):
            expected = float(site_row[swap_images(ident, a, b)])
            got = finals.pop(swap_images(ident, a, b), 0) / seeds
            assert abs(got - expected) <= 4 * math.sqrt(expected * (1 - expected) / seeds)
        assert set(finals) == {ident}

    @pytest.mark.parametrize("p", [1.0, 2.5])
    @pytest.mark.parametrize("n,W", [(1, 1), (2, 1), (2, 2), (1, 3)])
    def test_finite_site_kernels_reversible_and_sweep_primitive(self, n, W, p):
        # exact site kernels K_a over all of S_m: each is stochastic and in
        # detailed balance with the Gibbs weights, so the Gibbs measure is
        # stationary after every step of the scan; the sweep K_{-n} ... K_n
        # is primitive, so the scan converges to that measure
        params = ModelParams(p=p, W=W, n=n)
        states = [Permutation(img) for img in table_images(params)]
        gibbs = {pi: math.exp(-energy(pi, params)) for pi in states}
        kernels = []
        for a in range(-n, n + 1):
            kernel = {pi: finite_site_kernel(pi, params, a) for pi in states}
            for pi, row in kernel.items():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
                for nxt, t in row.items():
                    back = gibbs[nxt] * kernel[nxt][pi]
                    assert gibbs[pi] * t == pytest.approx(back, rel=1e-12)
            kernels.append(kernel)
        assert_sweep_primitive(states, kernels)

    @pytest.mark.parametrize(
        "n,W", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (1, 3), (2, 5)]
    )
    def test_band_kernel_is_symmetric_and_scales_the_offset_rule(self, n, W):
        # exact site kernels K_a over every member of S_W: each is stochastic
        # and symmetric, so the uniform measure is stationary after every
        # step of the scan; the sweep K_{-n} ... K_n is primitive (some
        # power of it is positive), so the scan converges to that measure;
        # and over one sweep each in-band pair at most R = min(2W, 2n) apart
        # is proposed R/V >= 1 times as often as in m steps of the offset
        # rule, with V = min(W, 2n)
        m, R, V = 2 * n + 1, min(2 * W, 2 * n), min(W, 2 * n)
        members = [Permutation(img) for img in table_images(ModelParams(p=INFINITY, W=W, n=n))]
        per_sweep = {pi: Counter() for pi in members}
        kernels = []
        for a in range(-n, n + 1):
            kernel = {pi: site_kernel(pi, W, a) for pi in members}
            for pi, row in kernel.items():
                assert sum(row.values()) == 1
                for nxt, t in row.items():
                    assert kernel[nxt][pi] == t
                    if nxt != pi:
                        per_sweep[pi][nxt] += t
            kernels.append(kernel)
        assert_sweep_primitive(members, kernels)
        for pi in members:
            offset_rule = Counter()
            for a in range(-n, n + 1):
                for b in range(a + 1, min(a + R, n) + 1):
                    nxt = swap_images(pi, a, b)
                    if in_support(nxt, W):
                        offset_rule[nxt] += Fraction(1, R)
            assert per_sweep[pi] == {nxt: t * Fraction(R, V) for nxt, t in offset_rule.items()}

    @pytest.mark.parametrize("n,W", [(1, 1), (2, 2), (3, 1), (4, 2), (1, 3)])
    def test_chain_step_follows_drawn_window_index(self, n, W):
        # replay the RNG contract over m + 2 steps, across a sweep boundary:
        # the start consumes the stream, then one block draws m + 2 window
        # indices j, and step s updates site -n + (s mod m); the chain's
        # state after it is band_step's for those outcomes
        params = ModelParams(p=INFINITY, W=W, n=n)
        m = 2 * n + 1
        moved = set()
        for seed in range(300):
            cfg = SamplerConfig(
                seed=seed, steps=m + 2, initial_state=InitialState.RANDOM_IN_SUPPORT
            )
            rng = np.random.default_rng(seed)
            pi = Permutation(tuple(random_band_image(n, W, rng)))
            for s, j in enumerate(rng.integers(0, 2 * min(W, 2 * n), size=m + 2).tolist()):
                nxt = band_step(pi, W, -n + s % m, j)
                moved.add(nxt != pi)
                pi = nxt
            assert run_chain(params, cfg).final_state == pi
        assert moved == {True, False}

    @pytest.mark.parametrize(
        "p,W,n",
        [
            (INFINITY, 1, 2),
            (1.0, 1, 2),
            # H and R clipped at 2n
            (INFINITY, 3, 1),
            (1.0, 3, 1),
            # W far past 2n: the sentinels must still fail the band test
            (INFINITY, 12, 1),
            # partners wrap below position 0 and past m - 1
            (INFINITY, 2, 3),
            (1.0, 2, 3),
            (1.5, 2, 3),
            # costs past 8 overflow to inf
            (341.0, 1, 8),
        ],
    )
    @pytest.mark.parametrize(
        "steps,burn_in,thinning", [(40, 4, 3), (40, 0, 5), (37, 12, 7), (23, 23, 1)]
    )
    def test_scan_retains_the_replayed_states(
        self, monkeypatch, p, W, n, steps, burn_in, thinning
    ):
        # blocks of 6 steps make retain points, sweep ends and block ends fall
        # in every order; each retained state and its step index must be the
        # replay's, and no retained image may be longer than the interval
        monkeypatch.setattr(sampler, "_BLOCK", 6)
        cfg = SamplerConfig(seed=11, steps=steps, burn_in=burn_in, thinning=thinning)
        params = ModelParams(p=p, W=W, n=n)
        seen = []
        summary = sampler._drive(
            params, cfg, lambda step, image: seen.append((step, Permutation(tuple(image))))
        )
        retained, final = replay_chain(params, 11, steps, burn_in, thinning, 6)
        assert seen == retained
        assert summary.final_state == final
        assert summary.retained_samples == len(retained) == cfg.retained_count

    def test_band_acceptance_is_indicator(self):
        params = ModelParams(p=INFINITY, W=1, n=1)
        ident = Permutation.identity(1)
        assert metropolis_acceptance(params, ident, 0, 1) == 1.0
        assert metropolis_acceptance(params, ident, -1, 1) == 0.0

    def test_acceptance_from_an_infinite_energy_raises(self):
        # the endpoint swap has two terms 16^341 = inf at W=1, so the
        # weight ratio of the proposal (-8, 7) is 0/0; it read nan
        params = ModelParams(p=341.0, W=1, n=8)
        start = swap_images(Permutation.identity(8), -8, 8)
        with pytest.raises(ValueError, match="inf"):
            metropolis_acceptance(params, start, -8, 7)
        assert metropolis_acceptance(params, Permutation.identity(8), -8, 7) == 0.0

    @pytest.mark.parametrize("p", [1.0, INFINITY])
    def test_acceptance_on_a_mismatched_interval(self, p):
        # params for [-2, 2], pi on [-4, 4]; at p=1 this ended in an IndexError
        pi = swap_images(Permutation.identity(4), -4, 4)
        with pytest.raises(DomainError):
            metropolis_acceptance(ModelParams(p=p, W=1, n=2), pi, -4, 4)


def band_component_size(n, W, pairs):
    """Members of S_W reachable from the identity by in-band swaps of pairs."""
    members = {Permutation(img) for img in table_images(ModelParams(p=INFINITY, W=W, n=n))}
    start = Permutation.identity(n)
    seen = {start}
    queue = deque([start])
    while queue:
        pi = queue.popleft()
        for a, b in pairs:
            nxt = swap_images(pi, a, b)
            if nxt in members and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen), len(members)


GRAPH_GRID = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


class TestIrreducibility:
    @pytest.mark.parametrize("n,W", GRAPH_GRID)
    def test_band_graph_connected(self, n, W):
        # image-swap moves that stay in S_W connect every band permutation
        # to the identity
        pairs = [
            (a, b) for a in range(-n, n + 1) for b in range(a + 1, n + 1)
        ]
        reached, total = band_component_size(n, W, pairs)
        assert reached == total

    @pytest.mark.parametrize("n,W", GRAPH_GRID)
    def test_local_move_graph_connected(self, n, W):
        # at finite p the sampler only proposes pairs at most R = min(2W, 2n)
        # apart; those moves alone still connect S_W (at p=inf it proposes
        # every in-band swap, the graph of test_band_graph_connected)
        R = min(2 * W, 2 * n)
        pairs = [
            (a, b) for a in range(-n, n + 1) for b in range(a + 1, min(a + R, n) + 1)
        ]
        reached, total = band_component_size(n, W, pairs)
        assert reached == total


class TestTargetsGibbs:
    def test_finite_p_matches_exact_oracle(self):
        params = ModelParams(p=1.0, W=1, n=1)
        cfg = SamplerConfig(seed=7, steps=200_000, burn_in=5_000, thinning=10)
        emp = empirical_distribution(params, cfg)
        exact = exact_distribution(params).as_dict()
        assert tv_distance(emp, exact) < 0.03

    def test_band_uniformity(self):
        params = ModelParams(p=INFINITY, W=1, n=1)
        cfg = SamplerConfig(seed=13, steps=200_000, burn_in=5_000, thinning=10)
        emp = empirical_distribution(params, cfg)
        assert len(emp) == 3
        for freq in emp.values():
            assert freq == pytest.approx(1 / 3, abs=0.02)

    def test_tv_decreases_with_chain_length(self):
        params = ModelParams(p=1.0, W=1, n=2)
        exact = exact_distribution(params).as_dict()
        tvs = []
        for steps in (10_000, 100_000, 1_000_000):
            cfg = SamplerConfig(seed=17, steps=steps, burn_in=1_000, thinning=5)
            tvs.append(tv_distance(empirical_distribution(params, cfg), exact))
        assert tvs[2] < tvs[1] < tvs[0]

    # at n=3, W=1 the offset range R = 2 is below m - 1 = 6, so these runs
    # exercise the truncated local proposal, unlike the n=1 cases above
    def test_local_proposal_finite_p_matches_exact_oracle(self):
        params = ModelParams(p=1.0, W=1, n=3)
        cfg = SamplerConfig(seed=37, steps=1_000_000, burn_in=5_000, thinning=10)
        emp = empirical_distribution(params, cfg)
        exact = exact_distribution(params).as_dict()
        assert tv_distance(emp, exact) < 0.03

    def test_local_proposal_band_matches_exact_oracle(self):
        params = ModelParams(p=INFINITY, W=1, n=3)
        cfg = SamplerConfig(seed=41, steps=1_000_000, burn_in=5_000, thinning=10)
        emp = empirical_distribution(params, cfg)
        exact = exact_distribution(params).as_dict()
        assert len(emp) == len(exact) == 21
        assert tv_distance(emp, exact) < 0.03


class TestObservables:
    def test_records_match_rerun_states(self):
        # same seed, two drivers: records must equal statistics recomputed
        # from the retained permutations of an identical chain
        params = ModelParams(p=INFINITY, W=2, n=5)
        cfg = SamplerConfig(seed=21, steps=30_000, burn_in=1_000, thinning=100)
        for j in (0, 2, -3):
            records = []
            s1 = sample_cycle_observables(params, cfg, j, records.append)
            states = []
            s2 = run_chain(params, cfg, states.append)
            assert s1 == s2
            assert len(records) == len(states)
            for rec, pi in zip(records, states):
                cj = cycle_of(pi, j)
                c0 = cycle_of(pi, 0)
                assert rec.diam == cj.diam
                assert rec.displacement0 == abs(pi(0))
                assert (rec.max_c0, rec.min_c0) == (c0.max, c0.min)

    def test_step_indices(self):
        params = ModelParams(p=1.0, W=1, n=1)
        cfg = SamplerConfig(seed=2, steps=100, burn_in=10, thinning=30)
        records = []
        sample_cycle_observables(params, cfg, 0, records.append)
        assert [r.step_index for r in records] == [40, 70, 100]

    def test_stuck_chain_reports_zeros(self):
        # seed 27's one step, at site -1, draws the partner -2 outside the
        # interval (j = 0), so the chain stays at the identity: the only
        # rejection the identity at W=1, n=1 can meet, since site 0 always
        # moves (self-validating via the acceptance rate)
        params = ModelParams(p=INFINITY, W=1, n=1)
        cfg = SamplerConfig(seed=27, steps=1, burn_in=0, thinning=1)
        records = []
        summary = sample_cycle_observables(params, cfg, 0, records.append)
        assert summary.acceptance_rate == 0.0
        assert [(rec.diam, rec.displacement0) for rec in records] == [(0, 0)]

    def test_rejects_bad_base_point(self):
        params = ModelParams(p=1.0, W=1, n=1)
        with pytest.raises(ValueError):
            sample_cycle_observables(
                params, SamplerConfig(seed=1, steps=10), 3, lambda r: None
            )

    def test_empirical_band_tail_matches_oracle(self):
        # P(diam C(0) >= 1) = 2/3 at W=1, n=1
        params = ModelParams(p=INFINITY, W=1, n=1)
        cfg = SamplerConfig(seed=31, steps=150_000, burn_in=5_000, thinning=10)
        diams = []
        sample_cycle_observables(params, cfg, 0, lambda r: diams.append(r.diam))
        frac = sum(1 for d in diams if d >= 1) / len(diams)
        assert frac == pytest.approx(2 / 3, abs=0.01)

    def test_mean_displacement_matches_oracle(self):
        # E|pi(0)| read off the exact table's column of position 0
        params = ModelParams(p=1.0, W=1, n=1)
        dist = exact_distribution(params)
        disp0 = np.abs(dist.table[:, params.n] - params.n)
        oracle = math.fsum((dist.weights * disp0).tolist()) / dist.partition_value
        cfg = SamplerConfig(seed=29, steps=400_000, burn_in=5_000, thinning=10)
        disps = []
        sample_cycle_observables(params, cfg, 0, lambda r: disps.append(r.displacement0))
        assert sum(disps) / len(disps) == pytest.approx(oracle, abs=0.01)
