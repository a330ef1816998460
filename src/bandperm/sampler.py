"""Seeded Metropolis chain over local image-swaps targeting the Gibbs measure.

The chain scans the sites in order at every p: step s, counted from 0 at
the start of the chain, updates site a = -n + (s mod m), m = 2n+1, by
proposing to swap the images at a and a partner b.  b is uniform on the 2H
points other than a that lie within H of a centre c: with j uniform in
[0, 2H), b = c - H + j, plus one when that is >= a.  When b falls outside
the interval the step is a rejected step: it still counts as a step for
burn-in, thinning and the acceptance rate.

- At finite p, c = a and H = R = min(2W, 2n).  The swap is accepted with
  probability min(1, exp(-delta_energy)).  The energy difference is
  ``core.swap_cost``, the four terms of ``core.displacement_costs`` that the
  swap changes, so a step is O(1); the step loop writes that expression
  inline rather than calling it.  The adjacent swaps alone connect all of
  S_m, and every sweep proposes each of them, so the chain is irreducible.
- At p = infinity, c = pi(a) and H = V = min(W, 2n).  Every point of
  [-n, n] lies within 2n of pi(a), so V < W leaves out only points outside
  the interval.  The swap puts pi(a) at b, within W by construction, so it
  is accepted iff |pi(b) - a| <= W, that is iff the result stays in the
  band support S_W.

Why the scan keeps the target: let K_a be the step at site a, and sigma the
state pi with the images at a and b swapped.  At finite p, K_a proposes b
with probability 1 / (2R) whatever the state, so from sigma it proposes the
same swap back with the same probability, and Metropolis acceptance makes
K_a reversible for the Gibbs measure.  At p = infinity, with pi and sigma
both in S_W, K_a moves pi to sigma with probability 1 / (2V).  From sigma it
proposes b back, because b lies within V of sigma(a) = pi(b)
(|pi(b) - b| <= W, and <= 2n), and it accepts, because sigma(b) = pi(a)
lies within W of a.  So every K_a is symmetric, hence doubly stochastic,
and the uniform measure on S_W is reversible for it.  Either way the target
is stationary after every single step: once the chain is stationary, the
retained states are stationary draws at any thinning.  The tests check
exhaustively, at small (n, W), that each K_a satisfies detailed balance and
that the sweep K_{-n} ... K_n is primitive, so that there the scan
converges to the target from any start.

Reproducibility contract: the random stream is numpy's PCG64 seeded with
``SamplerConfig.seed``; a random-in-support start draws first.  The steps
consume it in blocks of ``_BLOCK``.  Each block draws one integer array of
partner indices j in [0, 2H) and, at finite p, one array of uniforms for
the acceptance test after it; the site is fixed by the step count.
Identical (params, config) therefore produce bit-identical sample streams
on a fixed numpy version.  Parameter sweeps derive per-chain seeds with
``spawn_chain_seed(base_seed, chain_index)``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ModelParams, Permutation, displacement_costs, displacement_sum, orbit, swap_cost

# Proposals are pre-generated in blocks of this size; the block size is part
# of the algorithm definition because it fixes the RNG call pattern.
_BLOCK = 1 << 15


class InitialState(enum.Enum):
    IDENTITY = "identity"
    RANDOM_IN_SUPPORT = "random-in-support"


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility contract of one chain: seed, length, burn-in, thinning.

    After the first ``burn_in`` proposals, every ``thinning``-th state is
    retained, so floor((steps - burn_in) / thinning) samples are produced.
    The chain keeps no running energy: each acceptance test reads only the
    four terms a swap changes, so there is no incremental sum to drift.
    """

    seed: int
    steps: int
    burn_in: int = 0
    thinning: int = 1
    initial_state: InitialState = InitialState.IDENTITY

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.steps, int) or self.steps < 0:
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps!r}")
        if not isinstance(self.burn_in, int) or not 0 <= self.burn_in <= self.steps:
            raise ValueError(
                f"burn_in must lie in [0, steps], got {self.burn_in!r} with steps={self.steps}"
            )
        if not isinstance(self.thinning, int) or self.thinning < 1:
            raise ValueError(f"thinning must be a positive integer, got {self.thinning!r}")

    @property
    def retained_count(self) -> int:
        return (self.steps - self.burn_in) // self.thinning

    @classmethod
    def with_defaults(
        cls,
        params: ModelParams,
        seed: int,
        steps: int,
        burn_in: Optional[int] = None,
        thinning: Optional[int] = None,
        initial_state: InitialState = InitialState.IDENTITY,
    ) -> SamplerConfig:
        """Fill burn-in and thinning with the package defaults.

        burn_in = 10 * (2n+1) * W and thinning = 2n+1; heuristics justified
        by the mixing diagnostics in the test suite, not by theory.  Both are
        clamped so degenerate step counts stay valid.
        """
        m = params.interval_size
        if burn_in is None:
            burn_in = min(10 * m * params.W, steps)
        if thinning is None:
            thinning = m
        return cls(
            seed=seed,
            steps=steps,
            burn_in=burn_in,
            thinning=thinning,
            initial_state=initial_state,
        )


@dataclass(frozen=True)
class ChainSummary:
    retained_samples: int
    acceptance_rate: float
    final_state: Permutation


@dataclass(frozen=True)
class CycleObservation:
    """Per-sample record: diam of the cycle of j, plus the base-point trio."""

    step_index: int
    diam: int
    displacement0: int
    max_c0: int
    min_c0: int


def spawn_chain_seed(base_seed: int, chain_index: int) -> int:
    """Stream-splitting rule for sweeps: chain k gets SeedSequence([base, k]).

    Deterministic and portable; distinct chain indices give statistically
    independent PCG64 streams.
    """
    ss = np.random.SeedSequence([int(base_seed), int(chain_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def random_band_image(n: int, W: int, rng: np.random.Generator) -> list[int]:
    """A random (not uniform) member of S_W as an image list.

    Greedy left-to-right assignment with one forced rule: the value q - W
    must be taken at position q while still free, which removes dead ends.
    Used only as an overdispersed chain start.
    """
    m = 2 * n + 1
    used = [False] * m
    image = [0] * m
    for q in range(m):
        must = q - W
        if must >= 0 and not used[must]:
            v = must
        else:
            window = [
                v for v in range(max(0, q - W), min(m - 1, q + W) + 1) if not used[v]
            ]
            v = window[int(rng.integers(0, len(window)))]
        used[v] = True
        image[q] = v - n
    return image


def metropolis_acceptance(
    params: ModelParams, pi: Permutation, a: int, b: int
) -> float:
    """Probability that the image-swap proposal (a, b) is accepted from pi.

    min(1, exp(-delta_energy)) for finite p, with delta_energy the
    :func:`core.swap_cost` of the swap; for infinite p, 1 when the swap
    stays in S_W and 0 otherwise.  Raises DomainError when params are for
    another interval than pi, and ValueError from a state whose energy is
    inf (a term past the float maximum, never visited by the chain), where
    the ratio of the two weights is 0/0.
    """
    params.check_interval(pi)
    pa, pb = pi(a), pi(b)
    if params.infinite_p:
        W = params.W
        return 1.0 if abs(pb - a) <= W and abs(pa - b) <= W else 0.0
    costs = displacement_costs(params)
    if math.isinf(displacement_sum(pi.image, costs)):
        raise ValueError(f"the energy of {pi.to_list()} is inf at p={params.p}, W={params.W}")
    delta = swap_cost(costs, a, pa, b, pb)
    return 1.0 if delta <= 0.0 else math.exp(-delta)


def _drive(
    params: ModelParams,
    config: SamplerConfig,
    retain: Callable[[int, list[int]], None],
) -> ChainSummary:
    """Run the chain, invoking ``retain(step_index, image)`` on retained states.

    The image list passed to retain is the live state; callbacks must not
    mutate it.  retain runs exactly ``config.retained_count`` times.
    """
    n = params.n
    m = 2 * n + 1
    W = params.W
    steps = config.steps
    rng = np.random.default_rng(config.seed)
    if config.initial_state is InitialState.RANDOM_IN_SUPPORT:
        image = random_band_image(n, W, rng)
    else:
        image = list(range(-n, n + 1))

    infinite = params.infinite_p
    # the partner's window has half-width H around pi(a) at p=inf and
    # around a at finite p; j + shift is b - centre as a position index
    # (pi(a) is a point, hence the n), before a itself is skipped
    H = min(W, 2 * n) if infinite else min(2 * W, 2 * n)
    shift = n - H if infinite else -H
    if not infinite:
        costs = displacement_costs(params)

    thinning = config.thinning
    next_retain = config.burn_in + thinning
    accepted = 0
    step = 0
    while step < steps:
        block = min(_BLOCK, steps - step)
        jj = (rng.integers(0, 2 * H, size=block) + shift).tolist()
        if not infinite:
            logu = np.log(rng.random(size=block)).tolist()
        base, end = step, step + block
        # segments end at a retain point, a sweep end or the block end
        while step < end:
            first = step % m
            stop = min(end, step + m - first, next_retain)
            if infinite:
                for a, j in enumerate(jj[step - base : stop - base], first):
                    pa = image[a]
                    b = pa + j
                    if b >= a:
                        b += 1
                    if 0 <= b < m:
                        pb = image[b]
                        if abs(pb - a + n) <= W:
                            image[a] = pb
                            image[b] = pa
                            accepted += 1
            else:
                segment = zip(
                    range(first, m), jj[step - base : stop - base], logu[step - base : stop - base]
                )
                for a, j, lu in segment:
                    b = a + j
                    if b >= a:
                        b += 1
                    if 0 <= b < m:
                        pa = image[a]
                        pb = image[b]
                        # core.swap_cost, inline: b and a are position
                        # indices here, hence the + n
                        delta = (
                            costs[abs(pb - a + n)]
                            + costs[abs(pa - b + n)]
                            - costs[abs(pa - a + n)]
                            - costs[abs(pb - b + n)]
                        )
                        if delta <= 0.0 or lu < -delta:
                            image[a] = pb
                            image[b] = pa
                            accepted += 1
            step = stop
            if step == next_retain:
                retain(step, image)
                next_retain += thinning
    rate = accepted / steps if steps else 0.0
    return ChainSummary(config.retained_count, rate, Permutation(tuple(image)))


def run_chain(
    params: ModelParams,
    config: SamplerConfig,
    observer: Optional[Callable[[Permutation], None]] = None,
) -> ChainSummary:
    """Run the Metropolis chain, streaming retained states to the observer."""
    if observer is None:
        return _drive(params, config, lambda step, image: None)
    return _drive(params, config, lambda step, image: observer(Permutation(tuple(image))))


def sample_cycle_observables(
    params: ModelParams,
    config: SamplerConfig,
    j: int,
    observer: Callable[[CycleObservation], None],
) -> ChainSummary:
    """Stream one CycleObservation per retained sample, storing no states.

    Records the diameter of the cycle of j together with |pi(0)|, and the
    max and min of the cycle of 0, straight off the live chain state.
    """
    n = params.n
    if not -n <= j <= n:
        raise ValueError(f"base point {j} outside [{-n}, {n}]")

    def retain(step: int, image: list[int]) -> None:
        cycle0 = orbit(image, 0)
        cycle = cycle0 if j == 0 else orbit(image, j)
        observer(CycleObservation(
            step, max(cycle) - min(cycle), abs(image[n]), max(cycle0), min(cycle0)
        ))

    return _drive(params, config, retain)
