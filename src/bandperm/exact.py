"""Exact oracle for small intervals.

The exact Gibbs distribution, partition value and tail probabilities
computed here are the ground truth against which the Markov chain and the
uncrossing-map properties are validated.  One function, :func:`_blocks`,
chooses what is enumerated and checks its size against one cap on the
member count: at infinite p the band support S_W, built as one int8 table
a column at a time, which reaches much larger intervals; at finite p all
(2n+1)! permutations, which are S_W at W = 2n, in numpy blocks, one block
per leading pair of values.  Rows are in lexicographic order in both.  The
image generator, the member tables of the uncrossing certificates
(:func:`_member_table`) and the Gibbs weights (:func:`_weight_blocks`) all
read those blocks.  Finite-p energies sum the terms of
:func:`core.displacement_costs`, the table :func:`core.energy` and the
chain read.  Energies and weights are computed a column at a time with the
float order of the per-permutation formulas, so every value is
bit-identical to them; the cycles of j are walked by
:func:`core._orbit_table`, the walk the uncrossing certificates read.  The
p = infinity tail curve and partition value need no enumeration: a marked
connectivity transfer DP over the positions counts the members of S_W by
the diameter of the cycle of j (:func:`band_diameter_counts`), in time
quadratic in 2n+1.  Its one bound is on the states it creates
(DIAMETER_STATE_CAP), not on |S_W|.  One profile column step
(:func:`_band_step`) serves both the count |S_W| and the band table: it
lists the admissible values of a position from the profile masks of the
partial rows.  The count's bound is on the masks at one position
(PROFILE_MASK_CAP).
"""
from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import ModelParams, Permutation, _orbit_table, displacement_costs

# Most members any enumeration holds: |S_W| at infinite p, and (2n+1)! at
# finite p, where every permutation is a member, so at most 9 points there
# (9! = 362,880 <= cap < 11!).  At 9!, on a 2-vCPU Xeon VM, the block pass
# of the tail curve and partition value takes about 0.05 s, and
# exact_distribution and exact_expectation, which build one Permutation per
# image, 1 to 2 s.
BAND_ENUMERATION_CAP = 2_000_000

# Largest C(k, floor(k/2)), k = min(2W, m), that count_band_permutations
# admits.  After any position every partial row of the profile DP has used
# all values below its window and none above it, so the same number of the
# at most k values in between; no position holds more masks than that.
# (m, W) = (29, 11), at 705,432 masks, counts in about 7 s and 420 MB on a
# 2-vCPU Xeon VM.
PROFILE_MASK_CAP = 2_000_000

# Largest (2n+1) * (states at one position) band_diameter_counts may reach,
# so it creates at most this many states in all.  At W = 2 and n = 200 that
# product peaks at 401 * 2,989 = 1,198,589; the DP creates 538,700 states,
# in about 7 s on a 2-vCPU Xeon VM.
DIAMETER_STATE_CAP = 2_000_000

# Rows of a member table converted to image tuples at a time.
_ROWS = 1 << 16

# Smallest interval size whose band support exceeds the cap at every W:
# S_1 is a subset of S_W and |S_1| = F(2n+2) = 2,178,309 at 2n+1 = 31.
_BAND_OVER_CAP_SIZE = 31


class CapacityError(RuntimeError):
    """The requested instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class ExactDistribution:
    """The exact Gibbs distribution on an enumerable instance.

    entries lists every admissible permutation with its probability; for
    infinite p these are exactly the members of S_W, each with probability
    1/|S_W|, and partition_value is |S_W|.  For finite p entries cover all
    (2n+1)! permutations and partition_value is the sum of Gibbs weights.
    """

    params: ModelParams
    entries: tuple[tuple[Permutation, float], ...]
    partition_value: float

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict[Permutation, float]:
        return dict(self.entries)


def count_band_permutations(m: int, W: int) -> int:
    """Number of permutations of m points with every displacement <= W.

    Profile dynamic programming over a sliding window of 2W+1 values, on
    the column step that also builds the band table (:func:`_band_step`).
    The checks independent of that step are brute force over all m!
    permutations, the Fibonacci numbers (the counts at W = 1) and the
    backtracking reference enumerator of tests/test_exact.py.  Raises
    CapacityError before the first step when the masks at one position may
    pass PROFILE_MASK_CAP.
    """
    if m < 1 or W < 1:
        raise ValueError("m and W must be positive")
    # C(k, floor(k/2)) with k = min(2W, m); at W >= m - 1 the DP takes no step
    if W < m - 1 and math.comb(min(2 * W, m), min(W, m // 2)) > PROFILE_MASK_CAP:
        raise CapacityError(
            f"the profile DP's masks may pass their cap {PROFILE_MASK_CAP} (W={W}, m={m})"
        )
    return list(_band_counts(m, W))[-1]


def _band_counts(m: int, W: int) -> Iterator[int]:
    """The profile DP's running total after each position; the last is |S_W|.

    A running total counts the partial assignments of the first positions
    that keep the value q - W used by position q.  Under that rule no branch
    dead-ends (see :func:`_band_step`), so each one extends to a member of
    S_W: the totals never exceed |S_W|, and stopping once one passes a cap
    proves the count does too.  The children of :func:`_band_step` are
    merged by mask, and the counts are Python ints in an object array, so
    every total is exact.
    """
    if W >= m - 1:
        yield math.factorial(m)
        return
    masks, counts = None, np.ones(1, dtype=object)
    for q in range(m):
        parent, _, children = _band_step(masks, q, m, W)
        masks, merged = np.unique(children, return_inverse=True)
        summed = np.zeros(len(masks), dtype=object)
        np.add.at(summed, merged, counts[parent])
        counts = summed
        yield counts.sum()


def _band_step(
    masks: Optional[np.ndarray], q: int, m: int, W: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column of the profile DP of S_W: (parent, offset, child mask) for
    every admissible value at position q, children in (parent, value) order.

    masks holds one profile mask per partial row of positions 0..q-1: bit o
    is set when value q - W + o is used or outside the interval.  None
    stands for the one empty row at q = 0, where values -W..-1 count as
    used.  Value q - W + o is admissible when free, and value q - W is
    forced while it is free, so no branch dead-ends and every row that
    reaches position m - 1 is a member.  Masks have the smallest unsigned
    dtype that holds 2W+1 bits, or object (Python ints) above 64 bits.
    """
    width = 2 * W + 1
    offsets = np.arange(width, dtype=np.min_scalar_type((1 << width) - 1))
    bits = 1 << offsets
    if masks is None:
        masks = np.array([(1 << W) - 1], dtype=offsets.dtype)
    free = (masks[:, None] >> offsets & 1) == 0
    free[free[:, 0], 1:] = False  # value q - W must go here while free
    parent, o = np.nonzero(free)
    children = (masks[parent] | bits[o]) >> 1
    if q + 1 + W >= m:  # the value entering the window is outside it
        children |= bits[-1]
    return parent, o, children


def _band_table(n: int, W: int) -> np.ndarray:
    """S_W on [-n, n] as an int8 table, one member per row, in lexicographic order.

    Rows are images shifted to 0..2n.  The table grows a column at a time,
    each row keeping its profile mask, by :func:`_band_step`; its children
    come in (row, value) order, which keeps the rows lexicographic.
    """
    m = 2 * n + 1
    W = min(W, m - 1)  # a wider band admits every permutation
    table = np.zeros((1, 0), dtype=np.int8)
    masks = None
    for q in range(m):
        parent, o, masks = _band_step(masks, q, m, W)
        grown = np.empty((len(parent), q + 1), dtype=np.int8)
        grown[:, :q] = table[parent]
        grown[:, q] = q - W + o
        table = grown
    return table


# Labels of an open path in the marked transfer DP, as bits of one int.  A
# young path was born after the marked one; an old path holds a point below
# the marked cycle's minimum, so it may hold neither the marked path nor j.
_YOUNG, _OLD, _MARKED, _HOLDS_J = 0, 1, 2, 4


def _canonical(paths: list[tuple[int, int, int]]) -> tuple:
    """The open (start, end, label) paths as a sorted tuple, old ones paired
    in sorted order.

    How old starts pair with old ends never matters (every outcome of
    reaching an old path depends only on its label), so one pairing merges
    the states that differ only in it.
    """
    old = [x for x in paths if x[2] == _OLD]
    starts = sorted(x[0] for x in old)
    ends = sorted(x[1] for x in old)
    paired = [(a, b, _OLD) for a, b in zip(starts, ends)]
    return tuple(sorted([x for x in paths if x[2] != _OLD] + paired))


def band_diameter_counts(n: int, W: int, j: int) -> list[int]:
    """Members of S_W on [-n, n] by the diameter of the cycle of j.

    Entry d counts the pi with max C(j) - min C(j) = d, for d = 0..2n; the
    sum is |S_W|.  A left-to-right scan over positions (points 0..2n after
    a shift by n) keeps the open paths of the partial permutation: each
    runs from a start (an unused value at or below the cut) to an end (a
    used value above it).  Every member is counted once, at the minimum s
    of its cycle through j: the marked path is born at position s, every
    path open then is old, the marked path may absorb young paths only,
    and it closes at the position x = max C(j), giving diameter x - s.  It
    counts when it holds j.  The pruning of :func:`_band_step` (value
    q - W is forced at position q while free) keeps every branch alive.
    Once the marked cycle closes, s is never read again, so the states
    then carry s = -1: O(m) states per position, and O(m^2) time.  Raises
    CapacityError as soon as m times the states at one position passes
    DIAMETER_STATE_CAP, which bounds the states created in all.
    """
    m = 2 * n + 1
    jx = j + n
    # (open paths, birth position s of the marked path, -1 once it closed,
    # closed diameter)
    states: dict[tuple, int] = {((), None, None): 1}
    for r in range(m):
        nxt: dict[tuple, int] = {}
        for (paths, born, diam), count in states.items():
            starts = {x[0]: x for x in paths}
            ends = {x[1]: x for x in paths}
            own = ends.get(r)  # the path position r extends, None if r is alone
            lo, hi = max(0, r - W), min(m - 1, r + W)
            forced = lo == r - W and lo in starts
            births = [born]
            if born is None and own is None and r <= jx:
                births.append(r)  # r is the minimum of the cycle of j
            for s in births:
                # a path born while the marked one is open may still join it
                fresh = _YOUNG if s is not None and diam is None else _OLD

                def alone(x: int) -> tuple[int, int, int]:
                    """The path of a point that no arc touches yet."""
                    label = _MARKED if x == s else fresh
                    return (x, x, label | (_HOLDS_J if x == jx else 0))

                head = own or alone(r)
                # lazy: a band far wider than the state cap allows stops at it
                values = [lo] if forced else (
                    v for v in range(lo, hi + 1)
                    if v in starts or v >= r and v not in ends
                )
                for v in values:  # the arc r -> v joins head to tail
                    tail = starts.get(v) or alone(v)
                    label = head[2] | tail[2]
                    if label & _OLD and label & (_MARKED | _HOLDS_J):
                        continue
                    rest = [x for x in paths if x is not own and x is not tail]
                    if tail is head or v == r:  # the arc closes a cycle
                        if label & _MARKED and label & _HOLDS_J:
                            # nothing is dropped from here on: all paths are old
                            rest = [(a, b, _OLD) for a, b, _ in rest]
                            key = (_canonical(rest), -1, r - s)
                        elif label & (_MARKED | _HOLDS_J):
                            continue  # the cycle of j has another minimum
                        else:
                            key = (_canonical(rest), s, diam)
                    else:
                        merged = rest + [(head[0], tail[1], label)]
                        key = (_canonical(merged), s, diam)
                    nxt[key] = nxt.get(key, 0) + count
                    if m * len(nxt) > DIAMETER_STATE_CAP:
                        raise CapacityError(
                            f"(2n+1) * (states at one position) of the p = infinity "
                            f"DP exceeds its cap {DIAMETER_STATE_CAP} (W={W}, 2n+1={m})"
                        )
        states = nxt
    counts = [0] * m
    for (_, _, diam), count in states.items():
        counts[diam] += count
    return counts


def _blocks(params: ModelParams) -> Iterator[np.ndarray]:
    """Every admissible image as int8 rows shifted to 0..2n, in blocks whose
    rows, concatenated, are in lexicographic order.

    Infinite p: S_W as one block.  Finite p: all (2n+1)! permutations, in
    the blocks of :func:`_permutation_blocks`.  One capacity check serves
    both: the members are S_W, with W = 2n at finite p, where every
    permutation is in the band, and their count may not pass
    BAND_ENUMERATION_CAP.  It raises CapacityError, naming the cap, on the
    call, before iteration.  The counting DP stops as soon as its running
    total passes the cap, yields (2n+1)! at once at finite p, and never
    starts at 2n+1 >= 31, so the check is bounded for any n and W.
    """
    m = params.interval_size
    totals = _band_counts(m, params.W if params.infinite_p else m - 1)
    if m >= _BAND_OVER_CAP_SIZE or any(total > BAND_ENUMERATION_CAP for total in totals):
        raise CapacityError(
            f"the members exceed the enumeration cap {BAND_ENUMERATION_CAP} "
            f"(p={params.p}, W={params.W}, 2n+1={m})"
        )
    if params.infinite_p:
        return iter([_band_table(params.n, params.W)])
    return _permutation_blocks(m)


def enumerate_images(params: ModelParams) -> Iterator[tuple[int, ...]]:
    """Every admissible image tuple exactly once, in lexicographic order.

    Finite p: all (2n+1)! permutations (full Gibbs support).  Infinite p:
    exactly the members of S_W.  Raises CapacityError, naming the cap, when
    the instance is too large; the check runs on the call, before iteration.
    """
    return (img for block in _blocks(params) for img in _rows(block, params.n))


def _rows(table: np.ndarray, n: int) -> Iterator[tuple[int, ...]]:
    """The rows of a member table as image tuples on [-n, n], in order.

    Rows are converted _ROWS at a time, so the Python tuples of a large
    table never exist all at once.
    """
    for start in range(0, len(table), _ROWS):
        yield from map(tuple, (table[start : start + _ROWS] - n).tolist())


def _member_table(params: ModelParams) -> np.ndarray:
    """The blocks of :func:`_blocks` as one table; the capacity check runs first."""
    return np.concatenate(list(_blocks(params)))


def enumerate_permutations(params: ModelParams) -> Iterator[Permutation]:
    """:func:`enumerate_images`, each image wrapped in a Permutation."""
    return (Permutation(img) for img in enumerate_images(params))


def _permutation_blocks(m: int) -> Iterator[np.ndarray]:
    """The permutations of range(m), m >= 3, as int8 rows in blocks.

    One block per leading pair of values (a, b), pairs in lexicographic
    order: its (m-2)! rows are a, b and the other values in every order,
    lexicographic.  The blocks, concatenated, are itertools.permutations
    row for row; blocks are built one at a time.
    """
    tail = itertools.chain.from_iterable(itertools.permutations(range(m - 2)))
    orders = np.fromiter(tail, dtype=np.int8).reshape(-1, m - 2)
    for head in itertools.permutations(range(m), 2):
        rest = np.array([v for v in range(m) if v not in head], dtype=np.int8)
        block = np.empty((len(orders), m), dtype=np.int8)
        block[:, :2] = head
        block[:, 2:] = rest[orders]
        yield block


def _weight_blocks(params: ModelParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(block, unnormalized Gibbs weights) over the blocks of :func:`_blocks`.

    Every weight is 1.0 on S_W at p = infinity.  At finite p each energy
    adds the :func:`core.displacement_costs` column by column from position
    -n up, the float order of :func:`core.energy`; math.exp (not np.exp,
    which may differ from libm by an ulp) weighs each distinct energy once.
    A sum past the float maximum is inf, and its weight exp(-inf) = 0.0 is
    the correctly rounded one, since the energy is then above 745.  The
    capacity check runs on the call, before iteration.
    """
    blocks = _blocks(params)
    if params.infinite_p:
        return ((block, np.ones(len(block))) for block in blocks)
    costs = np.array(displacement_costs(params))

    def weigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):  # an overflowed sum weighs 0.0
            return block, _exp(-_displacement_sums(block, costs))

    return map(weigh, blocks)


def _displacement_sums(table: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """:func:`core.displacement_sum` of every row of a member table.

    The terms are read from a :func:`core.displacement_costs` table and
    added a column at a time from position -n up, the float order of the
    per-image sum, so every value is bit-identical to it.
    """
    total = np.zeros(len(table))
    for k in range(table.shape[1]):
        total += costs[np.abs(table[:, k] - k)]
    return total


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every entry, called once per distinct value.

    np.exp may differ from libm by an ulp, so it is never used where a
    value must match the per-image formulas bit for bit.
    """
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([math.exp(v) for v in values.tolist()])[inverse]


def _weighted(params: ModelParams) -> Iterator[tuple[tuple[int, ...], float]]:
    """(image, unnormalized Gibbs weight) for every admissible image,
    flattened from :func:`_weight_blocks`."""
    return (
        pair
        for block, weights in _weight_blocks(params)
        for pair in zip(_rows(block, params.n), map(float, weights))
    )


def exact_distribution(params: ModelParams) -> ExactDistribution:
    """Materialize the exact Gibbs distribution for an enumerable instance.

    A first pass sums the weights into z, so the second builds the entries
    without a list of (image, weight) pairs beside them.
    """
    weights = (w.tolist() for _, w in _weight_blocks(params))
    z = math.fsum(itertools.chain.from_iterable(weights))
    entries = tuple((Permutation(img), w / z) for img, w in _weighted(params))
    return ExactDistribution(params, entries, z)


def exact_tail_and_partition(
    params: ModelParams, j: int, lam_grid: Sequence[int]
) -> tuple[list[tuple[int, float]], float, int]:
    """(tail curve, partition value, support size) for the cycle of j.

    The curve lists P(diam of the cycle of j >= lam) for each lam.  At
    infinite p the counts of :func:`band_diameter_counts` give it exactly:
    integer suffix counts over |S_W|, divided with int / int, which rounds
    correctly.  At finite p one pass over :func:`_weight_blocks` walks the
    cycle of j in every row of a block at once (:func:`core._orbit_table`),
    bins each weight by that cycle's diameter in enumeration order and
    streams it into math.fsum, which rounds the partition value correctly
    whatever the order.
    """
    n = params.n
    if not -n <= j <= n:
        raise ValueError(f"base point {j} outside [{-n}, {n}]")
    for lam in lam_grid:
        if lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
    if params.infinite_p:
        mass = band_diameter_counts(n, params.W, j)
        support_size = sum(mass)
        partition_value = float(support_size)
    else:
        blocks = _weight_blocks(params)  # capacity check before any allocation
        support_size = math.factorial(params.interval_size)
        # weight mass grouped by cycle diameter (diameters are in 0..2n)
        by_diam = np.zeros(2 * n + 1)

        def binned() -> Iterator[list[float]]:
            for block, weights in blocks:
                orbit = _orbit_table(block, j + n)
                # unbuffered, in row order: the float sums of mass[d] += w
                np.add.at(by_diam, orbit.max(0) - orbit.min(0), weights)
                yield weights.tolist()

        partition_value = math.fsum(itertools.chain.from_iterable(binned()))
        mass = by_diam.tolist()
    suffix = [0] * (2 * n + 2)
    for d in range(2 * n, -1, -1):
        suffix[d] = suffix[d + 1] + mass[d]
    total = suffix[0]  # same accumulation, so survival at lambda 0 is exactly 1
    curve = [
        (lam, (suffix[lam] / total if lam <= 2 * n else 0.0)) for lam in lam_grid
    ]
    return curve, partition_value, support_size


def exact_tail_curve(
    params: ModelParams, j: int, lam_grid: Sequence[int]
) -> list[tuple[int, float]]:
    """P(diam of the cycle of j >= lam) for each lam; see exact_tail_and_partition."""
    return exact_tail_and_partition(params, j, lam_grid)[0]


def exact_partition(params: ModelParams) -> tuple[float, int]:
    """(partition value, support size) without materializing the entries:
    :func:`exact_tail_and_partition` with no tail points.  At infinite p
    both are |S_W|, from the diameter DP and under its bound."""
    return exact_tail_and_partition(params, 0, ())[1:]


def exact_tail(params: ModelParams, j: int, lam: int) -> float:
    """P(diam of the cycle of j >= lam) under the exact distribution."""
    return exact_tail_curve(params, j, [lam])[0][1]


def exact_expectation(params: ModelParams, observable) -> float:
    """Expectation of observable(pi) under the exact distribution.

    Streams the weights once into math.fsum for the normaliser and keeps
    only the weighted observable terms, in a float64 array, so it works at
    the full capacity of the enumerator.
    """
    terms = array("d")

    def weights() -> Iterator[float]:
        for img, w in _weighted(params):
            terms.append(w * observable(Permutation(img)))
            yield w

    z = math.fsum(weights())
    return math.fsum(terms) / z
