"""The uncrossing map and its verification machinery.

The orbit of 0 either stays at or below a threshold t, or it crosses above
and must cross back.  ``uncross`` swaps the images at the first up-crossing
source and the last down-crossing source, which removes every excursion of
the orbit above t, never increases the displacement energy, and keeps band
membership.  ``uncross_preimage`` inverts the map by candidate enumeration,
and ``crossing_ratio_check`` tests the weight-ratio inequality that controls
each preimage term at finite p.

Everything runs on member tables: numpy arrays with one image per row,
shifted to 0..2n (point i in column i + n).  One batched kernel follows the
orbit of 0 through every row by pointer jumps (:func:`_walk`) and finds its
crossings (:func:`_crossings`); the forward map is then one row swap per
row, and :func:`_preimages` inverts it over the candidate swaps of every
row at once.  The public functions run the same kernel on a one-row table,
so the exhaustive certificate of :func:`run_verification`, which runs it on
the whole enumeration, certifies them.  Every finite-p check reads the
energy change of one image swap, :func:`core.swap_cost` on the
:func:`core.displacement_costs` table of its (p, W), and never a difference
or comparison of two full energies, which cancel to nothing at large p.

Composition-order convention: the transposition of the two crossing targets
is applied after the permutation, which is the same as swapping the images
at the two crossing sources.  This is the reading under which the mapped
orbit no longer exceeds the threshold; the test suite demonstrates
mechanically that the opposite reading does not have that property.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    INFINITY,
    DomainError,
    ModelParams,
    Permutation,
    UnsupportedExponentError,
    _orbit_table,
    displacement_costs,
    displacement_sum,
    reflect,
    swap_cost,
)
from .exact import _exp, _member_table

# Multiplicative slack for floating-point comparisons of energy ratios.
RATIO_GUARD = 1e-9

# Frozen regression bound for the per-fiber weighted sum at finite p:
# sum over the fiber of P(pi)/P(tau) <= K * W^2 * exp(-(|t - max C(0)| / W)^p).
# Brute force over the exhaustive range (2n+1 = 7, p in {1, 1.5, 2, 4},
# W in {1, 2}, t in 0..2) observed a maximum quotient of 0.657.
RATIO_SUM_K = 1.0

# Rows of a member table that the verification passes hand to the kernel at
# once; bounds its temporaries and the per-candidate arrays.
_CHUNK = 1 << 14


class NoCrossingError(ValueError):
    """uncross was called on an orbit that never exceeds the threshold."""


class CrossingConditionError(ValueError):
    """The (a, b) pair does not straddle the threshold as required."""


@dataclass(frozen=True)
class Crossing:
    """One step source = pi^index(0) -> target = pi^(index+1)(0) of the orbit
    of 0 across a threshold t.

    An up-crossing has source <= t < target and is the first such step; a
    down-crossing has target <= t < source and is the last such step with
    index in [0, period), where period is the length of the cycle of 0.
    """

    index: int
    source: int
    target: int


@dataclass(frozen=True)
class CrossingRecord:
    """Both crossings of one orbit at one threshold."""

    threshold: int
    up: Crossing
    down: Crossing

    def __post_init__(self) -> None:
        t = self.threshold
        if not (self.up.source <= t < self.up.target):
            raise ValueError("up-crossing does not straddle the threshold")
        if not (self.down.target <= t < self.down.source):
            raise ValueError("down-crossing does not straddle the threshold")
        if self.up.source == self.down.source:
            raise ValueError("up and down crossing sources coincide")


Image = tuple[int, ...]


def _table(images: Sequence[Image]) -> np.ndarray:
    """Image tuples of one interval as a member table, in the smallest
    signed dtype that holds 0..2n."""
    m = len(images[0])
    return np.array(images, dtype=np.min_scalar_type(-m)) + m // 2


def _image(row: np.ndarray) -> list[int]:
    """A member-table row as the image list on [-n, n]."""
    return (row - len(row) // 2).tolist()


class _Walk(NamedTuple):
    """The orbit of 0 in every row of a member table, shifted by n.

    orbits is point-major, as :func:`core._orbit_table` returns it: one
    column per member; period and top have one entry per member.
    """

    n: int
    orbits: np.ndarray  # row k is pi^k(0) in every member
    period: np.ndarray  # length of the cycle of 0
    top: np.ndarray  # max of the cycle of 0

    def take(self, rows) -> _Walk:
        return _Walk(self.n, self.orbits[:, rows], self.period[rows], self.top[rows])


def _walk(table: np.ndarray) -> _Walk:
    n = table.shape[1] // 2
    orbits = _orbit_table(table, n)
    period = (orbits[1:] == n).argmax(0).astype(table.dtype) + 1
    return _Walk(n, orbits, period, orbits.max(0))


def _crossings(walk: _Walk, t: int) -> tuple[np.ndarray, ...]:
    """First up-crossing and last down-crossing of the orbit of 0 at t.

    Returns the (index, source, target) of the up-crossing, then of the
    down-crossing, six arrays over the rows, with shifted points.  Values are
    meaningful only in rows whose 0-cycle exceeds t (walk.top > t + n).
    Requires t >= 0 so that the orbit starts at or below the threshold.
    """
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    here, nxt = walk.orbits[:-1], walk.orbits[1:]
    steps = np.arange(len(here))[:, None] < walk.period
    ts = t + walk.n
    below, lands_below = here <= ts, nxt <= ts
    up = (below & ~lands_below & steps).argmax(0)
    down = len(here) - 1 - (lands_below & ~below & steps)[::-1].argmax(0)
    rows = np.arange(here.shape[1])
    return up, here[up, rows], nxt[up, rows], down, here[down, rows], nxt[down, rows]


def _swap(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table, a fresh array, with the images at columns a[i] and b[i] of
    each row i traded in place."""
    i = np.arange(len(table))
    table[i, a], table[i, b] = table[i, b], table[i, a]
    return table


def _uncrossed(table: np.ndarray, walk: _Walk, t: int) -> tuple[np.ndarray, ...]:
    """The uncrossing map at t: (rows, images, a, b) for the rows whose
    0-cycle exceeds t, rows in table order.  Each row's images at columns
    a and b, its up- and down-crossing sources, are traded."""
    rows = np.flatnonzero(walk.top > t + walk.n)
    _, up, _, _, down, _ = _crossings(walk, t)
    a, b = up[rows], down[rows]
    return rows, _swap(table[rows], a, b), a, b


def _preimages(
    taus: np.ndarray, walk: _Walk, t: int, band: Optional[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(owner, candidates): the preimage of every row of a member table at t.

    Every row must have max C(0) <= t (the map's image never exceeds the
    threshold), else DomainError.  band is W at infinite p and None at
    finite p.  Candidate source pairs (a, b) have a on the cycle of 0 with
    a, tau(a) <= t and b, tau(b) > t; at infinite p both are pinned to
    W-windows around the threshold because band membership forces the
    crossing sources there.  A candidate swap is kept when uncrossing it
    returns its row.  candidates[i] belongs to row owner[i]; they are
    grouped by row in table order, each group in lexicographic order.
    """
    count, m = taus.shape
    ts = t + m // 2
    reach = m if band is None else band  # finite p: the whole interval
    a_cols = np.arange(max(0, ts - reach + 1), min(m - 1, ts) + 1)
    b_cols = np.arange(ts + 1, min(m - 1, ts + reach) + 1)
    if (walk.top > ts).any():
        raise DomainError(
            f"max of the cycle of 0 exceeds {t}; tau is outside the map's image"
        )
    on_cycle = np.zeros((count, m), dtype=bool)
    on_cycle[np.arange(count), walk.orbits] = True
    low = on_cycle[:, a_cols] & (taus[:, a_cols] <= ts)
    owner, i, j = np.nonzero(low[:, :, None] & (taus[:, None, b_cols] > ts))
    a, b = a_cols[i], b_cols[j]
    if band is not None:
        # the swap at (a, b) is in the band iff tau's out-of-band positions
        # lie in {a, b} and both moved images land within W of their new
        # positions
        far = np.abs(taus - np.arange(m, dtype=taus.dtype)) > band
        ta, tb = taus[owner, a], taus[owner, b]
        keep = (
            (far.sum(1)[owner] == far[owner, a].astype(int) + far[owner, b])
            & (np.abs(tb - a) <= band)
            & (np.abs(ta - b) <= band)
        )
        owner, a, b = owner[keep], a[keep], b[keep]
    candidates = _swap(taus[owner], a, b)
    rows, back, _, _ = _uncrossed(candidates, _walk(candidates), t)
    kept = rows[(back == taus[owner[rows]]).all(1)]
    owner, candidates = owner[kept], candidates[kept]
    order = np.lexsort([*candidates.T[::-1], owner])
    return owner[order], candidates[order]


def _crossing_pair(image: Image, t: int) -> tuple[Optional[tuple], Optional[tuple]]:
    """First up-crossing and last down-crossing of an image tuple at t as
    (index, source, target) triples, both None when the orbit never
    exceeds t; the kernel run on a one-row table."""
    walk = _walk(_table([image]))
    up_k, up_s, up_t, down_k, down_s, down_t = (int(x[0]) for x in _crossings(walk, t))
    n = walk.n
    if walk.top[0] <= t + n:
        return None, None
    return (up_k, up_s - n, up_t - n), (down_k, down_s - n, down_t - n)


def first_upcrossing(pi: Permutation, t: int) -> Optional[Crossing]:
    """Least j >= 0 with pi^j(0) <= t < pi^(j+1)(0), or None if the orbit
    never exceeds t.  Requires t >= 0 so that the orbit starts below."""
    up, _ = _crossing_pair(pi.image, t)
    return None if up is None else Crossing(*up)


def last_downcrossing(pi: Permutation, t: int) -> Optional[Crossing]:
    """Greatest j in [0, period) with pi^(j+1)(0) <= t < pi^j(0), or None.

    period is the length of the cycle of 0, so the search covers exactly one
    traversal and pi^period(0) = 0 closes it.
    """
    _, down = _crossing_pair(pi.image, t)
    return None if down is None else Crossing(*down)


def crossing_record(pi: Permutation, t: int) -> Optional[CrossingRecord]:
    """Both crossings at threshold t, or None when the orbit stays below."""
    up, down = _crossing_pair(pi.image, t)
    if up is None:
        return None
    return CrossingRecord(t, Crossing(*up), Crossing(*down))


def uncross(pi: Permutation, t: int) -> Permutation:
    """Remove the orbit-of-0 excursion above t by one image swap.

    The images at the up-crossing source and the down-crossing source trade
    places.  The result rho satisfies max C_rho(0) <= t; at finite p its
    energy never exceeds pi's; and if pi lies in S_W then so does rho, with
    max C_rho(0) > t - 2W.
    """
    table = _table([pi.image])
    rows, rho, _, _ = _uncrossed(table, _walk(table), t)
    if not len(rows):
        raise NoCrossingError(
            f"orbit of 0 never exceeds {t}; permutation is outside the map's domain"
        )
    return Permutation(tuple(_image(rho[0])))


def uncross_min(pi: Permutation, t: int) -> Permutation:
    """Mirror of :func:`uncross` acting on the minimum of the cycle of 0.

    Implemented by conjugating with the reflection i -> -i; the result has
    min C(0) >= -t.
    """
    return reflect(uncross(reflect(pi), t))


def uncross_preimage(
    tau: Permutation, t: int, params: ModelParams
) -> list[Permutation]:
    """All permutations the uncrossing map sends to tau at threshold t.

    Requires max C_tau(0) <= t (the map's image never exceeds the
    threshold).  Candidates are image swaps of tau at the admissible source
    pairs, kept when the round trip through :func:`uncross` returns tau; at
    infinite p the preimage is additionally restricted to S_W, which caps
    its size at W^2.  Results are sorted by image tuple.
    """
    band = params.W if params.infinite_p else None
    table = _table([tau.image])
    _, found = _preimages(table, _walk(table), t, band)
    return [Permutation(tuple(_image(row))) for row in found]


def _preimage_sizes(images: Sequence[Image], t: int, W: int) -> np.ndarray:
    """|uncross_preimage(tau, t)| at infinite p and bandwidth W for every
    image whose 0-cycle stays <= t, in order; the other images are skipped.
    One kernel call covers them all."""
    table = _table(images)
    walk = _walk(table)
    admissible = np.flatnonzero(walk.top <= t + walk.n)
    owner, _ = _preimages(table[admissible], walk.take(admissible), t, W)
    return np.bincount(owner, minlength=len(admissible))


@dataclass(frozen=True)
class RatioCheck:
    """ratio and bound can underflow to 0.0 at large p; the log fields and
    the satisfied flag are computed in log space and never do."""

    ratio: float
    bound: float
    satisfied: bool
    log_ratio: float
    log_bound: float


def check_power(n: int, p: float) -> None:
    """Raise UnsupportedExponentError if (2n)^p passes the float maximum at finite p.

    The finite-p checks on [-n, n] take four-term differences of the terms
    (d / W)^p and d^p, d <= 2n; these are then finite at every W >= 1, where
    one inf term would make the difference inf - inf = nan.  Both
    :func:`crossing_ratio_check` and :func:`run_verification` call it.  The
    oracle and the chain need no such check: an inf term there is an inf
    energy, of weight 0.
    """
    try:
        float(2 * n) ** p
    except OverflowError:
        if math.isfinite(p):
            raise UnsupportedExponentError(f"(2n)^p is not a finite float at n={n}, p={p}")


def crossing_ratio_check(
    tau: Permutation, a: int, b: int, t: int, params: ModelParams
) -> RatioCheck:
    """Check the weight-ratio inequality for one straddling swap at finite p.

    With a, tau(a) <= t < b, tau(b), the swap of images at (a, b) recreates
    a crossing; its Gibbs weight relative to tau is exp(-delta_energy) and
    must not exceed exp(-(|min(b, tau(b)) - max(a, tau(a))| / W)^p), up to a
    1e-9 multiplicative float guard.  Both exponents read the
    :func:`core.displacement_costs` of params, which must be tau's interval.
    """
    if params.infinite_p:
        raise UnsupportedExponentError("the ratio inequality is a finite-p statement")
    check_power(params.n, params.p)
    params.check_interval(tau)
    ta, tb = tau(a), tau(b)  # raises DomainError outside [-n, n]
    if not (a <= t and ta <= t and b > t and tb > t):
        raise CrossingConditionError(
            f"need a, tau(a) <= {t} < b, tau(b); got a={a}, tau(a)={ta}, "
            f"b={b}, tau(b)={tb}"
        )
    costs = np.array(displacement_costs(params))
    log_ratio, log_bound, satisfied = (x.item() for x in _ratio_logs(a, ta, b, tb, costs))
    return RatioCheck(
        math.exp(log_ratio), math.exp(log_bound), satisfied, log_ratio, log_bound
    )


def _ratio_logs(a, ta, b, tb, costs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(log ratio, log bound, satisfied) for the swaps at (a, b), elementwise.

    costs is the :func:`core.displacement_costs` table; each (|x| / W)^p is
    a lookup in it, so the values are those of the formula evaluated in
    Python floats.
    """
    gap = np.minimum(b, tb) - np.maximum(a, ta)
    log_ratio, log_bound = -swap_cost(costs, a, ta, b, tb), -costs[gap]
    return log_ratio, log_bound, log_ratio <= log_bound + math.log1p(RATIO_GUARD)


# ---------------------------------------------------------------------------
# Exhaustive verification sweeps
# ---------------------------------------------------------------------------


@dataclass
class VerificationCertificate:
    """Outcome of the exhaustive invariant sweep for one interval size.

    counts holds instances checked per property; violations holds one dict
    per failure (empty when everything passed).  Extremal witnesses are kept
    even on success so the certificate documents observed margins.
    """

    n: int
    w_values: tuple[int, ...]
    p_values: tuple[float, ...]
    lam_values: tuple[int, ...]
    counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    max_preimage_size: int = 0
    max_preimage_witness: Optional[dict] = None
    max_ratio_quotient: float = 0.0
    max_ratio_witness: Optional[dict] = None
    max_ratio_sum_quotient: float = 0.0
    max_ratio_sum_witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "w_values": list(self.w_values),
            "p_values": ["inf" if math.isinf(p) else p for p in self.p_values],
            "lam_values": list(self.lam_values),
            "counts": dict(sorted(self.counts.items())),
            "violations": self.violations,
            "violations_total": len(self.violations),
            "max_preimage_size": self.max_preimage_size,
            "max_preimage_witness": self.max_preimage_witness,
            "max_ratio_quotient": self.max_ratio_quotient,
            "max_ratio_witness": self.max_ratio_witness,
            "max_ratio_sum_quotient": self.max_ratio_sum_quotient,
            "max_ratio_sum_witness": self.max_ratio_sum_witness,
        }


class _Members(NamedTuple):
    """Every admissible image as an int8 member table in lexicographic
    order, its rows as bytes keys (sorted, since the values are
    nonnegative) and the walk of each row's 0-cycle."""

    table: np.ndarray
    keys: np.ndarray
    walk: _Walk


def _keys(table: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(table).view(np.dtype((np.void, table.shape[1]))).ravel()


def _members(params: ModelParams) -> _Members:
    table = _member_table(params)
    return _Members(table, _keys(table), _walk(table))


def _locate(members: _Members, rows: np.ndarray) -> np.ndarray:
    """The table index of each row, -1 where it is not a member."""
    wanted = _keys(rows)
    at = np.minimum(np.searchsorted(members.keys, wanted), len(members.keys) - 1)
    return np.where(members.keys[at] == wanted, at, -1)


# The uncrossing map at one threshold, inverted by brute force over the
# members: (rows, images, at, a, b), where row rows[i] maps to images[i] by
# the swap at columns a[i] and b[i], and at[i] is the table row of
# images[i] (-1 when it is not a member).
Fibres = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _fibres(members: _Members, t: int) -> Fibres:
    parts = []
    for lo in range(0, len(members.table), _CHUNK):  # bounds the kernel's temporaries
        block = slice(lo, lo + _CHUNK)
        rows, *rest = _uncrossed(members.table[block], members.walk.take(block), t)
        parts.append((lo + rows, *rest))
    rows, images, a, b = (np.concatenate(x) for x in zip(*parts))
    return rows, images, _locate(members, images), a, b


def _swap_costs(fibres: Fibres, costs: np.ndarray) -> np.ndarray:
    """E(pi) - E(tau) for every member pi of the fibres, tau its image: the
    :func:`core.swap_cost` of the swap that takes tau back to pi."""
    _, images, _, a, b = fibres
    i = np.arange(len(images))
    return swap_cost(costs, a, images[i, a], b, images[i, b])


def _fibre_order(images: np.ndarray, positions: np.ndarray) -> list[int]:
    """Ascending positions into the images of a map, regrouped the way a
    dict of fibres lists its members: by the first appearance of their
    image among all of them, then in order."""
    distinct, first = np.unique(images, return_index=True)
    group = first[np.searchsorted(distinct, images[positions])]
    return positions[np.lexsort((positions, group))].tolist()


def _check_images(
    cert: VerificationCertificate,
    members: _Members,
    fibres: Fibres,
    W: int,
    t: int,
    check: str,
    label: dict,
) -> None:
    """Every image of the map stays in S_W with max C(0) in (t - 2W, t]."""
    rows, images, at, _, _ = fibres
    n = members.walk.n
    cert._bump(check, len(rows))
    top = members.walk.top[at] - n  # at = -1 reads a wrong row; masked below
    bad = np.flatnonzero((at < 0) | (top <= t - 2 * W) | (top > t))
    if not len(bad):
        return
    tops = np.full(len(rows), -1)
    tops[bad] = _walk(images[bad]).top - n
    for i in _fibre_order(_keys(images), bad):
        cert.violations.append(
            {
                "check": check,
                "W": W,
                **label,
                "pi": _image(members.table[rows[i]]),
                "rho": _image(images[i]),
                "max_c0": int(tops[i]),
            }
        )


def _check_preimages(
    cert: VerificationCertificate,
    members: _Members,
    t: int,
    band: Optional[int],
    fibres: Fibres,
) -> None:
    """uncross_preimage equals the brute-force fibre of every tau with
    max C(0) <= t; at infinite p (band = W) fibres also stay within W^2.

    Both sides are (tau, member) pairs of table rows: the fibres grouped by
    image, and the kernel's preimages located in the table; a tau is wrong
    where the two pair sets differ.
    """
    check = "preimage_sets_full" if band is None else "preimage_sets_band"
    label = {} if band is None else {"W": band}
    table, _, walk = members
    rows, _, at, _, _ = fibres
    ts = t + walk.n
    kept = (at >= 0) & (walk.top[at] <= ts)
    order = np.argsort(at[kept], kind="stable")
    fibre_tau, fibre_pi = at[kept][order], rows[kept][order]
    taus = np.flatnonzero(walk.top <= ts)
    cert._bump(check, len(taus))
    span = len(table) + 1  # a (tau, member + 1) pair as one int64
    for lo in range(0, len(taus), _CHUNK):
        chunk = taus[lo : lo + _CHUNK]
        local, found = _preimages(table[chunk], walk.take(chunk), t, band)
        owner, got = chunk[local], _locate(members, found)
        start, stop = np.searchsorted(fibre_tau, (chunk[0], chunk[-1] + 1))
        expected_tau, expected = fibre_tau[start:stop], fibre_pi[start:stop]
        sizes = np.bincount(local, minlength=len(chunk))
        if band is not None and sizes.max() > cert.max_preimage_size:
            i = int(sizes.argmax())
            cert.max_preimage_size = int(sizes[i])
            cert.max_preimage_witness = {
                "W": band, "t": t, "tau": _image(table[chunk[i]]), "size": int(sizes[i])
            }
        pairs = expected_tau * span + expected + 1, owner * span + got + 1
        wrong = np.array([], dtype=int) if np.array_equal(*pairs) else np.setxor1d(*pairs) // span
        if band is not None:
            wrong = np.concatenate([wrong, chunk[sizes > band * band]])
        for tau in np.unique(wrong).tolist():
            cert.violations.append(
                {
                    "check": check,
                    **label,
                    "t": t,
                    "tau": _image(table[tau]),
                    "expected": [_image(table[q]) for q in expected[expected_tau == tau]],
                    "got": [_image(q) for q in found[owner == tau]],
                }
            )


def _band_pass(
    cert: VerificationCertificate,
    n: int,
    W: int,
    lam_values: Sequence[int],
    t_values: Sequence[int],
) -> None:
    """All p = infinity checks over S_W on [-n, n], from one enumeration.

    one_step_membership: at each threshold lam + 2W the uncrossed
    permutation stays in S_W with max C(0) in (lam, lam + 2W]; small
    intervals may admit no instances, and the count records how many were
    exercised.  uncross_contract: the same guarantees at each t.
    preimage_sets_band: at each t, uncross_preimage equals the forward
    map's fibres and never exceeds W^2 members.  One threshold's fibres are
    held at a time.
    """
    members = _members(ModelParams(p=INFINITY, W=W, n=n))
    for check in ("one_step_membership", "uncross_contract", "preimage_sets_band"):
        cert.counts.setdefault(check, 0)
    for lam in lam_values:
        t = lam + 2 * W
        _check_images(
            cert, members, _fibres(members, t), W, t, "one_step_membership", {"lam": lam}
        )
    for t in t_values:
        fibres = _fibres(members, t)
        _check_images(cert, members, fibres, W, t, "uncross_contract", {"t": t})
        _check_preimages(cert, members, t, W, fibres)


def _full_pass(
    cert: VerificationCertificate,
    n: int,
    p_values: Sequence[float],
    w_values: Sequence[int],
    t_values: Sequence[int],
) -> None:
    """All finite-p checks over every permutation of [-n, n], from one enumeration.

    The fibres at each t are independent of p and W, so they are built and
    checked against uncross_preimage (preimage_sets_full) once, then reused
    with each member's swap cost E(pi) - E(uncross(pi)) (:func:`_swap_costs`):
    energy_monotonicity (uncrossing never raises the energy by more than
    1e-9) once per p, and ratio_bound (the weight-ratio inequality over
    every admissible (tau, a, b, t)) and ratio_sum (each fibre's summed
    weight ratio) at each (p, W).  Monotonicity does not depend on the
    scale W, so it reads the W = 1 terms |d|^p.  Full energies are summed
    only for the records of its violations.
    """
    members = _members(ModelParams(p=1.0, W=1, n=n))
    table = members.table
    for check in ("preimage_sets_full", "energy_monotonicity", "ratio_bound", "ratio_sum"):
        cert.counts.setdefault(check, 0)
    maps = [(t, _fibres(members, t)) for t in t_values]
    for t, fibres in maps:
        _check_preimages(cert, members, t, None, fibres)
    for p in p_values:
        unit = displacement_costs(ModelParams(p=p, W=1, n=n))  # d^p
        for t, fibres in maps:
            rows, images, at, _, _ = fibres
            cert._bump("energy_monotonicity", len(rows))
            bad = np.flatnonzero(_swap_costs(fibres, np.array(unit)) < -1e-9)
            for i in _fibre_order(at, bad):
                cert.violations.append(
                    {
                        "check": "energy_monotonicity",
                        "p": p,
                        "t": t,
                        "pi": _image(table[rows[i]]),
                        "energy_before": displacement_sum(_image(table[rows[i]]), unit),
                        "energy_after": displacement_sum(_image(images[i]), unit),
                    }
                )
        for W in w_values:
            _ratio_checks(cert, members, maps, ModelParams(p=p, W=W, n=n))


def _ratio_checks(
    cert: VerificationCertificate,
    members: _Members,
    maps: list[tuple[int, Fibres]],
    params: ModelParams,
) -> None:
    """Both weight-ratio checks at one (p, W), for every tau and every t.

    ratio_bound: the inequality of :func:`crossing_ratio_check` for every
    straddling pair (a, b).  ratio_sum: when max C_tau(0) <= t, the weights
    of tau's fibre relative to tau sum to at most
    RATIO_SUM_K * W^2 * exp(-(|t - max C_tau(0)| / W)^p).  Witnesses are
    the first maxima, and violations are listed, in the (tau, t, a, b)
    order of a loop over the members that checks both at each (tau, t).
    """
    costs = np.array(displacement_costs(params))
    best, found = _ratio_bounds(cert, members, maps, costs, params)
    if best is not None and best[0] > cert.max_ratio_quotient:
        cert.max_ratio_quotient, _, cert.max_ratio_witness = best
    best, found_sums = _ratio_sums(cert, members, maps, costs, params)
    if best is not None and best[0] > cert.max_ratio_sum_quotient:
        cert.max_ratio_sum_quotient, _, cert.max_ratio_sum_witness = best
    found.extend(found_sums)
    found.sort(key=lambda entry: entry[0])
    cert.violations.extend(record for _, record in found)


# The first maximum of a quotient so far, (quotient, tau row, record), and
# the violations found, ((tau row, t index, check, position), record): how
# _ratio_bounds and _ratio_sums report to _ratio_checks.
Best = Optional[tuple[float, int, dict]]
Found = list[tuple[tuple[int, int, int, int], dict]]


def _first_max(best: Best, quotient: float, tau: int) -> bool:
    """Whether quotient, found at row tau, replaces best as the first
    maximum: it is larger, or equal at an earlier row.  The t of one row
    are visited in order, so a tie at the same row keeps best."""
    return best is None or quotient > best[0] or (quotient == best[0] and tau < best[1])


def _ratio_bounds(cert, members, maps, costs, params) -> tuple[Best, Found]:
    """ratio_bound over the table, _CHUNK rows at a time."""
    table, _, walk = members
    n, p, W = walk.n, params.p, params.W
    best, found = None, []
    cols = np.arange(table.shape[1])
    for lo in range(0, len(table), _CHUNK):
        block = table[lo : lo + _CHUNK]
        for k, (t, _) in enumerate(maps):
            ts = t + n
            low = (cols <= ts) & (block <= ts)
            high = (cols > ts) & (block > ts)
            r, a, b = np.nonzero(low[:, :, None] & high[:, None, :])
            cert._bump("ratio_bound", len(r))
            if not len(r):
                continue
            log_ratio, log_bound, satisfied = _ratio_logs(
                a, block[r, a], b, block[r, b], costs
            )
            quotient = _exp(np.minimum(log_ratio - log_bound, 700.0))

            def record(j: int) -> dict:
                return {
                    "p": p,
                    "W": W,
                    "t": t,
                    "tau": _image(block[r[j]]),
                    "a": int(a[j]) - n,
                    "b": int(b[j]) - n,
                    "ratio": math.exp(log_ratio[j]),
                    "bound": math.exp(log_bound[j]),
                }

            i = int(quotient.argmax())
            if _first_max(best, quotient[i], lo + r[i]):
                best = (float(quotient[i]), lo + int(r[i]), record(i))
            for j in np.flatnonzero(~satisfied).tolist():
                key = (lo + int(r[j]), k, 0, j)
                found.append((key, {"check": "ratio_bound", **record(j)}))
    return best, found


def _ratio_sums(cert, members, maps, costs, params) -> tuple[Best, Found]:
    """ratio_sum over the whole table at each t.  Each fibre member's
    weight relative to tau is exp(-swap_cost) of the swap that recreates it
    from tau (:func:`_swap_costs`), never a difference of two full energies,
    which both grow like (2n / W)^p.  Each fibre's sum adds its terms in
    enumeration order (np.add.at is unbuffered)."""
    table, _, walk = members
    n, p, W = walk.n, params.p, params.W
    best, found = None, []
    top = walk.top - n
    for k, (t, fibres) in enumerate(maps):
        at = fibres[2]
        size = np.bincount(at, minlength=len(table))
        checked = np.flatnonzero((size > 0) & (top <= t))
        cert._bump("ratio_sum", len(checked))
        if not len(checked):
            continue
        total = np.zeros(len(table))
        np.add.at(total, at, _exp(-_swap_costs(fibres, costs)))
        limit = np.zeros(n + 1)
        for x in np.unique(top[checked]).tolist():
            limit[x] = RATIO_SUM_K * W * W * math.exp(-costs[t - x])
        total, bound = total[checked], limit[top[checked]]
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = total / bound

        def record(j: int) -> dict:
            return {
                "p": p,
                "W": W,
                "t": t,
                "tau": _image(table[checked[j]]),
                "fiber_size": int(size[checked[j]]),
                "ratio_sum": float(total[j]),
                "bound": float(bound[j]),
            }

        i = int(quotient.argmax())
        if _first_max(best, quotient[i], checked[i]):
            best = (float(quotient[i]), int(checked[i]), record(i))
        for j in np.flatnonzero(~(total <= bound * (1.0 + RATIO_GUARD))).tolist():
            found.append(((int(checked[j]), k, 1, 0), {"check": "ratio_sum", **record(j)}))
    return best, found


def run_verification(
    n: int,
    w_values: Iterable[int],
    p_values: Iterable[float],
    lam_values: Optional[Iterable[int]] = None,
    t_values: Optional[Iterable[int]] = None,
) -> VerificationCertificate:
    """Run the exhaustive invariant suite and return its certificate.

    Band checks run for every W; finite-p checks run for every finite p in
    p_values (and need their (2n+1)! members within the enumeration cap,
    so 2n+1 <= 9, and (2n)^p a finite float: :func:`check_power`).
    """
    w_values = tuple(sorted(set(w_values)))
    p_values = tuple(sorted(set(p_values)))
    for p in p_values:
        check_power(n, p)
    lam_tuple = tuple(lam_values) if lam_values is not None else tuple(range(0, min(4, 2 * n) + 1))
    # a lazy range: the passes' capacity checks must run before anything of size n
    t_values = tuple(t_values) if t_values is not None else range(0, n)
    cert = VerificationCertificate(n, w_values, p_values, lam_tuple)

    if any(math.isinf(p) for p in p_values):
        for W in w_values:
            _band_pass(cert, n, W, lam_tuple, t_values)
    finite_ps = [p for p in p_values if not math.isinf(p)]
    if finite_ps:
        _full_pass(cert, n, finite_ps, w_values, t_values)
    return cert
