"""The uncrossing map and its verification machinery.

The orbit of 0 either stays at or below a threshold t, or it crosses above
and must cross back.  ``uncross`` swaps the images at the first up-crossing
source and the last down-crossing source, which removes every excursion of
the orbit above t, never increases the displacement energy, and keeps band
membership.  ``uncross_preimage`` inverts the map by candidate enumeration,
and ``crossing_ratio_check`` tests the weight-ratio inequality that controls
each preimage term at finite p.

Composition-order convention: the transposition of the two crossing targets
is applied after the permutation, which is the same as swapping the images
at the two crossing sources.  This is the reading under which the mapped
orbit no longer exceeds the threshold; the test suite demonstrates
mechanically that the opposite reading does not have that property.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import (
    INFINITY,
    DomainError,
    ModelParams,
    Permutation,
    UnsupportedExponentError,
    displacement_powers,
    displacement_sum,
    image_max_displacement,
    orbit,
    reflect,
    swapped,
)
from .exact import enumerate_images

# Multiplicative slack for floating-point comparisons of energy ratios.
RATIO_GUARD = 1e-9

# Frozen regression bound for the per-fiber weighted sum at finite p:
# sum over the fiber of P(pi)/P(tau) <= K * W^2 * exp(-|t - max C(0)|^p / W^p).
# Brute force over the exhaustive range (2n+1 = 7, p in {1, 1.5, 2, 4},
# W in {1, 2}, t in 0..2) observed a maximum quotient of 0.657.
RATIO_SUM_K = 1.0


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


def _crossings(image: Image, t: int) -> tuple[Optional[tuple], Optional[tuple]]:
    """First up-crossing and last down-crossing of the orbit of 0 at t.

    One walk of the orbit finds both as (index, source, target) triples;
    each is None when absent, and both are None exactly when the orbit never
    exceeds t.  Requires t >= 0 so that the orbit starts at or below the
    threshold.
    """
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    members = orbit(image, 0)
    up = down = None
    for j, (here, nxt) in enumerate(zip(members, members[1:] + [0])):
        if up is None and here <= t < nxt:
            up = (j, here, nxt)
        elif nxt <= t < here:
            down = (j, here, nxt)
    return up, down


def first_upcrossing(pi: Permutation, t: int) -> Optional[Crossing]:
    """Least j >= 0 with pi^j(0) <= t < pi^(j+1)(0), or None if the orbit
    never exceeds t.  Requires t >= 0 so that the orbit starts below."""
    up, _ = _crossings(pi.image, t)
    return None if up is None else Crossing(*up)


def last_downcrossing(pi: Permutation, t: int) -> Optional[Crossing]:
    """Greatest j in [0, period) with pi^(j+1)(0) <= t < pi^j(0), or None.

    period is the length of the cycle of 0, so the search covers exactly one
    traversal and pi^period(0) = 0 closes it.
    """
    _, down = _crossings(pi.image, t)
    return None if down is None else Crossing(*down)


def crossing_record(pi: Permutation, t: int) -> Optional[CrossingRecord]:
    """Both crossings at threshold t, or None when the orbit stays below."""
    up, down = _crossings(pi.image, t)
    if up is None:
        return None
    return CrossingRecord(t, Crossing(*up), Crossing(*down))


def _uncross_image(image: Image, t: int) -> Image:
    """:func:`uncross` on an image tuple."""
    up, down = _crossings(image, t)
    if up is None:
        raise NoCrossingError(
            f"orbit of 0 never exceeds {t}; permutation is outside the map's domain"
        )
    return swapped(image, up[1], down[1])


def uncross(pi: Permutation, t: int) -> Permutation:
    """Remove the orbit-of-0 excursion above t by one image swap.

    The images at the up-crossing source and the down-crossing source trade
    places.  The result rho satisfies max C_rho(0) <= t; at finite p its
    energy never exceeds pi's; and if pi lies in S_W then so does rho, with
    max C_rho(0) > t - 2W.
    """
    return Permutation(_uncross_image(pi.image, t))


def uncross_min(pi: Permutation, t: int) -> Permutation:
    """Mirror of :func:`uncross` acting on the minimum of the cycle of 0.

    Implemented by conjugating with the reflection i -> -i; the result has
    min C(0) >= -t.
    """
    return reflect(uncross(reflect(pi), t))


def _preimage_images(tau: Image, t: int, band: Optional[int]) -> list[Image]:
    """:func:`uncross_preimage` on an image tuple whose 0-cycle stays <= t.

    band is W at infinite p and None at finite p.  Candidate source pairs
    (a, b) have a on the cycle of 0 with a, tau(a) <= t and b, tau(b) > t;
    at infinite p both are pinned to W-windows around the threshold because
    band membership forces the crossing sources there.
    """
    n = len(tau) // 2
    cycle = set(orbit(tau, 0))
    reach = 2 * n + 1 if band is None else band  # finite p: the whole interval
    a_lo, b_hi = max(-n, t - reach + 1), min(n, t + reach)
    a_values = [
        a for a in range(a_lo, min(n, t) + 1) if a in cycle and tau[a + n] <= t
    ]
    b_values = [b for b in range(t + 1, b_hi + 1) if tau[b + n] > t]
    # the swap at (a, b) is in the band iff tau's out-of-band positions lie
    # in {a, b} and both moved images land within W of their new positions
    outside = (
        set()
        if band is None
        else {i for i in range(-n, n + 1) if abs(tau[i + n] - i) > band}
    )
    found = []
    for a in a_values:
        for b in b_values:
            if band is not None and not (
                outside <= {a, b}
                and abs(tau[b + n] - a) <= band
                and abs(tau[a + n] - b) <= band
            ):
                continue
            candidate = swapped(tau, a, b)
            up, down = _crossings(candidate, t)
            if up is not None and swapped(candidate, up[1], down[1]) == tau:
                found.append(candidate)
    found.sort()
    return found


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
    if max(orbit(tau.image, 0)) > t:
        raise DomainError(
            f"max of the cycle of 0 exceeds {t}; tau is outside the map's image"
        )
    band = params.W if params.infinite_p else None
    return [Permutation(img) for img in _preimage_images(tau.image, t, band)]


@dataclass(frozen=True)
class RatioCheck:
    """ratio and bound can underflow to 0.0 at large p; the log fields and
    the satisfied flag are computed in log space and never do."""

    ratio: float
    bound: float
    satisfied: bool
    log_ratio: float
    log_bound: float


def crossing_ratio_check(
    tau: Permutation, a: int, b: int, t: int, params: ModelParams
) -> RatioCheck:
    """Check the weight-ratio inequality for one straddling swap at finite p.

    With a, tau(a) <= t < b, tau(b), the swap of images at (a, b) recreates
    a crossing; its Gibbs weight relative to tau is exp(-delta_energy) and
    must not exceed exp(-|min(b, tau(b)) - max(a, tau(a))|^p / W^p), up to a
    1e-9 multiplicative float guard.
    """
    if params.infinite_p:
        raise UnsupportedExponentError("the ratio inequality is a finite-p statement")
    ta, tb = tau(a), tau(b)  # raises DomainError outside [-n, n]
    if not (a <= t and ta <= t and b > t and tb > t):
        raise CrossingConditionError(
            f"need a, tau(a) <= {t} < b, tau(b); got a={a}, tau(a)={ta}, "
            f"b={b}, tau(b)={tb}"
        )
    wp = float(params.W) ** params.p
    log_ratio, log_bound, satisfied = _ratio_logs(a, ta, b, tb, params.p, wp)
    return RatioCheck(
        math.exp(log_ratio), math.exp(log_bound), satisfied, log_ratio, log_bound
    )


def _ratio_logs(
    a: int, ta: int, b: int, tb: int, p: float, wp: float
) -> tuple[float, float, bool]:
    """(log ratio, log bound, satisfied) for the swap at (a, b); wp is W^p."""
    delta = (
        abs(tb - a) ** p + abs(ta - b) ** p - abs(ta - a) ** p - abs(tb - b) ** p
    ) / wp
    gap = min(b, tb) - max(a, ta)
    log_ratio, log_bound = -delta, -(abs(gap) ** p) / wp
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
        self.counts[key] = self.counts.get(key, 0) + amount

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


# Every admissible image in enumeration order, and the max of each one's
# 0-cycle; parallel lists, since a pair per member costs 64 bytes more.
Members = tuple[list[Image], list[int]]


def _members(params: ModelParams) -> Members:
    images = list(enumerate_images(params))
    return images, [max(orbit(img, 0)) for img in images]


def _fibres(members: Members, t: int) -> dict[Image, list[Image]]:
    """The uncrossing map at t, inverted by brute force over the members.

    Keys are the images of members whose 0-cycle exceeds t; each fibre lists
    its preimages in enumeration order, which is lexicographic.
    """
    fibres: dict[Image, list[Image]] = {}
    for img, top in zip(*members):
        if top > t:
            fibres.setdefault(_uncross_image(img, t), []).append(img)
    return fibres


def _check_images(
    cert: VerificationCertificate,
    fibres: dict[Image, list[Image]],
    W: int,
    t: int,
    check: str,
    label: dict,
) -> None:
    """Every image of the map stays in S_W with max C(0) in (t - 2W, t]."""
    for rho, pis in fibres.items():
        cert._bump(check, len(pis))
        top = max(orbit(rho, 0))
        if not (t - 2 * W < top <= t and image_max_displacement(rho) <= W):
            for pi in pis:
                cert.violations.append(
                    {
                        "check": check,
                        "W": W,
                        **label,
                        "pi": list(pi),
                        "rho": list(rho),
                        "max_c0": top,
                    }
                )


def _check_preimages(
    cert: VerificationCertificate,
    members: Members,
    t: int,
    band: Optional[int],
    fibres: dict[Image, list[Image]],
) -> None:
    """uncross_preimage equals the brute-force fibre of every tau with
    max C(0) <= t; at infinite p (band = W) fibres also stay within W^2."""
    check = "preimage_sets_full" if band is None else "preimage_sets_band"
    label = {} if band is None else {"W": band}
    for tau, top in zip(*members):
        if top > t:
            continue
        cert._bump(check)
        expected = fibres.get(tau, [])
        got = _preimage_images(tau, t, band)
        size = len(got)
        if band is not None and size > cert.max_preimage_size:
            cert.max_preimage_size = size
            cert.max_preimage_witness = {"W": band, "t": t, "tau": list(tau), "size": size}
        if got != expected or (band is not None and size > band * band):
            cert.violations.append(
                {
                    "check": check,
                    **label,
                    "t": t,
                    "tau": list(tau),
                    "expected": [list(q) for q in expected],
                    "got": [list(q) for q in got],
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
        _check_images(cert, _fibres(members, t), W, t, "one_step_membership", {"lam": lam})
    for t in t_values:
        fibres = _fibres(members, t)
        _check_images(cert, fibres, W, t, "uncross_contract", {"t": t})
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
    with each p's energies: energy_monotonicity (uncrossing never increases
    energy), ratio_bound (the weight-ratio inequality over every admissible
    (tau, a, b, t)) and ratio_sum (each fibre's summed weight ratio).
    """
    members = _members(ModelParams(p=1.0, W=1, n=n))
    for check in ("preimage_sets_full", "energy_monotonicity", "ratio_bound", "ratio_sum"):
        cert.counts.setdefault(check, 0)
    maps = [(t, _fibres(members, t)) for t in t_values]
    for t, fibres in maps:
        _check_preimages(cert, members, t, None, fibres)
    for p in p_values:
        # displacement sums; the energy at bandwidth W is sums[img] / W^p
        powers = displacement_powers(n, p)
        sums = {img: displacement_sum(img, powers) for img in members[0]}
        for t, fibres in maps:
            for rho, pis in fibres.items():
                cert._bump("energy_monotonicity", len(pis))
                for pi in pis:
                    if sums[rho] > sums[pi] + 1e-9:
                        cert.violations.append(
                            {
                                "check": "energy_monotonicity",
                                "p": p,
                                "t": t,
                                "pi": list(pi),
                                "energy_before": sums[pi],
                                "energy_after": sums[rho],
                            }
                        )
        for W in w_values:
            wp = float(W) ** p
            for tau, top in zip(*members):
                for t, fibres in maps:
                    _ratio_checks(cert, tau, top, t, fibres, sums, p, W, wp)


def _ratio_checks(
    cert: VerificationCertificate,
    tau: Image,
    top: int,
    t: int,
    fibres: dict[Image, list[Image]],
    sums: dict[Image, float],
    p: float,
    W: int,
    wp: float,
) -> None:
    """Both weight-ratio checks for tau at t; top is max C_tau(0), wp is W^p.

    ratio_bound: the inequality of :func:`crossing_ratio_check` for every
    straddling pair (a, b).  ratio_sum: when max C_tau(0) <= t, the weights
    of tau's fibre relative to tau sum to at most
    RATIO_SUM_K * W^2 * exp(-|t - max C_tau(0)|^p / W^p).
    """
    n = len(tau) // 2
    lows = [(a, tau[a + n]) for a in range(-n, min(n, t) + 1) if tau[a + n] <= t]
    highs = [(b, tau[b + n]) for b in range(t + 1, n + 1) if tau[b + n] > t]
    cert._bump("ratio_bound", len(lows) * len(highs))
    for a, ta in lows:
        for b, tb in highs:
            log_ratio, log_bound, satisfied = _ratio_logs(a, ta, b, tb, p, wp)
            quotient = math.exp(min(log_ratio - log_bound, 700.0))
            if quotient <= cert.max_ratio_quotient and satisfied:
                continue
            record = {
                "p": p,
                "W": W,
                "t": t,
                "tau": list(tau),
                "a": a,
                "b": b,
                "ratio": math.exp(log_ratio),
                "bound": math.exp(log_bound),
            }
            if quotient > cert.max_ratio_quotient:
                cert.max_ratio_quotient = quotient
                cert.max_ratio_witness = record
            if not satisfied:
                cert.violations.append({"check": "ratio_bound", **record})

    if top > t or tau not in fibres:
        return
    fibre = fibres[tau]
    cert._bump("ratio_sum")
    e_tau = sums[tau] / wp
    total = sum(math.exp(-(sums[pi] / wp - e_tau)) for pi in fibre)
    bound = RATIO_SUM_K * W * W * math.exp(-abs(t - top) ** p / wp)
    quotient = total / bound
    satisfied = total <= bound * (1.0 + RATIO_GUARD)
    if quotient <= cert.max_ratio_sum_quotient and satisfied:
        return
    record = {
        "p": p,
        "W": W,
        "t": t,
        "tau": list(tau),
        "fiber_size": len(fibre),
        "ratio_sum": total,
        "bound": bound,
    }
    if quotient > cert.max_ratio_sum_quotient:
        cert.max_ratio_sum_quotient = quotient
        cert.max_ratio_sum_witness = record
    if not satisfied:
        cert.violations.append({"check": "ratio_sum", **record})


def run_verification(
    n: int,
    w_values: Iterable[int],
    p_values: Iterable[float],
    lam_values: Optional[Iterable[int]] = None,
    t_values: Optional[Iterable[int]] = None,
) -> VerificationCertificate:
    """Run the exhaustive invariant suite and return its certificate.

    Band checks run for every W; finite-p checks run for every finite p in
    p_values (and need 2n+1 within the factorial enumeration cap).
    """
    w_values = tuple(sorted(set(w_values)))
    p_values = tuple(sorted(set(p_values)))
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
