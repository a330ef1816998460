"""Test-only reference for the uncrossing certificates: per-image Python passes.

These are the verification passes as they were before the numpy member
tables replaced them: one Python orbit walk per image and per threshold, a
dict of fibres keyed by image tuple, and one Python float expression per
(tau, a, b, t).  The equivalence tests require the certificates of
:func:`run_verification` here and in :mod:`bandperm.uncross` to be equal,
violation records and witnesses included.  RATIO_GUARD and RATIO_SUM_K are
read from :mod:`bandperm.uncross` on each call, so monkeypatching them there
changes both.
"""
from __future__ import annotations

import importlib
import math
from typing import Iterable, Optional, Sequence

from bandperm.core import (
    INFINITY,
    ModelParams,
    image_max_displacement,
    orbit,
    swapped,
)
from bandperm.exact import enumerate_images
from bandperm.uncross import NoCrossingError, VerificationCertificate

# the module, not the function of the same name that the package exports
uncross = importlib.import_module("bandperm.uncross")

Image = tuple[int, ...]


def crossings(image: Image, t: int) -> tuple[Optional[tuple], Optional[tuple]]:
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


def uncross_image(image: Image, t: int) -> Image:
    """:func:`uncross` on an image tuple."""
    up, down = crossings(image, t)
    if up is None:
        raise NoCrossingError(
            f"orbit of 0 never exceeds {t}; permutation is outside the map's domain"
        )
    return swapped(image, up[1], down[1])


def preimage_images(tau: Image, t: int, band: Optional[int]) -> list[Image]:
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
            up, down = crossings(candidate, t)
            if up is not None and swapped(candidate, up[1], down[1]) == tau:
                found.append(candidate)
    found.sort()
    return found


def energy(image: Image, p: float, W: int) -> float:
    """sum_i (|pi(i) - i| / W)^p with each term computed in place, from i = -n up."""
    n = len(image) // 2
    total = 0.0
    for k, v in enumerate(image):
        total += (abs(v - (k - n)) / W) ** p
    return total


def swap_cost(a: int, ta: int, b: int, tb: int, p: float, W: int) -> float:
    """E(sigma) - E(tau) for tau mapping a to ta and b to tb, sigma the swap
    of those images; the four changed terms computed in place, in the order
    of :func:`core.swap_cost`."""
    return (
        (abs(tb - a) / W) ** p
        + (abs(ta - b) / W) ** p
        - (abs(ta - a) / W) ** p
        - (abs(tb - b) / W) ** p
    )


def member_cost(pi: Image, t: int, p: float, W: int) -> float:
    """E(pi) - E(uncross(pi)): the swap cost, from the image tau, of the
    swap at pi's up- and down-crossing sources that takes tau back to pi."""
    n = len(pi) // 2
    up, down = crossings(pi, t)
    a, b = up[1], down[1]
    return swap_cost(a, pi[b + n], b, pi[a + n], p, W)


def _ratio_logs(
    a: int, ta: int, b: int, tb: int, p: float, W: int
) -> tuple[float, float, bool]:
    """(log ratio, log bound, satisfied) for the swap at (a, b)."""
    gap = min(b, tb) - max(a, ta)
    log_ratio, log_bound = -swap_cost(a, ta, b, tb, p, W), -((abs(gap) / W) ** p)
    return log_ratio, log_bound, log_ratio <= log_bound + math.log1p(uncross.RATIO_GUARD)


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
            fibres.setdefault(uncross_image(img, t), []).append(img)
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
        got = preimage_images(tau, t, band)
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
    with each member's swap cost (:func:`member_cost`): energy_monotonicity
    (uncrossing never raises the energy by more than 1e-9), ratio_bound (the
    weight-ratio inequality over every admissible (tau, a, b, t)) and
    ratio_sum (each fibre's summed weight ratio).
    """
    members = _members(ModelParams(p=1.0, W=1, n=n))
    for check in ("preimage_sets_full", "energy_monotonicity", "ratio_bound", "ratio_sum"):
        cert.counts.setdefault(check, 0)
    maps = [(t, _fibres(members, t)) for t in t_values]
    for t, fibres in maps:
        _check_preimages(cert, members, t, None, fibres)
    for p in p_values:
        # monotonicity does not depend on the scale: W = 1
        for t, fibres in maps:
            for rho, pis in fibres.items():
                cert._bump("energy_monotonicity", len(pis))
                for pi in pis:
                    if member_cost(pi, t, p, 1) < -1e-9:
                        cert.violations.append(
                            {
                                "check": "energy_monotonicity",
                                "p": p,
                                "t": t,
                                "pi": list(pi),
                                "energy_before": energy(pi, p, 1),
                                "energy_after": energy(rho, p, 1),
                            }
                        )
        for W in w_values:
            for tau, top in zip(*members):
                for t, fibres in maps:
                    _ratio_checks(cert, tau, top, t, fibres, p, W)


def _ratio_checks(
    cert: VerificationCertificate,
    tau: Image,
    top: int,
    t: int,
    fibres: dict[Image, list[Image]],
    p: float,
    W: int,
) -> None:
    """Both weight-ratio checks for tau at t; top is max C_tau(0).

    ratio_bound: the inequality of :func:`crossing_ratio_check` for every
    straddling pair (a, b).  ratio_sum: when max C_tau(0) <= t, the weights
    of tau's fibre relative to tau sum to at most
    uncross.RATIO_SUM_K * W^2 * exp(-(|t - max C_tau(0)| / W)^p).
    """
    n = len(tau) // 2
    lows = [(a, tau[a + n]) for a in range(-n, min(n, t) + 1) if tau[a + n] <= t]
    highs = [(b, tau[b + n]) for b in range(t + 1, n + 1) if tau[b + n] > t]
    cert._bump("ratio_bound", len(lows) * len(highs))
    for a, ta in lows:
        for b, tb in highs:
            log_ratio, log_bound, satisfied = _ratio_logs(a, ta, b, tb, p, W)
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
    total = sum(math.exp(-member_cost(pi, t, p, W)) for pi in fibre)
    bound = uncross.RATIO_SUM_K * W * W * math.exp(-((abs(t - top) / W) ** p))
    quotient = total / bound
    satisfied = total <= bound * (1.0 + uncross.RATIO_GUARD)
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
    p_values (and need their (2n+1)! members within the enumeration cap,
    so 2n+1 <= 9).
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
