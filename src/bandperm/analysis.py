"""Survival curves, scaling fits, preimage-size statistics and the
tail-bound recurrence checker.

This layer turns sample streams and exact oracles into the quantitative
statements of interest: how fast P(diam C(j) >= lam) decays in lam, how the
mean cycle diameter and the mean displacement scale with the bandwidth, how
large the uncrossing preimages actually are, and whether a candidate
exponential tail bound is preserved by the summation-by-parts recurrence
that closes the localization argument.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import ModelParams, Permutation
from .uncross import _preimage_sizes

# Default fit-window rules (both overridable per call): drop grid points
# with fewer than this many surviving samples, and drop the boundary head
# lam <= 2W where the one-step geometry distorts the decay.
MIN_SURVIVORS = 10

# Contiguous chain blocks of the jackknife standard error on mean_diam.
JACKKNIFE_BLOCKS = 20

# Start and bisection tolerance of largest_propagating_c0's search.
C0_SEARCH_START = 4.0
C0_SEARCH_TOL = 1e-3

# Largest alpha * length of a block of the recurrence's geometric running
# sum, so that the block's weights exp(alpha * r) stay finite.
_BLOCK_EXPONENT = 500.0


class NoDataError(ValueError):
    """The input stream contained no usable samples."""


class UnfittableError(ValueError):
    """The requested fit is degenerate on this input."""


@dataclass(frozen=True)
class TailPoint:
    lam: int
    survival: float
    stderr: float
    count: int


@dataclass(frozen=True)
class TailCurve:
    """Empirical survival probabilities P(diam >= lam) over a lambda grid.

    mean_diam carries the plain sample mean of the diameters with a
    jackknife standard error over contiguous chain blocks, for use by the
    bandwidth-scaling fit.
    """

    params: ModelParams
    j: int
    points: tuple[TailPoint, ...]
    mean_diam: Optional[float] = None
    mean_diam_stderr: Optional[float] = None

    def __post_init__(self) -> None:
        last = 1.0
        for pt in self.points:
            if pt.survival > last + 1e-12:
                raise ValueError("survival must be nonincreasing in lambda")
            last = pt.survival
            if pt.lam == 0 and pt.survival != 1.0:
                raise ValueError("survival at lambda = 0 must be 1")


def _jackknife_mean(values: np.ndarray, blocks: int) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    blocks = max(2, min(blocks, len(values)))
    parts = np.array_split(values, blocks)
    part_sums = np.array([p.sum() for p in parts], dtype=float)
    part_lens = np.array([len(p) for p in parts], dtype=float)
    total = part_sums.sum()
    count = part_lens.sum()
    leave_out = (total - part_sums) / (count - part_lens)
    stderr = math.sqrt(
        (blocks - 1) / blocks * float(((leave_out - leave_out.mean()) ** 2).sum())
    )
    return mean, stderr


def estimate_tail_curve(
    diams: Sequence[int],
    lam_grid: Sequence[float],
    params: ModelParams,
    j: int = 0,
) -> TailCurve:
    """Survival curve of a diameter stream over the given lambda grid.

    survival(lam) is the fraction of samples with diam >= lam and stderr is
    the binomial sqrt(s(1-s)/count).  Real-valued thresholds reduce to the
    integer lattice by rounding down, which only weakens the tail being
    bounded (diameters are integers, so P(diam >= lam) = P(diam >= ceil
    lam) <= P(diam >= floor lam)).
    """
    arr = np.asarray(list(diams), dtype=np.int64)
    count = len(arr)
    if count == 0:
        raise NoDataError("empty diameter stream")
    arr_sorted = np.sort(arr)
    points = []
    for lam in sorted(int(math.floor(x)) for x in lam_grid):
        surv = float(count - np.searchsorted(arr_sorted, lam, side="left")) / count
        stderr = math.sqrt(surv * (1.0 - surv) / count)
        points.append(TailPoint(lam, surv, stderr, count))
    mean, mean_err = _jackknife_mean(arr.astype(float), JACKKNIFE_BLOCKS)
    return TailCurve(params, j, tuple(points), mean, mean_err)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary; residual is the R^2 of the primary fit.

    decay_rate_c_hat is the slope of -log survival against lambda within the
    fit window; exponent_alpha_hat is the slope of log(mean) against log(W)
    across curves (None when only one curve is supplied).  window records
    the lambda range (single curve) or W range (cross-curve) actually used.
    """

    decay_rate_c_hat: Optional[float]
    exponent_alpha_hat: Optional[float]
    residual: float
    window: tuple[float, float]
    n_points: int
    per_curve: tuple["FitResult", ...] = ()


def _least_squares_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Slope, intercept and R^2 of the ordinary least-squares line."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2:
        raise UnfittableError("need at least two points to fit a line")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise UnfittableError("all abscissae coincide")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    ss_res = float(((y - slope * x - intercept) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def decay_fit_window(
    curve: TailCurve,
    head_cut: Optional[int] = None,
    min_survivors: int = MIN_SURVIVORS,
) -> list[TailPoint]:
    """Grid points used for the decay fit.

    Excludes the boundary head lam <= head_cut (default 2W) and points whose
    surviving count falls below min_survivors or whose survival reached 0 or
    1 exactly.  head_cut and min_survivors can be set; the survival 0/1
    exclusion is fixed, since -log survival is undefined or 0 there.
    """
    if head_cut is None:
        head_cut = 2 * curve.params.W
    picked = []
    for pt in curve.points:
        if pt.lam <= head_cut:
            continue
        if pt.survival <= 0.0 or pt.survival >= 1.0:
            continue
        if pt.survival * pt.count < min_survivors:
            continue
        picked.append(pt)
    return picked


def fit_exponential_decay(
    curve: TailCurve,
    head_cut: Optional[int] = None,
    min_survivors: int = MIN_SURVIVORS,
) -> FitResult:
    """Least-squares fit of -log survival against lambda inside the window."""
    picked = decay_fit_window(curve, head_cut, min_survivors)
    if len(picked) < 3:
        raise UnfittableError(
            f"only {len(picked)} usable grid points after windowing; need >= 3"
        )
    xs = [pt.lam for pt in picked]
    ys = [-math.log(pt.survival) for pt in picked]
    slope, _, r_squared = _least_squares_line(xs, ys)
    return FitResult(
        decay_rate_c_hat=slope,
        exponent_alpha_hat=None,
        residual=r_squared,
        window=(float(xs[0]), float(xs[-1])),
        n_points=len(picked),
    )


def _scaling_fit(
    means_by_w: Mapping[int, Optional[float]],
    what: str,
    decay_rate: Optional[float] = None,
    per_curve: tuple[FitResult, ...] = (),
) -> FitResult:
    """Least-squares line of log(mean) against log(W), in increasing W.

    Every mean must be positive, or the log scale is meaningless.
    """
    ws = sorted(means_by_w)
    for w in ws:
        mean = means_by_w[w]
        if mean is None or not mean > 0:
            raise UnfittableError(f"{what} at W={w} is not positive")
    slope, _, r_squared = _least_squares_line(
        [math.log(w) for w in ws], [math.log(means_by_w[w]) for w in ws]
    )
    return FitResult(
        decay_rate_c_hat=decay_rate,
        exponent_alpha_hat=slope,
        residual=r_squared,
        window=(float(ws[0]), float(ws[-1])),
        n_points=len(ws),
        per_curve=per_curve,
    )


def fit_decay_and_exponent(
    curves: Sequence[TailCurve],
    head_cut: Optional[int] = None,
    min_survivors: int = MIN_SURVIVORS,
) -> FitResult:
    """Per-curve decay rates plus the cross-curve diameter-scaling exponent.

    With one curve this is exactly :func:`fit_exponential_decay`.  With a
    W-grid of curves, log(mean diam) is regressed on log(W); the returned
    decay_rate_c_hat is the largest-W curve's rate and per_curve holds every
    individual decay fit.
    """
    if not curves:
        raise NoDataError("no curves supplied")
    fits = tuple(
        fit_exponential_decay(c, head_cut, min_survivors) for c in curves
    )
    if len(curves) == 1:
        return fits[0]
    ws = [c.params.W for c in curves]
    if len(set(ws)) != len(ws):
        raise UnfittableError("curves must have distinct bandwidths W")
    return _scaling_fit(
        {c.params.W: c.mean_diam for c in curves},
        "mean_diam",
        decay_rate=fits[ws.index(max(ws))].decay_rate_c_hat,
        per_curve=fits,
    )


def band_structure_stat(
    displacements_by_w: Mapping[int, Sequence[float]],
) -> FitResult:
    """Regression of log mean |pi(0)| on log W across a bandwidth grid.

    A slope near 1 reproduces the linear band-structure law for the typical
    displacement.  Raises UnfittableError on fewer than two bandwidths or
    when any bandwidth's mean is zero (the log scale is then meaningless).
    """
    means = {}
    for w, values in displacements_by_w.items():
        samples = np.asarray(list(values), dtype=float)
        if len(samples) == 0:
            raise NoDataError(f"no samples for W={w}")
        means[w] = float(samples.mean())
    return _scaling_fit(means, "mean displacement")


@dataclass(frozen=True)
class PreimageSizeStats:
    """Empirical distribution of uncrossing preimage sizes at one threshold."""

    W: int
    t: int
    histogram: dict[int, int]
    count: int
    median: float
    q90: float
    max_size: int


def preimage_size_stats(
    params: ModelParams, t: int, taus: Iterable[Permutation]
) -> PreimageSizeStats:
    """Histogram of |preimage| over a stream of admissible band permutations.

    Admissible means max C_tau(0) <= t; other samples are skipped.  Only the
    hard-support model is meaningful here, since that is where the W^2
    versus W entropy question lives.  The sizes are those of
    uncross_preimage, from one call of its kernel on all samples.
    """
    if not params.infinite_p:
        raise ValueError("preimage size statistics require p = infinity")
    images = [tau.image for tau in taus]
    sizes = _preimage_sizes(images, t, params.W).tolist() if images else []
    if not sizes:
        raise NoDataError("no admissible samples (max C(0) <= t never held)")
    hist = Counter(sizes)
    arr = np.asarray(sizes, dtype=float)
    return PreimageSizeStats(
        W=params.W,
        t=t,
        histogram=dict(sorted(hist.items())),
        count=len(sizes),
        median=float(np.quantile(arr, 0.5)),
        q90=float(np.quantile(arr, 0.9)),
        max_size=int(arr.max()),
    )


# ---------------------------------------------------------------------------
# Recurrence propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceResult:
    propagated: bool
    first_failure_k: Optional[int]
    c: float  # contraction constant derived from C0
    last_compared_k: Optional[int]  # None when f(1) is already subnormal


def _geometric_sums(h: np.ndarray, alpha: float) -> np.ndarray:
    """U(t) = sum_{s<=t} e^{-alpha (t-s)} h(s), so U(t) = e^{-alpha} U(t-1) + h(t).

    Within a block starting at b, U(b+r) = e^{-alpha r} (e^{-alpha} U(b-1) +
    sum_{s<=r} e^{alpha s} h(b+s)), one cumsum of nonnegative terms; blocks
    are short enough that e^{alpha r} stays finite.  Past the kernel's last
    nonzero term (it decays to exact float zeros) U only decays
    geometrically.
    """
    nonzero = np.nonzero(h)[0]
    cut = int(nonzero[-1]) + 1 if len(nonzero) else 0
    # one block, unless e^{alpha r} could overflow within it
    span = cut if alpha * cut <= _BLOCK_EXPONENT else int(_BLOCK_EXPONENT / alpha)
    step = max(1, span)
    decay = math.exp(-alpha)
    sums = np.empty(len(h))
    carry = 0.0  # U(b - 1)
    for b in range(0, cut, step):
        e = min(b + step, cut)
        grow = np.exp(alpha * np.arange(e - b, dtype=float))
        sums[b:e] = (decay * carry + np.cumsum(grow * h[b:e])) / grow
        carry = sums[e - 1]
    sums[cut:] = carry * np.exp(-alpha * np.arange(1, len(h) - cut + 1))
    return sums


def _recurrence_sides(
    p: float, W: int, factor: float, c0: float, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the recurrence with f substituted, for k = 0..k_max-1.

    The right side factor * (sum_{j<=k} f(j) h(k-j) + g(k+1)), with
    g(k) = exp(-(k/W)^p) and h(t) = g(t) - g(t+1), in closed form: f is 1
    for j < K1 and 2 e^{-alpha j} from K1 on (alpha = c0 / W^3), so the
    first part of the sum telescopes, g(k+1) cancels, and what is left is
    g(k - min(k, K1-1)) + f(K1) U(k - K1) with the geometric running sum U
    of :func:`_geometric_sums`.  That costs O(k_max), where the direct
    convolution costs O(k_max * cut) with the kernel cut at its underflow
    point.  FFT convolution is not usable either way: its absolute noise
    floor (~1e-13) swamps the tail values being compared, which reach far
    below it.  The left side is f(k+1).
    """
    ks = np.arange(k_max + 1, dtype=float)
    f = np.minimum(1.0, 2.0 * np.exp(-c0 * ks / W**3))
    # a power past the float range is inf, which gives g exactly: exp(-inf)
    # = 0.0 = exp(-x) for every x above about 745
    with np.errstate(over="ignore"):
        g = np.exp(-((ks / W) ** p))
    ones = f[:k_max] == 1.0
    k1 = k_max if ones.all() else int(np.argmin(ones))  # f(0) = 1, so k1 >= 1
    k = np.arange(k_max)
    rhs = g[k - np.minimum(k, k1 - 1)]
    if k1 < k_max:
        h = g[: k_max - k1] - g[1 : k_max - k1 + 1]
        rhs[k1:] += f[k1] * _geometric_sums(h, c0 / W**3)
    return factor * rhs, f[1:]


def recurrence_check(
    p: float, W: int, C0: float, c0: float, k_max: int
) -> RecurrenceResult:
    """Does f(k) = min(1, 2 exp(-c0 k / W^3)) survive the tail recurrence?

    The one-step bound rearranges, by summation by parts with weights
    w_j = exp(-|k-j|^p / W^p) and w_{-1} = 0, into

        p_{k+1} <= (1 - c W^{-2}) * sum_{j<=k} p_j (w_j - w_{j-1}),

    with c = 1 / (C0 + W^{-2}).  The check substitutes f for p on the right
    (valid since the weight increments are nonnegative) and requires the
    result not to exceed f(k+1), for every k < k_max, up to a 1e-9 relative
    float guard.  The comparison stops at the last k where f(k+1) is a normal
    float: below that the relative guard is void and one subnormal ulp would
    decide.  Returns the first failing k when propagation breaks, and the
    last compared k either way: f decreases, so every k up to it is compared.
    """
    if math.isinf(p) or p < 1:
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")
    if W < 1 or k_max < 1:
        raise ValueError("W and k_max must be positive")
    if not 0 < C0 < math.inf:
        raise ValueError(f"C0 must be positive and finite, got {C0!r}")
    if not 0 <= c0 < math.inf:
        raise ValueError(f"c0 must be nonnegative and finite, got {c0!r}")
    c = 1.0 / (C0 + W**-2)
    rhs, target = _recurrence_sides(p, W, 1.0 - c / W**2, c0, k_max)
    normal = target >= sys.float_info.min
    bad = (rhs > target * (1.0 + 1e-9)) & normal
    last = int(np.count_nonzero(normal)) - 1 if normal[0] else None
    if not bad.any():
        return RecurrenceResult(True, None, c, last)
    return RecurrenceResult(False, int(np.argmax(bad)), c, last)


def largest_propagating_c0(p: float, W: int, C0: float, k_max: int) -> float:
    """Largest decay coefficient (up to C0_SEARCH_TOL) that the recurrence sustains.

    Geometric descent from C0_SEARCH_START brackets the boundary, then
    bisection narrows it; the returned value is always verified to
    propagate.  c0 = 0 always propagates (the weights telescope), so the
    search cannot come back empty.
    """
    hi = C0_SEARCH_START
    if recurrence_check(p, W, C0, hi, k_max).propagated:
        return hi
    upper = hi
    lower = hi
    for _ in range(200):
        lower *= 0.7
        if recurrence_check(p, W, C0, lower, k_max).propagated:
            break
        upper = lower
    else:
        return 0.0
    while upper - lower > C0_SEARCH_TOL:
        mid = 0.5 * (upper + lower)
        if recurrence_check(p, W, C0, mid, k_max).propagated:
            lower = mid
        else:
            upper = mid
    return lower
