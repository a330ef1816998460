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
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import ModelParams, Permutation
from .uncross import _preimage_sizes

# Fewest surviving samples (survival * count) a grid point of the decay
# fit window needs; see fit_exponential_decay for the whole window rule.
MIN_SURVIVORS = 10

# Contiguous chain blocks of the jackknife standard error on mean_diam.
JACKKNIFE_BLOCKS = 20

# Start, most doublings of the upper bracket, and bisection tolerance of
# largest_propagating_c0's search.  At c0 = 4 * 2^64 the decay f(1) is
# subnormal at every W <= 400,000, which counts as a failure, so the
# doubling ends before its cap.
C0_SEARCH_START = 4.0
C0_SEARCH_DOUBLINGS = 64
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
    """Least-squares fit summary; residual is the R^2 of the fitted line.

    A decay fit (:func:`fit_exponential_decay`) sets decay_rate_c_hat, the
    slope of -log survival against lambda, and window is the lambda range
    of the points used.  A fit across bandwidths
    (:func:`band_structure_stat`) sets exponent_alpha_hat, the slope of
    log(mean) against log(W), and window is the W range.  The other slope
    is None.
    """

    decay_rate_c_hat: Optional[float]
    exponent_alpha_hat: Optional[float]
    residual: float
    window: tuple[float, float]
    n_points: int


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


def fit_exponential_decay(curve: TailCurve) -> FitResult:
    """Least-squares fit of -log survival against lambda inside the window.

    The window is fixed: a grid point is used when lam > 2W (the boundary
    head, where the one-step geometry distorts the decay, is dropped),
    0 < survival < 1 (-log survival is undefined or 0 outside) and at least
    MIN_SURVIVORS samples survive.  Raises UnfittableError below 3 points.
    """
    picked = [
        pt
        for pt in curve.points
        if pt.lam > 2 * curve.params.W
        and 0.0 < pt.survival < 1.0
        and pt.survival * pt.count >= MIN_SURVIVORS
    ]
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


def band_structure_stat(samples_by_w: Mapping[int, Sequence[float]]) -> FitResult:
    """Least-squares line of log(mean) against log(W), in increasing W.

    samples_by_w maps each bandwidth to its samples, or to a one-element
    list holding a mean already taken (such as a TailCurve's mean_diam).
    For the displacements |pi(0)|, a slope near 1 reproduces the linear
    band-structure law; for the cycle diameters the slope is the
    localization exponent alpha.  Raises NoDataError on a bandwidth with no
    samples, and UnfittableError on fewer than two bandwidths or when a
    mean is not positive (the log scale is then meaningless).
    """
    ws = sorted(samples_by_w)
    means = []
    for w in ws:
        samples = np.asarray(list(samples_by_w[w]), dtype=float)
        if len(samples) == 0:
            raise NoDataError(f"no samples for W={w}")
        mean = float(samples.mean())
        if not mean > 0:
            raise UnfittableError(f"mean at W={w} is not positive")
        means.append(mean)
    slope, _, r_squared = _least_squares_line(
        [math.log(w) for w in ws], [math.log(mean) for mean in means]
    )
    return FitResult(
        decay_rate_c_hat=None,
        exponent_alpha_hat=slope,
        residual=r_squared,
        window=(float(ws[0]), float(ws[-1])),
        n_points=len(ws),
    )


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
    uncross_preimage, from one call of its kernel on all samples.  Every
    tau must be a permutation of params' interval.
    """
    if not params.infinite_p:
        raise ValueError("preimage size statistics require p = infinity")
    images = []
    for tau in taus:
        params.check_interval(tau)
        images.append(tau.image)
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


class _Kernel(NamedTuple):
    """The parts of the recurrence that do not depend on c0, for one
    (p, W, k_max): ks = 0..k_max, g(k) = exp(-(k/W)^p), h(t) = g(t) - g(t+1)
    for t < k_max, and cuts[m], one past the last nonzero term of h[:m]
    (0 when there is none)."""

    W: int
    k_max: int
    ks: np.ndarray
    g: np.ndarray
    h: np.ndarray
    cuts: np.ndarray


def _kernel(p: float, W: int, k_max: int) -> _Kernel:
    """Build the c0-independent kernel once; every check of a search reads it."""
    ks = np.arange(k_max + 1, dtype=float)
    # a power past the float range is inf, which gives g exactly:
    # exp(-inf) = 0.0 = exp(-x) for every x above about 745
    with np.errstate(over="ignore"):
        g = np.exp(-((ks / W) ** p))
    h = g[:k_max] - g[1:]
    # a running index of the last nonzero term, so any prefix's cut is O(1)
    last = np.maximum.accumulate(np.where(h != 0.0, np.arange(1, k_max + 1), 0))
    return _Kernel(W, k_max, ks, g, h, np.concatenate(([0], last)))


def _geometric_sums(h: np.ndarray, alpha: float, cut: int) -> np.ndarray:
    """U(t) = sum_{s<=t} e^{-alpha (t-s)} h(s), so U(t) = e^{-alpha} U(t-1) + h(t).

    cut is one past the last nonzero term of h (:class:`_Kernel`'s cuts of
    this prefix).  Within a block starting at b, U(b+r) = e^{-alpha r}
    (e^{-alpha} U(b-1) + sum_{s<=r} e^{alpha s} h(b+s)), one cumsum of
    nonnegative terms; blocks are short enough that e^{alpha r} stays
    finite.  Past the cut (the kernel decays to exact float zeros) U only
    decays geometrically.
    """
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
    kernel: _Kernel, factor: float, c0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the recurrence with f substituted, for k = 0..k_max-1.

    The right side factor * (sum_{j<=k} f(j) h(k-j) + g(k+1)), with
    g(k) = exp(-(k/W)^p) and h(t) = g(t) - g(t+1), in closed form: f is 1
    for j < K1 and 2 e^{-alpha j} from K1 on (alpha = c0 / W^3), so the
    first part of the sum telescopes, g(k+1) cancels, and what is left is
    g(0) = 1 for k < K1 and g(k - K1 + 1) + f(K1) U(k - K1) from K1 on,
    with the geometric running sum U of :func:`_geometric_sums` over the
    prefix h[:k_max - K1].  g, h and the prefix's cut come from the kernel
    (:func:`_kernel`), built once per (p, W, k_max), so one c0 costs
    O(k_max) with no power and no exp of the kernel.  The direct
    convolution costs O(k_max * cut) with the kernel cut at its underflow
    point.  FFT convolution is not usable either way: its absolute noise
    floor (~1e-13) swamps the tail values being compared, which reach far
    below it.  The left side is f(k+1).
    """
    W, k_max, g = kernel.W, kernel.k_max, kernel.g
    # a product past the float range is inf, and exp(-inf) = 0.0 is f exactly
    with np.errstate(over="ignore"):
        f = np.minimum(1.0, 2.0 * np.exp(-c0 * kernel.ks / W**3))
    ones = f[:k_max] == 1.0
    k1 = k_max if ones.all() else int(np.argmin(ones))  # f(0) = 1, so k1 >= 1
    rhs = np.empty(k_max)
    rhs[:k1] = 1.0
    if k1 < k_max:
        rest = k_max - k1
        rhs[k1:] = g[1 : rest + 1]
        rhs[k1:] += f[k1] * _geometric_sums(kernel.h[:rest], c0 / W**3, int(kernel.cuts[rest]))
    return factor * rhs, f[1:]


def _check_arguments(p: float, W: int, C0: float, k_max: int) -> None:
    if math.isinf(p) or p < 1:
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")
    if W < 1 or k_max < 1:
        raise ValueError("W and k_max must be positive")
    if not 0 < C0 < math.inf:
        raise ValueError(f"C0 must be positive and finite, got {C0!r}")


def _propagation(kernel: _Kernel, C0: float, c0: float) -> RecurrenceResult:
    """recurrence_check at one c0 on a kernel built for its (p, W, k_max)."""
    W = kernel.W
    c = 1.0 / (C0 + W**-2)
    rhs, target = _recurrence_sides(kernel, 1.0 - c / W**2, c0)
    normal = target >= sys.float_info.min
    bad = (rhs > target * (1.0 + 1e-9)) & normal
    last = int(np.count_nonzero(normal)) - 1 if normal[0] else None
    if not bad.any():
        return RecurrenceResult(last is not None, None, c, last)
    return RecurrenceResult(False, int(np.argmax(bad)), c, last)


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
    A check that compares no k (f(1) already subnormal) does not propagate.
    """
    _check_arguments(p, W, C0, k_max)
    if not 0 <= c0 < math.inf:
        raise ValueError(f"c0 must be nonnegative and finite, got {c0!r}")
    return _propagation(_kernel(p, W, k_max), C0, c0)


def largest_propagating_c0(p: float, W: int, C0: float, k_max: int) -> float:
    """Largest decay coefficient (up to C0_SEARCH_TOL) that the recurrence sustains.

    A bracket [lower, upper] with lower propagating and upper failing is
    found from C0_SEARCH_START: by doubling while the start propagates (at
    most C0_SEARCH_DOUBLINGS times), else by geometric descent.  Bisection
    then narrows it; the returned value is always verified to propagate.
    A check that compares no k (f(1) already subnormal) does not propagate,
    so it ends the doubling.  c0 = 0 always propagates (the weights
    telescope), so the search cannot come back empty.  The arguments are
    checked as :func:`recurrence_check` checks them, and one kernel
    (:func:`_kernel`) serves every step, so each c0 tried costs O(k_max)
    with no power and no exp of the kernel.
    """
    _check_arguments(p, W, C0, k_max)
    return _largest_c0(_kernel(p, W, k_max), C0)


def _largest_propagating(
    p: float, W: int, C0: float, k_max: int
) -> tuple[float, RecurrenceResult]:
    """(largest_propagating_c0, recurrence_check at that c0), both on the
    one kernel the search builds."""
    _check_arguments(p, W, C0, k_max)
    kernel = _kernel(p, W, k_max)
    c0 = _largest_c0(kernel, C0)
    return c0, _propagation(kernel, C0, c0)


def _largest_c0(kernel: _Kernel, C0: float) -> float:
    """The search of :func:`largest_propagating_c0` on a built kernel."""

    def propagates(c0: float) -> bool:
        return _propagation(kernel, C0, c0).propagated

    lower = upper = C0_SEARCH_START
    if propagates(upper):
        for _ in range(C0_SEARCH_DOUBLINGS):
            upper = 2.0 * lower
            if not propagates(upper):
                break
            lower = upper
        else:
            return lower
    else:
        for _ in range(200):
            lower *= 0.7
            if propagates(lower):
                break
            upper = lower
        else:
            return 0.0
    while upper - lower > C0_SEARCH_TOL:
        mid = 0.5 * (upper + lower)
        if propagates(mid):
            lower = mid
        else:
            upper = mid
    return lower
