"""Integrated autocorrelation time and effective sample size (Sokal 1997).

The benchmark carries its own estimator so that changes to the library's
statistics cannot move the yardstick.  Conventions follow Sokal, "Monte
Carlo Methods in Statistical Mechanics" (1997):

    tau_int = 1/2 + sum_{t >= 1} rho(t),   Var(mean) ~ 2 tau_int sigma^2 / N,

so ESS = N / (2 tau_int).  The sum is truncated at the automatic window,
the smallest M with M >= C * tau_int(M), C = 5.  Autocovariances come from
a zero-padded FFT.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

WINDOW_C = 5.0


def _autocov_sums(x: np.ndarray) -> np.ndarray:
    """sum_{s} x_s x_{s+t} for t = 0 .. len(x)-1, about the series mean."""
    n = len(x)
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size)
    return np.fft.irfft(f * np.conj(f), size)[:n]


def tau_int(chains: Sequence[Sequence[float]]) -> float:
    """Windowed tau_int of one or more chains of the same observable.

    Each chain is centred on its own mean; the lag sums are pooled over
    chains before normalising, so several chains estimate one shared
    autocorrelation function.  A constant series has tau_int = 1/2.
    """
    arrays = [np.asarray(c, dtype=float) for c in chains if len(c)]
    if not arrays:
        raise ValueError("tau_int needs at least one nonempty chain")
    longest = max(len(a) for a in arrays)
    pooled = np.zeros(longest)
    for a in arrays:
        pooled[: len(a)] += _autocov_sums(a)
    if pooled[0] <= 0.0:
        return 0.5
    rho = pooled / pooled[0]
    taus = 0.5 + np.cumsum(rho[1:])  # taus[M - 1] = tau_int with window M
    lags = np.arange(1, longest)
    # centring makes the full lag sum vanish, so some window always qualifies
    first = np.argmax(lags >= WINDOW_C * taus)
    return float(taus[first])


def ess(chains: Sequence[Sequence[float]]) -> float:
    """Effective sample size N / (2 tau_int) over all chains."""
    total = sum(len(c) for c in chains)
    return total / (2.0 * tau_int(chains))
