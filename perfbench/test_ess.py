"""The benchmark's tau_int estimator against series of known tau_int.

Run with: python3 -m pytest perfbench/test_ess.py
"""
import numpy as np
import pytest

from ess import ess, tau_int


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)  # start in stationarity
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def ar1_tau(phi: float) -> float:
    # rho(t) = phi^t, so 1/2 + sum_{t>=1} phi^t = (1 + phi) / (2 (1 - phi))
    return (1.0 + phi) / (2.0 * (1.0 - phi))


@pytest.mark.parametrize("phi", [0.5, 0.9, 0.98])
def test_ar1_single_chain(phi):
    # relative sd of the estimate is about sqrt(2 (2M + 1) / N) <= 0.05 here
    est = tau_int([ar1(phi, 400_000, seed=11)])
    assert est == pytest.approx(ar1_tau(phi), rel=0.15)


def test_ar1_pooled_chains_match_one_long_chain():
    phi = 0.9
    chains = [ar1(phi, 50_000, seed=s) for s in range(8)]
    assert tau_int(chains) == pytest.approx(ar1_tau(phi), rel=0.15)
    assert ess(chains) == pytest.approx(400_000 / (2 * tau_int(chains)))


def test_white_noise_has_tau_one_half():
    x = np.random.default_rng(3).standard_normal(100_000)
    assert tau_int([x]) == pytest.approx(0.5, abs=0.03)
    assert ess([x]) == pytest.approx(100_000, rel=0.06)


def test_constant_series():
    assert tau_int([[2.0] * 100]) == 0.5

