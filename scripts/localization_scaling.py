#!/usr/bin/env python3
"""Desk-scale diameter scaling experiment.

Estimates E[diam C(0)] across a bandwidth grid at p = 1 and fits the
growth exponent alpha in E[diam] ~ W^alpha.  The proven localization scale
gives alpha <= 3; the conjectured scale is alpha = 2.  Each chain is run
twice, at the configured length and at half of it, and the drift between
the two estimates is reported as the chain-length adequacy diagnostic
(no mixing theory is available, so adequacy is empirical).

Usage: python scripts/localization_scaling.py [output_dir]
"""
import sys
import time
from pathlib import Path

from bandperm import (
    ModelParams,
    SamplerConfig,
    band_structure_stat,
    estimate_tail_curve,
    sample_cycle_observables,
    spawn_chain_seed,
)

BASE_SEED = 7001
W_GRID = (2, 3, 4, 6)
STEPS_PER_W = 4_000_000


def run_chain_curve(w: int, steps: int, seed_index: int):
    # n = 4 W^2 keeps the conjectured localization scale well inside the
    # interval while the local image-swap chain still mixes on a desk budget
    n = 4 * w * w
    params = ModelParams(p=1.0, W=w, n=n)
    config = SamplerConfig.with_defaults(
        params, seed=spawn_chain_seed(BASE_SEED, seed_index), steps=steps
    )
    diams = []
    sample_cycle_observables(params, config, 0, lambda r: diams.append(r.diam))
    grid = list(range(0, min(2 * n, 20 * w**3) + 1, max(1, w)))
    return estimate_tail_curve(diams, grid, params, 0)


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("bandperm_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["W,n,steps,mean_diam,mean_diam_stderr,half_steps_mean,drift"]
    means_by_w = {}
    for k, w in enumerate(W_GRID):
        steps = STEPS_PER_W * w
        t0 = time.perf_counter()
        full = run_chain_curve(w, steps, 2 * k)
        half = run_chain_curve(w, steps // 2, 2 * k + 1)
        drift = abs(full.mean_diam - half.mean_diam) / full.mean_diam
        means_by_w[w] = [full.mean_diam]
        rows.append(
            f"{w},{4 * w * w},{steps},{full.mean_diam!r},"
            f"{full.mean_diam_stderr!r},{half.mean_diam!r},{drift!r}"
        )
        print(
            f"W={w}: E[diam] = {full.mean_diam:.3f} +- {full.mean_diam_stderr:.3f} "
            f"(doubling drift {100 * drift:.1f}%, {time.perf_counter() - t0:.0f}s)"
        )
    fit = band_structure_stat(means_by_w)
    print(
        f"exponent alpha_hat = {fit.exponent_alpha_hat:.3f} "
        f"(R^2 = {fit.residual:.4f}); upper-bound consistency: "
        f"alpha_hat <= 3 is {fit.exponent_alpha_hat <= 3.0}"
    )
    (out_dir / "diameter_scaling.csv").write_text("\n".join(rows) + "\n")
    summary = (
        f"alpha_hat,{fit.exponent_alpha_hat!r}\nr_squared,{fit.residual!r}\n"
    )
    (out_dir / "diameter_scaling_fit.csv").write_text(summary)
    print(f"wrote {out_dir}/diameter_scaling.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
