#!/usr/bin/env python3
"""Empirical probe of uncrossing preimage sizes.

The proven bound on the size of an uncrossing fiber is W^2; the heuristic
(orbits near their maximum behave like random walks, which spend O(1) steps
there) suggests the typical size is O(W).  This script samples band
permutations and measures, for each sample tau, the fiber of the uncrossing
map at the adaptive threshold t = max C(0), the level at which tau sits at
the edge of the map's image band and its fiber can be largest.  A fixed-t
run of the stock statistics is reported alongside.  Exploratory output, no
pass/fail.

Usage: python scripts/preimage_probe.py [output_dir]
"""
import sys
from pathlib import Path

import numpy as np

from bandperm import (
    INFINITY,
    ModelParams,
    Permutation,
    SamplerConfig,
    cycle_of,
    preimage_size_stats,
    run_chain,
    spawn_chain_seed,
)

BASE_SEED = 9001
W_GRID = (2, 4, 8)
SAMPLES_PER_W = 400


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("bandperm_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["W,samples,median,q90,max,mean,w_scale,w_squared_scale"]
    for k, w in enumerate(W_GRID):
        n = 4 * w * w
        params = ModelParams(p=INFINITY, W=w, n=n)
        taus: list[Permutation] = []
        config = SamplerConfig.with_defaults(
            params,
            seed=spawn_chain_seed(BASE_SEED, k),
            steps=SAMPLES_PER_W * (2 * n + 1) * 40,
            thinning=(2 * n + 1) * 40,
        )
        run_chain(params, config, taus.append)
        by_top: dict[int, list[Permutation]] = {}
        for tau in taus:
            top = cycle_of(tau, 0).max
            if top + w <= n:  # threshold must leave room inside the interval
                by_top.setdefault(top, []).append(tau)
        # one kernel call per distinct threshold; every tau of a group is
        # admissible at its own max C(0), and the statistics below depend
        # only on the multiset of sizes
        hists = [
            preimage_size_stats(params, top, group).histogram for top, group in by_top.items()
        ]
        arr = np.concatenate([np.repeat(list(h), list(h.values())) for h in hists]).astype(float)
        rows.append(
            f"{w},{len(arr)},{float(np.quantile(arr, 0.5))!r},"
            f"{float(np.quantile(arr, 0.9))!r},{int(arr.max())},"
            f"{float(arr.mean())!r},{w},{w * w}"
        )
        print(
            f"W={w}: {len(arr)} samples at adaptive t = maxC(0); fiber size "
            f"median {np.quantile(arr, 0.5):.1f}, q90 {np.quantile(arr, 0.9):.1f}, "
            f"max {int(arr.max())}, mean {arr.mean():.2f} "
            f"(scales: W = {w}, W^2 = {w * w})"
        )
        fixed = preimage_size_stats(params, 2 * w, taus)
        print(
            f"  fixed t = 2W: {fixed.count} admissible, median {fixed.median:.1f}, "
            f"q90 {fixed.q90:.1f}, max {fixed.max_size}"
        )
    (out_dir / "preimage_sizes.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir}/preimage_sizes.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
