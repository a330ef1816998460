"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --runs 10 --out .perfbench/summary.json
    python3 perfbench/collect.py --runs 5 --workloads tail-band --trace-runs 0

Each run is a separate `run.py` process with its own `--seed` (1, 2, ...).
For every workload and metric, the summary holds the values, their median
and quartiles (statistics.quantiles, n=4), and the quartile distance as a
share of the median.  It also records the host: nproc, CPU model, and the
Python and numpy versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 400


def host() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT, check=True,
    )
    *lines, last = out.stdout.strip().splitlines()
    print("\n".join(lines), flush=True)
    return json.loads(last)


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    entry = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / median if median else None)
    return entry


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    summary = {"host": host(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        entry = {"attempted": 0, "failed": 0}
        for trace, count in ((0, args.runs), (1, args.trace_runs)):
            values: dict[str, list[float]] = {}
            for seed in range(1, count + 1):
                result = run_once(workload, seed, args.seconds, trace)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(workload, f"trace={trace}", f"seed={seed}", result["correct"],
                      {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
            for name, series in values.items():
                entry[name] = summarise(series)
        summary["workloads"][workload] = entry
        for name, stats in entry.items():
            if isinstance(stats, dict) and stats.get("iqr_share") is not None:
                print(f"{workload} {name}: median {stats['median']:.6g} "
                      f"IQR/median {stats['iqr_share']:.4f}", flush=True)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
