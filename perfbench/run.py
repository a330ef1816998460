"""bandperm benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload tail-band --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from anywhere; bandperm is imported from the src directory next to this
one.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files (CLI artifacts,
span dumps) go to .perfbench/ at the repository root.
"""
from __future__ import annotations

import argparse
import ast
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 11
# The chains' wall_s is the time to this many effective samples.
ESS_TARGET = 1000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sampler.busy_s": "s",
    "sampler.steps_per_s": "1/s",
    "sampler.acceptance": "ratio",
    "sampler.us_per_retained": "us",
    "sampler.tau_int.diam": "samples",
    "sampler.tau_int.disp0": "samples",
    "analysis.busy_s": "s",
    "analysis.recurrence_checks": "count",
    "exact.busy_s": "s",
    "exact.perms": "count",
    "exact.perms_per_s": "1/s",
    "uncross.busy_s": "s",
    "uncross.checks": "count",
    "uncross.checks_per_s": "1/s",
    "core.calls.Permutation": "count",
    "core.calls.cycle_of": "count",
    "core.calls.energy": "count",
    "core.calls.swap_images": "count",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    **{f"{layer}.sloc": "lines" for layer in
       ("core", "exact", "sampler", "uncross", "analysis", "cli")},
    "trace.overhead_s": "s",
}

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
from pathlib import Path
workloads.WORKLOADS[sys.argv[2]].setup(int(sys.argv[3]), Path(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh interpreters of imports plus input construction."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE), name, str(seed), str(ROOT)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def run_for(workload, state, budget: float) -> list:
    """Whole operations, stopping before one that would end past the budget."""
    results = []
    start = perf_counter()
    while True:
        results.append(workload.op(state, len(results)))
        typical = statistics.median(r.wall for r in results)
        if perf_counter() - start + typical > budget:
            return results


def retained_per_s(results) -> float:
    """Retained samples per wall second of whole chain operations.

    The pace is the median over every STAMP_BLOCK-sample block of the run's
    sample streams, so a host slowdown of a few seconds moves it little; it
    is then divided by the median ratio of an operation's wall time to its
    stream's, which brings in burn-in, the tail curve and the fit.
    """
    pace = statistics.median(
        wl.STAMP_BLOCK / block for r in results for block in r.data["block_s"]
    )
    stretch = statistics.median(r.wall / r.data["stream_s"] for r in results)
    return pace / stretch


def chain_taus(results) -> tuple[float, float]:
    import ess

    return (
        ess.tau_int([r.data["diam"] for r in results]),
        ess.tau_int([r.data["disp0"] for r in results]),
    )


def end_to_end(workload, state, seed: int, seconds: float) -> tuple[list, list, dict]:
    setup_s = measure_setup(workload.name, seed)
    results = run_for(workload, state, seconds)
    if workload.uses_cli:
        # an exhaustive operation yields one exact result
        wall_s = statistics.median(r.wall for r in results)
        ess_per_s = 1.0 / wall_s
    else:
        rate = retained_per_s(results)
        taus = chain_taus(results)
        ess_per_s = rate / (2.0 * max(taus))
        wall_s = ESS_TARGET / ess_per_s
        print(f"{workload.name}: {len(results)} chains, {rate:.6g} retained/s, "
              f"tau_int diam {taus[0]:.4g}, disp0 {taus[1]:.4g}")
    return results, results, {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ess_per_s": ess_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sloc(path: Path) -> int:
    """Lines holding code: not blank, not a comment, not in a docstring."""
    source = path.read_text()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )


def per_layer(workload, state, seconds: float, trace_path: Path) -> tuple[list, list, dict]:
    """Untraced operations for half the budget, then the same ones traced.

    Returns every operation run, the traced ones (distinct chains for the
    run-level gate), and the metrics.
    """
    import spans

    plain = run_for(workload, state, seconds / 2)
    tracer = spans.Tracer()
    traced = []
    tracer.install()
    try:
        for index in range(len(plain)):
            tracer.op_id = index
            traced.append(workload.op(state, index))
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    ops = len(traced)
    busy, calls, items = tracer.busy, tracer.calls, tracer.items

    def total(key):
        return sum(r.data.get(key, 0) for r in traced)

    def rate(count, base):
        return count / base if base else 0.0

    metrics = {
        "sampler.busy_s": busy["sampler"] / ops,
        "sampler.steps_per_s": rate(total("steps"), busy["sampler"]),
        "sampler.acceptance": rate(total("accepted"), total("steps")),
        "sampler.us_per_retained": 1e6 * rate(busy["sampler"], total("retained")),
        "sampler.tau_int.diam": 0.0,
        "sampler.tau_int.disp0": 0.0,
        "analysis.busy_s": busy["analysis"] / ops,
        "analysis.recurrence_checks": calls["analysis.recurrence_check"] / ops,
        "exact.busy_s": busy["exact"] / ops,
        "exact.perms": items["exact"] / ops,
        "exact.perms_per_s": rate(items["exact"], busy["exact"]),
        "uncross.busy_s": busy["uncross"] / ops,
        "uncross.checks": total("checks") / ops,
        "uncross.checks_per_s": rate(total("checks"), busy["uncross"]),
        "core.calls.Permutation": calls["core.Permutation"] / ops,
        "core.calls.cycle_of": calls["core.cycle_of"] / ops,
        "core.calls.energy": calls["core.energy"] / ops,
        "core.calls.swap_images": calls["core.swap_images"] / ops,
        "cli.self_s": busy["cli"] / ops,
        "cli.artifact_bytes": total("artifact_bytes") / ops,
        "trace.overhead_s": (sum(r.wall for r in traced) - sum(r.wall for r in plain)) / ops,
    }
    if not workload.uses_cli:
        metrics["sampler.tau_int.diam"], metrics["sampler.tau_int.disp0"] = chain_taus(traced)
    for layer in ("core", "exact", "sampler", "uncross", "analysis", "cli"):
        metrics[f"{layer}.sloc"] = sloc(ROOT / "src" / "bandperm" / f"{layer}.py")
    return plain + traced, traced, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = wl.WORKLOADS[name]
    state = workload.setup(seed, ROOT)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    if trace:
        path = scratch / f"spans-{name}-seed{seed}.jsonl"
        results, distinct, values = per_layer(workload, state, seconds, path)
        units = PER_LAYER
    else:
        results, distinct, values = end_to_end(workload, state, seed, seconds)
        units = END_TO_END
    failed = sum(1 for r in results if r.failures)
    run_failures = workload.check_run(distinct)
    if run_failures:
        failed = len(results)
    for r in results:
        for message in r.failures:
            print(f"{name}: FAIL {message}", file=sys.stderr)
    for message in run_failures:
        print(f"{name}: FAIL {message}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for key, metric in metrics.items():
        print(f"{name:10s} {key:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{name:10s} {'fail_rate':28s} {failed / len(results):.6g} ratio")
    return len(results), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        wl.import_bandperm(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        runs = [(name, t) for name in wl.WORKLOADS for t in traces]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics = {}
    for name, trace in runs:
        a, f, m = run_workload(name, args.seed, args.seconds, trace)
        attempted += a
        failed += f
        metrics.update(m if len(runs) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
