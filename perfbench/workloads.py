"""The three benchmark workloads: inputs, one operation, correctness gates.

Workload choice (see README.md in this directory for the metric map):

- tail-band: the criterion 8 / README tail pipeline at p=inf, W=2, n=200.
  Sampler-bound, integer band test, ~99.4 % of proposals rejected.
- certify: two exhaustive uncrossing certificates through the CLI; uncross,
  core and the enumerator work while the sampler is idle.
- oracle: the exact oracles and the recurrence checker through the CLI,
  which no other workload runs.

This module imports only the standard library at load time, so the set-up
timer in run.py sees bandperm's own import cost.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Relative tolerance for exact-oracle floats against the recorded values.
ORACLE_RTOL = 1e-12
# Bisection tolerance of analysis.largest_propagating_c0.
C0_TOL = 1e-3
# Pooled chain means must lie within this many combined standard errors.
MEAN_Z = 5.0
# Retained samples per timed block of a chain's sample stream.
STAMP_BLOCK = 500


def import_bandperm(root: Path):
    """Import bandperm from the checkout's src, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "bandperm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bandperm sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import bandperm
    import bandperm.cli  # noqa: F401  (cli is not imported by the package)

    if Path(bandperm.__file__).resolve().parent != src / "bandperm":
        raise ImportError(f"bandperm resolved to {bandperm.__file__}, not {src}")
    return bandperm


@dataclass
class OpResult:
    wall: float
    failures: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Chain workloads
# ---------------------------------------------------------------------------


class ChainWorkload:
    """sample_cycle_observables -> estimate_tail_curve -> fit_exponential_decay."""

    uses_cli = False

    def __init__(self, name: str, p: float, W: int, n: int, steps: int) -> None:
        self.name, self.p, self.W, self.n, self.steps = name, p, W, n, steps

    def setup(self, seed: int, root: Path) -> dict:
        bp = import_bandperm(root)
        return {
            "bp": bp,
            "seed": seed,
            "params": bp.ModelParams(p=self.p, W=self.W, n=self.n),
            "grid": list(range(0, 21)),
        }

    def op(self, state: dict, index: int) -> OpResult:
        bp = state["bp"]
        params = state["params"]
        config = bp.SamplerConfig.with_defaults(
            params,
            seed=bp.sampler.spawn_chain_seed(state["seed"], index),
            steps=self.steps,
        )
        diams: list[int] = []
        disp0: list[int] = []
        stamps: list[float] = []
        clock = perf_counter

        def observe(rec) -> None:
            diams.append(rec.diam)
            disp0.append(rec.displacement0)
            stamps.append(clock())

        failures = []
        fit = None
        start = perf_counter()
        summary = bp.sampler.sample_cycle_observables(params, config, 0, observe)
        curve = bp.analysis.estimate_tail_curve(diams, state["grid"], params, 0)
        try:
            fit = bp.analysis.fit_exponential_decay(curve)
        except bp.analysis.UnfittableError as exc:
            failures.append(f"decay fit: {exc}")
        wall = perf_counter() - start

        failures += self._check(summary, curve, fit)
        return OpResult(wall, failures, {
            "diam": diams,
            "disp0": disp0,
            # the sample stream's pace, robust to short host slowdowns
            "block_s": [
                stamps[i + STAMP_BLOCK] - stamps[i]
                for i in range(0, len(stamps) - STAMP_BLOCK, STAMP_BLOCK)
            ],
            "stream_s": stamps[-1] - stamps[0],
            "retained": summary.retained_samples,
            "steps": config.steps,
            "accepted": summary.acceptance_rate * config.steps,
        })

    def _check(self, summary, curve, fit) -> list[str]:
        n, W = self.n, self.W
        failures = []
        image = list(summary.final_state.image)
        if sorted(image) != list(range(-n, n + 1)):
            failures.append("final state is not a bijection of [-n, n]")
        if math.isinf(self.p) and any(
            abs(v - (k - n)) > W for k, v in enumerate(image)
        ):
            failures.append("final state leaves the band S_W")
        survival = [pt.survival for pt in curve.points]
        if curve.points[0].lam != 0 or survival[0] != 1.0:
            failures.append("survival(0) != 1")
        if any(b > a for a, b in zip(survival, survival[1:])):
            failures.append("survival increases in lambda")
        if fit is not None and not math.isfinite(fit.decay_rate_c_hat):
            failures.append("decay rate is not finite")
        return failures

    def check_run(self, results: list[OpResult]) -> list[str]:
        """Pooled means against the recorded long reference run."""
        ref = json.loads(REFERENCE_FILE.read_text())["chains"][self.name]
        failures = []
        for key in ("diam", "disp0"):
            mean, se = pooled_mean_se([r.data[key] for r in results])
            ref_mean, ref_se = ref[key]["mean"], ref[key]["se"]
            bound = MEAN_Z * math.hypot(se, ref_se)
            if abs(mean - ref_mean) > bound:
                failures.append(
                    f"{key}: pooled mean {mean:.4f} is off the reference "
                    f"{ref_mean:.4f} by more than {MEAN_Z} combined SE ({bound:.4f})"
                )
        return failures


def pooled_mean_se(chains: list[list[int]]) -> tuple[float, float]:
    """Mean over all chains and its ESS-based standard error."""
    import numpy as np

    import ess

    values = np.concatenate([np.asarray(c, dtype=float) for c in chains])
    return float(values.mean()), float(values.std() / math.sqrt(ess.ess(chains)))


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """A fixed list of bandperm.cli.main invocations, each in a fresh
    output directory inside the checkout."""

    uses_cli = True

    def __init__(self, name: str, commands: list[list[str]]) -> None:
        self.name, self.commands = name, commands

    def setup(self, seed: int, root: Path) -> dict:
        return {"bp": import_bandperm(root), "scratch": root / ".perfbench"}

    def op(self, state: dict, index: int) -> OpResult:
        cli = state["bp"].cli
        state["scratch"].mkdir(exist_ok=True)
        dirs = [
            Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=state["scratch"]))
            for _ in self.commands
        ]
        errors = io.StringIO()
        try:
            start = perf_counter()
            with contextlib.redirect_stdout(errors):
                codes = self.run_commands(cli, dirs)
            wall = perf_counter() - start
            failures = [
                f"{' '.join(argv)}: exit code {code}"
                for argv, code in zip(self.commands, codes)
                if code != 0
            ]
            data = {
                "artifact_bytes": sum(
                    f.stat().st_size for d in dirs for f in d.iterdir()
                )
            }
            if not failures:
                try:
                    failures += self.check(dirs, data)
                except (OSError, ValueError, KeyError) as exc:  # missing or malformed artifact
                    failures.append(f"artifacts: {type(exc).__name__}: {exc}")
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
        if errors.getvalue():
            sys.stderr.write(errors.getvalue())
        return OpResult(wall, failures, data)

    def run_commands(self, cli, dirs: list[Path]) -> list[int]:
        """Exit code of each command, run with its own output directory."""
        return [
            _exit_code(cli.main, argv + ["--output-dir", str(out)])
            for argv, out in zip(self.commands, dirs)
        ]

    def check(self, dirs: list[Path], data: dict) -> list[str]:
        raise NotImplementedError

    def check_run(self, results: list[OpResult]) -> list[str]:
        return []


def _exit_code(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash
        print(f"{' '.join(argv)}: uncaught exception", file=sys.stderr)
        traceback.print_exc()
        return 1


class CertifyWorkload(CliWorkload):
    def check(self, dirs: list[Path], data: dict) -> list[str]:
        ref = json.loads(REFERENCE_FILE.read_text())["certify"]
        failures = []
        totals: dict[str, int] = {}
        for out, expected in zip(dirs, ref["certificates"]):
            path = out / expected["file"]
            raw = path.read_bytes()
            cert = json.loads(raw)
            if cert.get("violations_total") != 0:
                failures.append(f"{path.name}: violations_total = {cert.get('violations_total')}")
            if hashlib.sha256(raw).hexdigest() != expected["sha256"]:
                failures.append(f"{path.name}: differs from the recorded certificate")
            for key, count in cert.get("counts", {}).items():
                totals[key] = totals.get(key, 0) + count
        # one_step_membership admits no instance at n = 3 for any lambda, so
        # the zero-count gate applies to the counts summed over the operation
        for key in ref["properties"]:
            if totals.get(key, 0) == 0:
                failures.append(f"certificate property {key} checked zero instances")
        data["checks"] = sum(totals.values())
        return failures


class OracleWorkload(CliWorkload):
    def check(self, dirs: list[Path], data: dict) -> list[str]:
        ref = json.loads(REFERENCE_FILE.read_text())["oracle"]
        failures = []
        exact_dirs, recurrence_dir = dirs[:-1], dirs[-1]
        for out, expected in zip(exact_dirs, ref["exact"]):
            tag = expected["tag"]
            rows = _csv_rows(out / f"exact_tail_{tag}.csv")
            got = [(int(r["lambda"]), float(r["tail_probability"])) for r in rows]
            want = [tuple(x) for x in expected["tail"]]
            if [lam for lam, _ in got] != [lam for lam, _ in want]:
                failures.append(f"{tag}: lambda grid differs")
            for (lam, a), (_, b) in zip(got, want):
                if not _close(a, b):
                    failures.append(f"{tag}: P(diam >= {lam}) = {a!r}, recorded {b!r}")
            summary = json.loads((out / f"exact_summary_{tag}.json").read_text())
            if not _close(summary["partition_value"], expected["partition_value"]):
                failures.append(f"{tag}: partition value {summary['partition_value']!r}")
            if summary["support_size"] != expected["support_size"]:
                failures.append(f"{tag}: support size {summary['support_size']}")
        rows = _csv_rows(recurrence_dir / ref["recurrence"]["file"])
        want_rows = ref["recurrence"]["rows"]
        if [int(r["W"]) for r in rows] != [w["W"] for w in want_rows]:
            failures.append("recurrence: W list differs")
        for r, w in zip(rows, want_rows):
            if r["propagated"] != str(w["propagated"]):
                failures.append(f"recurrence W={w['W']}: propagated = {r['propagated']}")
            if abs(float(r["c0"]) - w["c0"]) > C0_TOL:
                failures.append(f"recurrence W={w['W']}: c0 = {r['c0']}, recorded {w['c0']}")
        return failures


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_RTOL * abs(b)


WORKLOADS = {
    w.name: w
    for w in (
        ChainWorkload("tail-band", math.inf, 2, 200, steps=10_000_000),
        CertifyWorkload("certify", [
            ["uncross-verify", "--n", "3", "--W-list", "1,2", "--p-list", "inf,1,2"],
            ["uncross-verify", "--n", "5", "--W-list", "1,2,3", "--p-list", "inf"],
        ]),
        OracleWorkload("oracle", [
            ["exact", "--p", "1", "--W", "2", "--n", "4"],
            ["exact", "--p", "inf", "--W", "3", "--n", "6"],
            ["recurrence", "--p", "1", "--W-list", "1:8", "--C0", "1.0"],
        ]),
    )
}
