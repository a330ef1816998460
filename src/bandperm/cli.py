"""Command-line entry point: reproducible runs with CSV/JSON artifacts.

Subcommands: exact, sample, tail, uncross-verify, sweep, recurrence.
Each command's configuration keys live in one table of :class:`Option`
entries (parser, default, help); the flags are derived from it.
Configuration comes from an optional JSON file plus command-line flags,
flags winning; both go through the same parsers.  The fully resolved
configuration is echoed into a manifest next to every artifact.  Each
command body returns its files as text, and :func:`run` alone writes them
and then the manifest.  Reruns with identical configuration and seed
produce byte-identical files: nothing time- or host-dependent is ever
written.

Exit codes: 0 success, 1 no data (too few samples to estimate or fit),
2 configuration error (including any malformed flag), 3 capacity error,
4 verification failure (the invariant suite found a violation).  Exits 1,
2 and 3 write no artifact and no manifest; exit 4 writes the certificate
and the manifest first.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from .core import INFINITY, ModelParams, Permutation, UnsupportedExponentError
from .exact import CapacityError, exact_tail_and_partition
from .sampler import (
    InitialState,
    SamplerConfig,
    sample_cycle_observables,
    spawn_chain_seed,
)
from .analysis import (
    NoDataError,
    TailCurve,
    UnfittableError,
    estimate_tail_curve,
    fit_exponential_decay,
    recurrence_check,
    _largest_propagating,
)
from .uncross import check_power, run_verification

FORMAT_VERSION = "1"
OUTPUT_DIR_ENV = "BANDPERM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_NO_DATA = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VERIFICATION = 4

# Chain seeds feed numpy's PCG64, which takes a 64-bit unsigned integer.
SEED_LIMIT = 2**64

# Largest interval size 2n+1 a chain may hold (sample, tail, every sweep
# job); the chain keeps its state and cost table as lists of this length.
CHAIN_INTERVAL_CAP = 1_000_001

# Largest k_max = k_max_factor * W^3 the recurrence checker may allocate
# for; each check holds several float arrays of this length.
RECURRENCE_K_MAX_CAP = 1_000_000

# Most points a start:stop[:step] range may expand to, and most jobs a
# sweep may hold; a chain's lambda grid is only informative up to 2n, and
# every point or job is evaluated and written out.
INT_RANGE_CAP = 100_000

# Default bound on a sweep's process pool.  A constant, because the
# manifest echoes it; the pool also never exceeds the job or CPU count.
DEFAULT_MAX_WORKERS = 4


class ConfigurationError(ValueError):
    """A configuration key is unknown, ill-typed or violates a constraint."""


@dataclass
class RunConfig:
    """Fully resolved configuration of one run."""

    command: str
    output_dir: Path
    values: dict = field(default_factory=dict)

    def manifest_dict(self) -> dict:
        def sanitize(val):
            # infinite p must round-trip through strict JSON
            if isinstance(val, float) and math.isinf(val):
                return "inf"
            if isinstance(val, dict):
                return {k: sanitize(v) for k, v in sorted(val.items())}
            if isinstance(val, (list, tuple)):
                return [sanitize(v) for v in val]
            return val

        return {
            "format_version": FORMAT_VERSION,
            "command": self.command,
            "output_dir": str(self.output_dir),
            "config": {k: sanitize(v) for k, v in sorted(self.values.items())},
        }


# ---------------------------------------------------------------------------
# Value parsers: parse(key, raw) -> value, raising ConfigurationError that
# names the key.  raw is a flag string or any JSON value from a config file.
# ---------------------------------------------------------------------------


def _parse_str(key: str, raw) -> str:
    if not isinstance(raw, str):
        raise ConfigurationError(f"{key}: expected a string, got {raw!r}")
    return raw


def _to_float(key: str, raw) -> float:
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigurationError(f"{key}: expected a number, got {raw!r}")


def _parse_p(key: str, raw) -> float:
    p = _to_float(key, raw)  # float() reads 'inf' and 'infinity' in any case
    if not p >= 1:
        raise ConfigurationError(f"{key}: must be >= 1 or 'inf', got {raw!r}")
    return p


def _parse_float(key: str, raw, lo: Optional[float] = None) -> float:
    val = _to_float(key, raw)
    if not math.isfinite(val):
        raise ConfigurationError(f"{key}: must be finite, got {raw!r}")
    if lo is not None and val < lo:
        raise ConfigurationError(f"{key}: must be >= {lo}, got {val}")
    return val


def _parse_int(key: str, raw, lo: Optional[int] = None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        try:
            raw = int(str(raw))
        except ValueError:
            raise ConfigurationError(f"{key}: expected an integer, got {raw!r}")
    if lo is not None and raw < lo:
        raise ConfigurationError(f"{key}: must be >= {lo}, got {raw}")
    return raw


def _parse_seed(key: str, raw) -> int:
    seed = _parse_int(key, raw, lo=0)
    if seed >= SEED_LIMIT:
        raise ConfigurationError(f"{key}: must be below 2^64, got {seed}")
    return seed


def _parse_list(key: str, raw, item: Callable, ranges: bool = False) -> list:
    """A nonempty list, or a string 'a,b,c' (or 'start:stop[:step]' if ranges)."""
    if isinstance(raw, str) and ranges and ":" in raw:
        pieces = raw.split(":")
        if len(pieces) not in (2, 3):
            raise ConfigurationError(f"{key}: range syntax is start:stop[:step]")
        start, stop = _parse_int(key, pieces[0]), _parse_int(key, pieces[1])
        step = _parse_int(f"{key} step", pieces[2], lo=1) if len(pieces) == 3 else 1
        points = max(0, (stop - start) // step + 1)
        if points > INT_RANGE_CAP:
            raise ConfigurationError(
                f"{key}: range {raw} has {points} points, above the cap {INT_RANGE_CAP}"
            )
        raw = list(range(start, stop + 1, step))
    elif isinstance(raw, str):
        raw = [tok for tok in raw.split(",") if tok.strip()]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigurationError(f"{key}: expected a nonempty list, got {raw!r}")
    return [item(key, v) for v in raw]


def _parse_int_list(key: str, raw, lo: Optional[int] = None) -> list[int]:
    return _parse_list(key, raw, partial(_parse_int, lo=lo), ranges=True)


_STATES = [s.value for s in InitialState]


def _parse_state(key: str, raw) -> str:
    if raw not in _STATES:
        raise ConfigurationError(f"{key}: expected one of {_STATES}, got {raw!r}")
    return raw


def _parse_jobs(key: str, raw) -> list[dict]:
    """Explicit sweep jobs, each parsed against the _JOB table; a job
    without p takes the sweep's p at check time."""
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(f"{key}: expected a nonempty list of job objects")
    if len(raw) > INT_RANGE_CAP:
        raise ConfigurationError(f"{key}: {len(raw)} jobs, above the cap {INT_RANGE_CAP}")
    jobs = []
    for k, job in enumerate(raw):
        name = f"{key}[{k}]"
        if not isinstance(job, dict):
            raise ConfigurationError(f"{name}: expected an object")
        jobs.append(_parse_options(_JOB, (job,), f"{name}.", f"in {name}")[0])
    return jobs


def default_lambda_grid(n: int, W: int) -> list[int]:
    """lambda in {0 .. min(2n, 20 W^3)}, stepped down to at most 64 points."""
    top = min(2 * n, 20 * W**3)
    step = -(-(top + 1) // 64)  # integer ceiling: exact for any n and W
    return list(range(0, top + 1, step))


# ---------------------------------------------------------------------------
# Option tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """One configuration key.  Its flag is --key with '_' written '-';
    flag=False keys come only from a config file.  The default goes through
    the parser like a given value; a None default leaves the key unset."""

    key: str
    parse: Callable
    default: object = None
    help: str = ""
    flag: bool = True


_POS = partial(_parse_int, lo=1)
_NONNEG = partial(_parse_int, lo=0)
_SIZES = partial(_parse_int_list, lo=1)  # W_list, n_list
_COMMON = (
    Option(
        "output_dir", _parse_str, None,
        f"artifact directory (default ${OUTPUT_DIR_ENV}, else bandperm_out)",
    ),
)
_J = Option("j", _parse_int, 0, "base point of the cycle")
_GRID = Option(
    "lambda_grid", partial(_parse_int_list, lo=0), None,
    "lambda values 'a,b,c' or 'start:stop[:step]' (default: up to min(2n, 20 W^3))",
)
_MODEL = _COMMON + (
    Option("p", _parse_p, "inf", "exponent >= 1 or 'inf'"),
    Option("W", _POS, 1, "bandwidth"),
    Option("n", _POS, 1, "half-length of the interval [-n, n]"),
    _J,
    _GRID,
)
_CHAIN = (
    Option("seed", _parse_seed, 1, "chain seed, below 2^64"),
    Option("steps", _NONNEG, 100_000, "Metropolis steps"),
    Option("burn_in", _NONNEG, None, "steps discarded first (default min(10(2n+1)W, steps))"),
    Option("thinning", _POS, None, "keep every k-th state (default 2n+1)"),
    Option("initial_state", _parse_state, "identity", f"one of {_STATES}"),
)
_SWEEP = _COMMON + _CHAIN + (
    Option("p", _parse_p, None, "exponent >= 1 or 'inf' (default inf)"),
    Option("W_list", _SIZES, "1", "bandwidths of the job grid"),
    Option("n_list", _SIZES, "50", "half-lengths of the job grid"),
    Option(
        "seeds", partial(_parse_list, item=_parse_seed, ranges=True), None,
        "job seeds (default one job per (W, n), its seed spawned from --seed)",
    ),
    Option("jobs", _parse_jobs, None, "explicit [{p, W, n, seed}] jobs", flag=False),
    _J,
    _GRID,
    Option("max_workers", _POS, DEFAULT_MAX_WORKERS, "process pool bound"),
)
_JOB = (
    Option("p", _parse_p),
    Option("W", _POS, 1),
    Option("n", _POS, 1),
    Option("seed", _parse_seed),
)
_UNCROSS = _COMMON + (
    Option("n", _POS, 3, "half-length of the interval [-n, n]"),
    Option("W_list", _SIZES, "1,2", "bandwidths"),
    Option("p_list", partial(_parse_list, item=_parse_p), "inf", "exponents"),
    _GRID,
)
_RECURRENCE = _COMMON + (
    Option("p", _parse_p, 1, "finite exponent >= 1"),
    Option("W_list", _SIZES, "1:8", "bandwidths"),
    Option("C0", _parse_float, 1.0, "constant of the one-step bound, > 0"),
    Option(
        "c0", partial(_parse_float, lo=0.0), None,
        "decay coefficient to check (default: the largest that propagates)",
    ),
    Option("k_max_factor", _POS, 50, "check k < k_max_factor * W^3"),
)


# ---------------------------------------------------------------------------
# Cross-key checks, run after every key is parsed, then the capacity checks,
# so no command body runs (nor creates output_dir) on an instance over a cap.
# given holds the keys a config file or flag supplied.
# ---------------------------------------------------------------------------


def _check_j(v: dict, given: set) -> None:
    if not -v["n"] <= v["j"] <= v["n"]:
        raise ConfigurationError(f"j: must lie in [-{v['n']}, {v['n']}], got {v['j']}")


def _check_chain_capacity(ns) -> None:
    m = 2 * max(ns) + 1
    if m > CHAIN_INTERVAL_CAP:
        raise CapacityError(
            f"interval size 2n+1 = {m} exceeds the chain cap {CHAIN_INTERVAL_CAP}"
        )


def _check_chain(v: dict, given: set) -> None:
    if v.get("burn_in", 0) > v["steps"]:
        raise ConfigurationError(
            f"burn_in: must not exceed steps, got {v['burn_in']} > {v['steps']}"
        )
    if "n" in v:  # one chain (sample, tail); sweep jobs resolve at job time
        _check_j(v, given)
        # resolve the sampler's defaults here so the manifest is complete
        cfg = _sampler_config(v, ModelParams(p=v["p"], W=v["W"], n=v["n"]), v["seed"])
        v["burn_in"], v["thinning"] = cfg.burn_in, cfg.thinning
        _check_chain_capacity([v["n"]])


def _check_sweep(v: dict, given: set) -> None:
    """Expand W_list x n_list x seeds (or take the explicit jobs) into v['jobs'];
    j must lie in every job's interval."""
    _check_chain(v, given)
    w_list, n_list, seeds = (v.pop(k, [None]) for k in ("W_list", "n_list", "seeds"))
    if "jobs" in given:
        clash = sorted(given & {"W_list", "n_list", "seeds"})
        if clash:
            raise ConfigurationError(f"configuration keys {clash} are not used with 'jobs'")
        for job in v["jobs"]:
            job.setdefault("p", v.get("p", INFINITY))
    else:
        size = len(w_list) * len(n_list) * len(seeds)
        if size > INT_RANGE_CAP:
            raise ConfigurationError(
                f"W_list, n_list, seeds: the job grid has {size} jobs, "
                f"above the cap {INT_RANGE_CAP}"
            )
        p = v.setdefault("p", INFINITY)
        v["jobs"] = [
            {"p": p, "W": w, "n": n, "seed": s} for w in w_list for n in n_list for s in seeds
        ]
    _check_j({"j": v["j"], "n": min(job["n"] for job in v["jobs"])}, given)
    _check_chain_capacity(job["n"] for job in v["jobs"])


def _check_uncross(v: dict, given: set) -> None:
    for p in v["p_list"]:
        try:
            check_power(v["n"], p)
        except UnsupportedExponentError as exc:
            raise ConfigurationError(f"p_list: {exc}")


def _check_recurrence(v: dict, given: set) -> None:
    if math.isinf(v["p"]):
        raise ConfigurationError("p: recurrence checking needs finite p")
    if v["C0"] <= 0:
        raise ConfigurationError(f"C0: must be positive, got {v['C0']}")
    k_max = max(v["k_max_factor"] * W**3 for W in v["W_list"])
    if k_max > RECURRENCE_K_MAX_CAP:
        raise CapacityError(
            f"k_max = k_max_factor * W^3 = {k_max} exceeds the recurrence cap "
            f"{RECURRENCE_K_MAX_CAP}"
        )


def _parse_options(options, sources, prefix: str, where: str) -> tuple[dict, set]:
    """Merge sources, later ones winning, and parse every key of options.

    A None value leaves its key unset, and an unknown key is an error that
    names where it was given.  A key no source sets takes its default.
    Parse errors name the key as prefix + key.  Returns the parsed values
    and the keys the sources set.
    """
    table = {opt.key: opt for opt in options}
    merged: dict = {}
    for source in sources:
        for key, val in source.items():
            if val is None:
                continue
            if key not in table:
                raise ConfigurationError(f"unknown configuration key {key!r} {where}")
            merged[key] = val
    values = {}
    for key, opt in table.items():
        raw = merged.get(key, opt.default)
        if raw is not None:
            values[key] = opt.parse(prefix + key, raw)
    return values, set(merged)


def parse_config(
    command: str,
    file_values: Optional[dict] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Merge config-file values and flag overrides into a RunConfig.

    Flags win over file values; defaults fill the rest.  Unknown keys and
    constraint violations raise ConfigurationError naming the key; a chain
    or recurrence instance over its cap raises CapacityError.
    """
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    spec = COMMANDS[command]
    values, given = _parse_options(
        spec.options, (file_values or {}, overrides or {}), "", f"for command {command!r}"
    )
    out_dir = values.pop("output_dir", "") or os.environ.get(OUTPUT_DIR_ENV, "bandperm_out")
    if spec.check is not None:
        spec.check(values, given)
    return RunConfig(command=command, output_dir=Path(out_dir), values=values)


# ---------------------------------------------------------------------------
# Artifact texts.  A command body returns its files as Artifacts; run alone
# writes them, then the manifest, so a body that raises leaves no file.
# ---------------------------------------------------------------------------

Artifacts = dict[str, str]  # file name -> text


class VerificationFailure(Exception):
    """The invariant suite found violations.  Carries the artifacts, which
    run writes before it prints the message to stderr and exits 4."""

    def __init__(self, artifacts: Artifacts, violations: int) -> None:
        super().__init__(json.dumps({"error": "verification", "violations": violations}))
        self.artifacts = artifacts


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: Path, text: str) -> None:
    """Write a temporary file beside path, then rename it onto path, so a
    reader never sees a partial artifact and a failed write leaves none."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv(header: str, rows) -> str:
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _curve(curve: TailCurve) -> str:
    rows = ((pt.lam, pt.survival, pt.stderr, pt.count) for pt in curve.points)
    return _csv("lambda,survival,stderr,count", rows)


def _p_token(p: float) -> str:
    if math.isinf(p):
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return str(p).replace(".", "_")


# ---------------------------------------------------------------------------
# Command implementations: each maps the resolved values to its Artifacts
# ---------------------------------------------------------------------------


def _cmd_exact(v: dict) -> Artifacts:
    params = ModelParams(p=v["p"], W=v["W"], n=v["n"])
    grid = v.get("lambda_grid") or default_lambda_grid(params.n, params.W)
    tag = f"p{_p_token(params.p)}_W{params.W}_n{params.n}"
    curve, partition_value, support_size = exact_tail_and_partition(params, v["j"], grid)
    summary = {
        "format_version": FORMAT_VERSION,
        "partition_value": partition_value,
        "support_size": support_size,
        "j": v["j"],
    }
    return {
        f"exact_tail_{tag}.csv": _csv("lambda,tail_probability", curve),
        f"exact_summary_{tag}.json": _json(summary),
    }


def _sampler_config(v: dict, params: ModelParams, seed: int) -> SamplerConfig:
    return SamplerConfig.with_defaults(
        params,
        seed=seed,
        steps=v["steps"],
        burn_in=v.get("burn_in"),
        thinning=v.get("thinning"),
        initial_state=InitialState(v["initial_state"]),
    )


def _chain(v: dict, job: dict) -> tuple[ModelParams, str, list[tuple], dict, Permutation]:
    """One chain of the job's (p, W, n, seed) under the run's values v.

    Returns its params, artifact tag, one (step_index, diam, displacement0,
    maxC0, minC0) row per retained sample, the summary fields every chain
    artifact shares, and the final state.
    """
    params = ModelParams(p=job["p"], W=job["W"], n=job["n"])
    sampler_cfg = _sampler_config(v, params, job["seed"])
    rows: list[tuple] = []
    summary = sample_cycle_observables(
        params,
        sampler_cfg,
        v["j"],
        lambda rec: rows.append(
            (rec.step_index, rec.diam, rec.displacement0, rec.max_c0, rec.min_c0)
        ),
    )
    tag = f"p{_p_token(params.p)}_W{params.W}_n{params.n}_seed{job['seed']}"
    fields = {
        "format_version": FORMAT_VERSION,
        "acceptance_rate": summary.acceptance_rate,
        "retained_samples": summary.retained_samples,
        "burn_in": sampler_cfg.burn_in,
        "thinning": sampler_cfg.thinning,
    }
    return params, tag, rows, fields, summary.final_state


def _cmd_sample(v: dict) -> Artifacts:
    params, tag, rows, fields, final_state = _chain(v, v)
    artifacts = {
        f"samples_{tag}.csv": _csv("step_index,diam,displacement0,maxC0,minC0", rows),
        f"sample_summary_{tag}.json": _json({**fields, "final_state": final_state.to_list()}),
    }
    if v.get("lambda_grid") and rows:
        curve = estimate_tail_curve([r[1] for r in rows], v["lambda_grid"], params, v["j"])
        artifacts[f"tail_{tag}.csv"] = _curve(curve)
    return artifacts


def _tail_job(v: dict, job: dict) -> tuple[tuple, Artifacts]:
    """One tail job for a single (p, W, n, seed): a chain, its survival curve
    and decay fit.  Returns the job's sweep_fits.csv row and its tail_*.csv
    and tail_fit_*.json artifacts."""
    params, tag, rows, fields, _ = _chain(v, job)
    grid = v.get("lambda_grid") or default_lambda_grid(params.n, params.W)
    diams = [r[1] for r in rows]
    curve = estimate_tail_curve(diams, grid, params, v["j"])  # NoDataError if empty
    mean_disp0 = sum(r[2] for r in rows) / len(rows)
    fit_payload = {
        **fields,
        "mean_diam": curve.mean_diam,
        "mean_diam_stderr": curve.mean_diam_stderr,
        "mean_displacement0": mean_disp0,
    }
    try:
        fit = fit_exponential_decay(curve)
        fit_payload["decay_rate"] = fit.decay_rate_c_hat
        fit_payload["r_squared"] = fit.residual
        fit_payload["window"] = list(fit.window)
        fit_payload["n_points"] = fit.n_points
    except UnfittableError as exc:
        fit_payload["decay_rate"] = None
        fit_payload["unfittable"] = str(exc)
    row = (
        _p_token(params.p), params.W, params.n, job["seed"], curve.mean_diam,
        mean_disp0, fields["retained_samples"], fields["acceptance_rate"],
    )
    return row, {f"tail_{tag}.csv": _curve(curve), f"tail_fit_{tag}.json": _json(fit_payload)}


def _cmd_tail(v: dict) -> Artifacts:
    """A one-job sweep on the command's own values, without sweep_fits.csv."""
    return _tail_job(v, v)[1]


def _cmd_sweep(v: dict) -> Artifacts:
    for index, job in enumerate(v["jobs"]):  # the manifest echoes the seeds used
        if job.get("seed") is None:
            job["seed"] = spawn_chain_seed(v["seed"], index)
    tail_job = partial(_tail_job, v)
    workers = min(v["max_workers"], len(v["jobs"]), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(tail_job, v["jobs"]))
    else:
        results = list(map(tail_job, v["jobs"]))
    artifacts = {name: text for _, files in results for name, text in files.items()}
    artifacts["sweep_fits.csv"] = _csv(
        "p,W,n,seed,mean_diam,mean_displacement0,retained,acceptance_rate",
        sorted(row for row, _ in results),
    )
    return artifacts


def _cmd_uncross_verify(v: dict) -> Artifacts:
    cert = run_verification(v["n"], v["W_list"], v["p_list"], v.get("lambda_grid"))
    payload = {**cert.to_json_dict(), "format_version": FORMAT_VERSION}
    artifacts = {f"uncross_certificate_n{v['n']}.json": _json(payload)}
    if not cert.ok:
        raise VerificationFailure(artifacts, len(cert.violations))
    return artifacts


def _cmd_recurrence(v: dict) -> Artifacts:
    p = v["p"]
    rows = []
    certificate = {
        "format_version": FORMAT_VERSION,
        "p": p,
        "C0": v["C0"],
        "k_max_factor": v["k_max_factor"],
        "per_w": [],
    }
    for W in v["W_list"]:
        k_max = v["k_max_factor"] * W**3
        if "c0" in v:
            c0 = v["c0"]
            result = recurrence_check(p, W, v["C0"], c0, k_max)
        else:
            c0, result = _largest_propagating(p, W, v["C0"], k_max)
        rows.append((W, c0, result.propagated, result.first_failure_k))
        certificate["per_w"].append(
            {
                "W": W,
                "c0": c0,
                "k_max": k_max,
                "last_compared_k": result.last_compared_k,
                "propagated": result.propagated,
                "first_failure_k": result.first_failure_k,
                "contraction_c": result.c,
            }
        )
    return {
        f"recurrence_p{_p_token(p)}.csv": _csv("W,c0,propagated,first_failure_k", rows),
        f"recurrence_certificate_p{_p_token(p)}.json": _json(certificate),
    }


@dataclass(frozen=True)
class Command:
    """A subcommand: its option table, cross-key check and body."""

    help: str
    options: tuple[Option, ...]
    run: Callable[[dict], Artifacts]
    check: Optional[Callable[[dict, set], None]] = None


COMMANDS: dict[str, Command] = {
    "exact": Command("exact tail probabilities by enumeration", _MODEL, _cmd_exact, _check_j),
    "sample": Command(
        "stream per-sample cycle observables", _MODEL + _CHAIN, _cmd_sample, _check_chain
    ),
    "tail": Command(
        "empirical survival curve and decay fit", _MODEL + _CHAIN, _cmd_tail, _check_chain
    ),
    "uncross-verify": Command(
        "exhaustive uncrossing invariants", _UNCROSS, _cmd_uncross_verify, _check_uncross
    ),
    "sweep": Command("fan out tail jobs over a parameter grid", _SWEEP, _cmd_sweep, _check_sweep),
    "recurrence": Command(
        "tail-bound propagation certificates", _RECURRENCE, _cmd_recurrence, _check_recurrence
    ),
}


def run(config: RunConfig) -> int:
    """Run a resolved configuration; returns the process exit status.

    The only place that writes: the output directory first, then the body's
    artifacts, then the manifest listing them.  A body that raises writes
    nothing, except a VerificationFailure, whose artifacts are written.
    """
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"output_dir: cannot create {config.output_dir}: {exc}")
    failure = None
    try:
        artifacts = COMMANDS[config.command].run(config.values)
    except VerificationFailure as exc:
        failure, artifacts = exc, exc.artifacts
    for name, text in artifacts.items():
        _write_text(config.output_dir / name, text)
    manifest = {**config.manifest_dict(), "artifacts": sorted(artifacts)}
    _write_text(config.output_dir / "manifest.json", _json(manifest))
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigurationError instead of printing usage and exiting, so a
    malformed command line ends like any other configuration error."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bandperm",
        description=(
            "Gibbs random permutations of [-n, n] with displacement penalty "
            "sum (|pi(i)-i|/W)^p: exact oracles, Metropolis sampling, "
            "uncrossing verification and tail analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        sp.add_argument("--config", help="JSON config file; flags win over its values")
        for opt in spec.options:
            if opt.flag:
                default = "" if opt.default is None else f" (default {opt.default})"
                flag = "--" + opt.key.replace("_", "-")
                sp.add_argument(flag, dest=opt.key, help=opt.help + default)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        flag_values = vars(_build_parser().parse_args(argv))
        command, config_file = flag_values.pop("command"), flag_values.pop("config")
        file_values = {}
        if config_file:
            try:
                file_values = json.loads(Path(config_file).read_text())
            except (OSError, ValueError) as exc:
                raise ConfigurationError(f"cannot read config file: {exc}")
            if not isinstance(file_values, dict):
                raise ConfigurationError("config file must hold a JSON object")
        return run(parse_config(command, file_values, flag_values))
    except ConfigurationError as exc:
        print(json.dumps({"error": "configuration", "message": str(exc)}))
        return EXIT_CONFIG
    except CapacityError as exc:
        print(json.dumps({"error": "capacity", "message": str(exc)}))
        return EXIT_CAPACITY
    except (NoDataError, UnfittableError) as exc:
        print(json.dumps({"error": "no-data", "message": str(exc)}))
        return EXIT_NO_DATA


if __name__ == "__main__":
    sys.exit(main())
