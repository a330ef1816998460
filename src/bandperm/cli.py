"""Command-line entry point: reproducible runs with CSV/JSON artifacts.

Subcommands: exact, sample, tail, uncross-verify, sweep, recurrence.
Configuration comes from an optional JSON file plus command-line flags,
flags winning; the fully resolved configuration is echoed into a manifest
next to every artifact.  Reruns with identical configuration and seed
produce byte-identical files: nothing time- or host-dependent is ever
written.

Exit codes: 0 success, 1 no data (too few samples to estimate or fit),
2 configuration error, 3 capacity error, 4 verification failure (the
invariant suite found a violation).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .core import INFINITY, ModelParams
from .exact import CapacityError, exact_partition, exact_tail_curve
from .sampler import (
    ChainSummary,
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
    largest_propagating_c0,
    recurrence_check,
)
from .uncross import run_verification

FORMAT_VERSION = "1"
OUTPUT_DIR_ENV = "BANDPERM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_NO_DATA = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VERIFICATION = 4

# Chain seeds feed numpy's PCG64, which takes a 64-bit unsigned integer.
SEED_LIMIT = 2**64

# Largest k_max = k_max_factor * W^3 the recurrence checker may allocate
# for; each check holds several float arrays of this length.
RECURRENCE_K_MAX_CAP = 1_000_000

# Most points a start:stop[:step] range may expand to; a chain's lambda
# grid is only informative up to 2n, and every point is evaluated and
# written out.
INT_RANGE_CAP = 100_000


class ConfigurationError(ValueError):
    """A configuration key is unknown, ill-typed or violates a constraint."""


COMMANDS = ("exact", "sample", "tail", "uncross-verify", "sweep", "recurrence")

# Keys accepted per command, from config file or flags.
_COMMON_KEYS = {"output_dir"}
_KEYS: dict[str, set[str]] = {
    "exact": _COMMON_KEYS | {"p", "W", "n", "j", "lambda_grid"},
    "sample": _COMMON_KEYS
    | {
        "p", "W", "n", "j", "seed", "steps", "burn_in", "thinning",
        "initial_state", "lambda_grid",
    },
    "tail": _COMMON_KEYS
    | {
        "p", "W", "n", "j", "seed", "steps", "burn_in", "thinning",
        "initial_state", "lambda_grid", "head_cut", "min_survivors",
    },
    "uncross-verify": _COMMON_KEYS | {"n", "W_list", "p_list", "lambda_grid"},
    "sweep": _COMMON_KEYS
    | {
        "p", "W_list", "n_list", "jobs", "seed", "seeds", "steps", "burn_in",
        "thinning", "initial_state", "j", "lambda_grid", "head_cut",
        "min_survivors", "max_workers",
    },
    "recurrence": _COMMON_KEYS | {"p", "W_list", "C0", "c0", "k_max_factor"},
}


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


def _parse_p(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity"):
            return INFINITY
        try:
            raw = float(raw)
        except ValueError:
            raise ConfigurationError(f"p: expected a number or 'inf', got {raw!r}")
    if isinstance(raw, (int, float)) and not math.isnan(raw) and raw >= 1:
        return float(raw)
    raise ConfigurationError(f"p: must be >= 1 or 'inf', got {raw!r}")


def _parse_int(key: str, raw, lo: Optional[int] = None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        try:
            raw = int(str(raw))
        except ValueError:
            raise ConfigurationError(f"{key}: expected an integer, got {raw!r}")
    if lo is not None and raw < lo:
        raise ConfigurationError(f"{key}: must be >= {lo}, got {raw}")
    return raw


def _parse_float(key: str, raw, lo: Optional[float] = None) -> float:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}")
    if lo is not None and val < lo:
        raise ConfigurationError(f"{key}: must be >= {lo}, got {val}")
    return val


def _parse_int_list(key: str, raw, lo: Optional[int] = None) -> list[int]:
    if isinstance(raw, str):
        if ":" in raw:
            pieces = raw.split(":")
            if len(pieces) not in (2, 3):
                raise ConfigurationError(f"{key}: range syntax is start:stop[:step]")
            start, stop = _parse_int(key, pieces[0]), _parse_int(key, pieces[1])
            step = _parse_int(f"{key} step", pieces[2], lo=1) if len(pieces) == 3 else 1
            span = range(start, stop + 1, step)
            if len(span) > INT_RANGE_CAP:
                raise ConfigurationError(
                    f"{key}: range {raw} has {len(span)} points, above the cap {INT_RANGE_CAP}"
                )
            raw = list(span)
        else:
            raw = [tok for tok in raw.split(",") if tok.strip()]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigurationError(f"{key}: expected a nonempty integer list, got {raw!r}")
    values = [_parse_int(key, v, lo) for v in raw]
    return values


def _parse_seed(key: str, raw) -> int:
    seed = _parse_int(key, raw, lo=0)
    if seed >= SEED_LIMIT:
        raise ConfigurationError(f"{key}: must be below 2^64, got {seed}")
    return seed


def default_lambda_grid(n: int, W: int) -> list[int]:
    """lambda in {0 .. min(2n, 20 W^3)}, stepped down to at most 64 points."""
    top = min(2 * n, 20 * W**3)
    step = max(1, math.ceil((top + 1) / 64))
    grid = list(range(0, top + 1, step))
    return grid


def parse_config(
    command: str,
    file_values: Optional[dict] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Merge config-file values and flag overrides into a RunConfig.

    Flags win over file values; defaults fill the rest.  Unknown keys and
    constraint violations raise ConfigurationError naming the key.
    """
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    allowed = _KEYS[command]
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, val in source.items():
            if val is None:
                continue
            if key not in allowed:
                raise ConfigurationError(
                    f"unknown configuration key {key!r} for command {command!r}"
                )
            merged[key] = val

    out_dir = merged.pop("output_dir", None) or os.environ.get(
        OUTPUT_DIR_ENV, "bandperm_out"
    )
    values: dict = {}

    if command in ("exact", "sample", "tail", "sweep", "recurrence"):
        if command == "recurrence":
            values["p"] = _parse_p(merged.pop("p", 1.0))
            if math.isinf(values["p"]):
                raise ConfigurationError("p: recurrence checking needs finite p")
        elif "p" in merged or command != "sweep":
            values["p"] = _parse_p(merged.pop("p", "inf"))

    if command in ("exact", "sample", "tail"):
        values["W"] = _parse_int("W", merged.pop("W", 1), lo=1)
        values["n"] = _parse_int("n", merged.pop("n", 1), lo=1)
        values["j"] = _parse_int("j", merged.pop("j", 0))
        if not -values["n"] <= values["j"] <= values["n"]:
            raise ConfigurationError(
                f"j: must lie in [-{values['n']}, {values['n']}], got {values['j']}"
            )

    if command in ("exact", "sample", "tail", "uncross-verify", "sweep"):
        if "lambda_grid" in merged:
            values["lambda_grid"] = _parse_int_list(
                "lambda_grid", merged.pop("lambda_grid"), lo=0
            )

    if command in ("sample", "tail", "sweep"):
        values["seed"] = _parse_seed("seed", merged.pop("seed", 1))
        values["steps"] = _parse_int("steps", merged.pop("steps", 100_000), lo=0)
        if "burn_in" in merged:
            values["burn_in"] = _parse_int("burn_in", merged.pop("burn_in"), lo=0)
        if "thinning" in merged:
            values["thinning"] = _parse_int("thinning", merged.pop("thinning"), lo=1)
        if command != "sweep":
            # resolve the default rules here so the manifest is complete
            # (sweep jobs have per-job W and n, resolved at job time)
            m = 2 * values["n"] + 1
            values.setdefault("burn_in", min(10 * m * values["W"], values["steps"]))
            values.setdefault("thinning", m)
        if values.get("burn_in", 0) > values["steps"]:
            raise ConfigurationError(
                f"burn_in: must not exceed steps, got {values['burn_in']} > "
                f"{values['steps']}"
            )
        state = merged.pop("initial_state", "identity")
        try:
            values["initial_state"] = InitialState(state).value
        except ValueError:
            raise ConfigurationError(
                f"initial_state: expected one of "
                f"{[s.value for s in InitialState]}, got {state!r}"
            )

    if command in ("tail", "sweep"):
        if "head_cut" in merged:
            values["head_cut"] = _parse_int("head_cut", merged.pop("head_cut"), lo=0)
        values["min_survivors"] = _parse_int(
            "min_survivors", merged.pop("min_survivors", 10), lo=1
        )

    if command == "uncross-verify":
        values["n"] = _parse_int("n", merged.pop("n", 3), lo=1)
        values["W_list"] = _parse_int_list("W_list", merged.pop("W_list", [1, 2]), lo=1)
        raw_ps = merged.pop("p_list", ["inf"])
        if isinstance(raw_ps, str):
            raw_ps = [tok for tok in raw_ps.split(",") if tok.strip()]
        if not isinstance(raw_ps, (list, tuple)) or not raw_ps:
            raise ConfigurationError(f"p_list: expected a nonempty list, got {raw_ps!r}")
        values["p_list"] = [_parse_p(tok) for tok in raw_ps]

    if command == "sweep":
        if "jobs" in merged:
            jobs = merged.pop("jobs")
            if not isinstance(jobs, list) or not jobs:
                raise ConfigurationError("jobs: expected a nonempty list of job dicts")
            parsed_jobs = []
            for k, job in enumerate(jobs):
                if not isinstance(job, dict):
                    raise ConfigurationError(f"jobs[{k}]: expected an object")
                extra = set(job) - {"p", "W", "n", "seed"}
                if extra:
                    raise ConfigurationError(
                        f"jobs[{k}]: unknown keys {sorted(extra)}"
                    )
                parsed_jobs.append(
                    {
                        "p": _parse_p(job.get("p", values.get("p", "inf"))),
                        "W": _parse_int("W", job.get("W", 1), lo=1),
                        "n": _parse_int("n", job.get("n", 1), lo=1),
                        "seed": _parse_seed(f"jobs[{k}].seed", job["seed"])
                        if "seed" in job
                        else None,
                    }
                )
            values["jobs"] = parsed_jobs
        else:
            if "p" not in values:
                values["p"] = _parse_p("inf")
            w_list = _parse_int_list("W_list", merged.pop("W_list", [1]), lo=1)
            n_list = _parse_int_list("n_list", merged.pop("n_list", [values.get("n", 50)]), lo=1)
            seeds = [None]
            if "seeds" in merged:
                raw_seeds = _parse_int_list("seeds", merged.pop("seeds"))
                seeds = [_parse_seed("seeds", s) for s in raw_seeds]
            values["jobs"] = [
                {"p": values["p"], "W": w, "n": nn, "seed": s}
                for w in w_list
                for nn in n_list
                for s in seeds
            ]
        values["j"] = _parse_int("j", merged.pop("j", 0))
        values["max_workers"] = _parse_int(
            "max_workers", merged.pop("max_workers", min(4, os.cpu_count() or 1)), lo=1
        )

    if command == "recurrence":
        values["W_list"] = _parse_int_list(
            "W_list", merged.pop("W_list", list(range(1, 9))), lo=1
        )
        values["C0"] = _parse_float("C0", merged.pop("C0", 1.0))
        if values["C0"] <= 0:
            raise ConfigurationError(f"C0: must be positive, got {values['C0']}")
        if "c0" in merged:
            values["c0"] = _parse_float("c0", merged.pop("c0"), lo=0.0)
        values["k_max_factor"] = _parse_int(
            "k_max_factor", merged.pop("k_max_factor", 50), lo=1
        )

    leftovers = {k: v for k, v in merged.items() if v is not None}
    if leftovers:
        raise ConfigurationError(
            f"configuration keys {sorted(leftovers)} are not used by {command!r}"
        )
    return RunConfig(command=command, output_dir=Path(out_dir), values=values)


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _p_token(p: float) -> str:
    if math.isinf(p):
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return str(p).replace(".", "_")


def _write_manifest(config: RunConfig, artifacts: list[str]) -> None:
    payload = config.manifest_dict()
    payload["artifacts"] = sorted(artifacts)
    _write_json(config.output_dir / "manifest.json", payload)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_exact(config: RunConfig) -> int:
    v = config.values
    params = ModelParams(p=v["p"], W=v["W"], n=v["n"])
    grid = v.get("lambda_grid") or default_lambda_grid(params.n, params.W)
    tag = f"p{_p_token(params.p)}_W{params.W}_n{params.n}"
    curve = exact_tail_curve(params, v["j"], grid)
    partition_value, support_size = exact_partition(params)
    csv_name = f"exact_tail_{tag}.csv"
    json_name = f"exact_summary_{tag}.json"
    _write_csv(config.output_dir / csv_name, ["lambda", "tail_probability"], curve)
    _write_json(
        config.output_dir / json_name,
        {
            "format_version": FORMAT_VERSION,
            "partition_value": partition_value,
            "support_size": support_size,
            "j": v["j"],
        },
    )
    _write_manifest(config, [csv_name, json_name])
    return EXIT_OK


def _sampler_config(v: dict, params: ModelParams, seed: int) -> SamplerConfig:
    return SamplerConfig.with_defaults(
        params,
        seed=seed,
        steps=v["steps"],
        burn_in=v.get("burn_in"),
        thinning=v.get("thinning"),
        initial_state=InitialState(v.get("initial_state", "identity")),
    )


def _cmd_sample(config: RunConfig) -> int:
    v = config.values
    params = ModelParams(p=v["p"], W=v["W"], n=v["n"])
    sampler_cfg = _sampler_config(v, params, v["seed"])
    tag = f"p{_p_token(params.p)}_W{params.W}_n{params.n}_seed{v['seed']}"
    rows = []
    summary = sample_cycle_observables(
        params,
        sampler_cfg,
        v["j"],
        lambda rec: rows.append(
            (rec.step_index, rec.diam, rec.displacement0, rec.max_c0, rec.min_c0)
        ),
    )
    csv_name = f"samples_{tag}.csv"
    json_name = f"sample_summary_{tag}.json"
    _write_csv(
        config.output_dir / csv_name,
        ["step_index", "diam", "displacement0", "maxC0", "minC0"],
        rows,
    )
    _write_json(
        config.output_dir / json_name,
        {
            "format_version": FORMAT_VERSION,
            "acceptance_rate": summary.acceptance_rate,
            "retained_samples": summary.retained_samples,
            "final_state": summary.final_state.to_list(),
            "burn_in": sampler_cfg.burn_in,
            "thinning": sampler_cfg.thinning,
        },
    )
    artifacts = [csv_name, json_name]
    if v.get("lambda_grid") and rows:
        curve = estimate_tail_curve(
            [r[1] for r in rows], v["lambda_grid"], params, v["j"]
        )
        tail_name = f"tail_{tag}.csv"
        _write_csv(
            config.output_dir / tail_name,
            ["lambda", "survival", "stderr", "count"],
            ((pt.lam, pt.survival, pt.stderr, pt.count) for pt in curve.points),
        )
        artifacts.append(tail_name)
    _write_manifest(config, artifacts)
    return EXIT_OK


def _tail_job(
    params: ModelParams, sampler_cfg: SamplerConfig, j: int, grid: list[int]
) -> tuple[TailCurve, ChainSummary, list[int]]:
    diams: list[int] = []
    disp0: list[int] = []

    def observe(rec) -> None:
        diams.append(rec.diam)
        disp0.append(rec.displacement0)

    summary = sample_cycle_observables(params, sampler_cfg, j, observe)
    curve = estimate_tail_curve(diams, grid, params, j)
    return curve, summary, disp0


def _tail_artifacts(
    config: RunConfig,
    params: ModelParams,
    seed: int,
    curve: TailCurve,
    summary: ChainSummary,
    disp0: list[int],
    sampler_cfg: SamplerConfig,
) -> list[str]:
    v = config.values
    tag = f"p{_p_token(params.p)}_W{params.W}_n{params.n}_seed{seed}"
    csv_name = f"tail_{tag}.csv"
    json_name = f"tail_fit_{tag}.json"
    _write_csv(
        config.output_dir / csv_name,
        ["lambda", "survival", "stderr", "count"],
        ((pt.lam, pt.survival, pt.stderr, pt.count) for pt in curve.points),
    )
    fit_payload: dict = {
        "format_version": FORMAT_VERSION,
        "acceptance_rate": summary.acceptance_rate,
        "retained_samples": summary.retained_samples,
        "mean_diam": curve.mean_diam,
        "mean_diam_stderr": curve.mean_diam_stderr,
        "mean_displacement0": (sum(disp0) / len(disp0)) if disp0 else None,
        "burn_in": sampler_cfg.burn_in,
        "thinning": sampler_cfg.thinning,
    }
    try:
        fit = fit_exponential_decay(
            curve, v.get("head_cut"), v.get("min_survivors", 10)
        )
        fit_payload["decay_rate"] = fit.decay_rate_c_hat
        fit_payload["r_squared"] = fit.residual
        fit_payload["window"] = list(fit.window)
        fit_payload["n_points"] = fit.n_points
    except UnfittableError as exc:
        fit_payload["decay_rate"] = None
        fit_payload["unfittable"] = str(exc)
    _write_json(config.output_dir / json_name, fit_payload)
    return [csv_name, json_name]


def _cmd_tail(config: RunConfig) -> int:
    v = config.values
    params = ModelParams(p=v["p"], W=v["W"], n=v["n"])
    grid = v.get("lambda_grid") or default_lambda_grid(params.n, params.W)
    sampler_cfg = _sampler_config(v, params, v["seed"])
    curve, summary, disp0 = _tail_job(params, sampler_cfg, v["j"], grid)
    artifacts = _tail_artifacts(config, params, v["seed"], curve, summary, disp0, sampler_cfg)
    _write_manifest(config, artifacts)
    return EXIT_OK


def _run_sweep_job(args: tuple) -> tuple[dict, list[str]]:
    """One sweep job: a tail pipeline for a single (p, W, n, seed)."""
    config, job, j = args
    params = ModelParams(p=job["p"], W=job["W"], n=job["n"])
    v = config.values
    sampler_cfg = _sampler_config(v, params, job["seed"])
    grid = v.get("lambda_grid") or default_lambda_grid(params.n, params.W)
    curve, summary, disp0 = _tail_job(params, sampler_cfg, j, grid)
    artifacts = _tail_artifacts(
        config, params, job["seed"], curve, summary, disp0, sampler_cfg
    )
    row = {
        "p": _p_token(params.p),
        "W": params.W,
        "n": params.n,
        "seed": job["seed"],
        "mean_diam": curve.mean_diam,
        "mean_displacement0": (sum(disp0) / len(disp0)) if disp0 else 0.0,
        "retained": summary.retained_samples,
        "acceptance_rate": summary.acceptance_rate,
    }
    return row, artifacts


def _cmd_sweep(config: RunConfig) -> int:
    v = config.values
    jobs = []
    for index, job in enumerate(v["jobs"]):
        resolved = dict(job)
        if resolved.get("seed") is None:
            resolved["seed"] = spawn_chain_seed(v["seed"], index)
        jobs.append(resolved)
    v["jobs"] = jobs  # manifest echoes the per-job seeds actually used
    job_args = [(config, job, v["j"]) for job in jobs]
    rows: list[dict] = []
    artifacts: list[str] = []
    if v["max_workers"] > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=v["max_workers"]
        ) as pool:
            for row, names in pool.map(_run_sweep_job, job_args):
                rows.append(row)
                artifacts.extend(names)
    else:
        for args in job_args:
            row, names = _run_sweep_job(args)
            rows.append(row)
            artifacts.extend(names)
    rows.sort(key=lambda r: (r["p"], r["W"], r["n"], r["seed"]))
    fits_name = "sweep_fits.csv"
    _write_csv(
        config.output_dir / fits_name,
        [
            "p", "W", "n", "seed", "mean_diam", "mean_displacement0",
            "retained", "acceptance_rate",
        ],
        (
            (
                r["p"], r["W"], r["n"], r["seed"], r["mean_diam"],
                r["mean_displacement0"], r["retained"], r["acceptance_rate"],
            )
            for r in rows
        ),
    )
    artifacts.append(fits_name)
    _write_manifest(config, artifacts)
    return EXIT_OK


def _cmd_uncross_verify(config: RunConfig) -> int:
    v = config.values
    cert = run_verification(
        v["n"], v["W_list"], v["p_list"], v.get("lambda_grid")
    )
    name = f"uncross_certificate_n{v['n']}.json"
    payload = cert.to_json_dict()
    payload["format_version"] = FORMAT_VERSION
    _write_json(config.output_dir / name, payload)
    _write_manifest(config, [name])
    if not cert.ok:
        print(
            json.dumps(
                {"error": "verification", "violations": len(cert.violations)}
            ),
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_recurrence(config: RunConfig) -> int:
    v = config.values
    p = v["p"]
    k_max = max(v["k_max_factor"] * W**3 for W in v["W_list"])
    if k_max > RECURRENCE_K_MAX_CAP:
        raise CapacityError(
            f"k_max = k_max_factor * W^3 = {k_max} exceeds the recurrence cap "
            f"{RECURRENCE_K_MAX_CAP}"
        )
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
            c0 = largest_propagating_c0(p, W, v["C0"], k_max)
            result = recurrence_check(p, W, v["C0"], c0, k_max)
        rows.append((W, c0, result.propagated, result.first_failure_k))
        certificate["per_w"].append(
            {
                "W": W,
                "c0": c0,
                "k_max": k_max,
                "propagated": result.propagated,
                "first_failure_k": result.first_failure_k,
                "contraction_c": result.c,
            }
        )
    name_csv = f"recurrence_p{_p_token(p)}.csv"
    name_json = f"recurrence_certificate_p{_p_token(p)}.json"
    _write_csv(
        config.output_dir / name_csv,
        ["W", "c0", "propagated", "first_failure_k"],
        rows,
    )
    _write_json(config.output_dir / name_json, certificate)
    _write_manifest(config, [name_csv, name_json])
    return EXIT_OK


_RUNNERS = {
    "exact": _cmd_exact,
    "sample": _cmd_sample,
    "tail": _cmd_tail,
    "uncross-verify": _cmd_uncross_verify,
    "sweep": _cmd_sweep,
    "recurrence": _cmd_recurrence,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit status."""
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output_dir: cannot create {config.output_dir}: {exc}")
    return _RUNNERS[config.command](config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandperm",
        description=(
            "Gibbs random permutations of [-n, n] with displacement penalty "
            "(1/W^p) sum |pi(i)-i|^p: exact oracles, Metropolis sampling, "
            "uncrossing verification and tail analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--output-dir", dest="output_dir", type=str, default=None)

    def add_model(sp):
        sp.add_argument("--p", type=str, default=None, help="exponent >= 1 or 'inf'")
        sp.add_argument("--W", type=int, default=None, help="bandwidth")
        sp.add_argument("--n", type=int, default=None, help="half-length of the interval")

    def add_chain(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--burn-in", dest="burn_in", type=int, default=None)
        sp.add_argument("--thinning", type=int, default=None)
        sp.add_argument(
            "--initial-state",
            dest="initial_state",
            choices=[s.value for s in InitialState],
            default=None,
        )

    sp = sub.add_parser("exact", help="exact tail probabilities by enumeration")
    add_common(sp); add_model(sp)
    sp.add_argument("--j", type=int, default=None, help="base point of the cycle")
    sp.add_argument("--lambda-grid", dest="lambda_grid", type=str, default=None)

    sp = sub.add_parser("sample", help="stream per-sample cycle observables")
    add_common(sp); add_model(sp); add_chain(sp)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--lambda-grid", dest="lambda_grid", type=str, default=None)

    sp = sub.add_parser("tail", help="empirical survival curve and decay fit")
    add_common(sp); add_model(sp); add_chain(sp)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--lambda-grid", dest="lambda_grid", type=str, default=None)
    sp.add_argument("--head-cut", dest="head_cut", type=int, default=None)
    sp.add_argument("--min-survivors", dest="min_survivors", type=int, default=None)

    sp = sub.add_parser("uncross-verify", help="exhaustive uncrossing invariants")
    add_common(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--W-list", dest="W_list", type=str, default=None)
    sp.add_argument("--p-list", dest="p_list", type=str, default=None)
    sp.add_argument("--lambda-grid", dest="lambda_grid", type=str, default=None)

    sp = sub.add_parser("sweep", help="fan out tail jobs over a parameter grid")
    add_common(sp); add_chain(sp)
    sp.add_argument("--p", type=str, default=None)
    sp.add_argument("--W-list", dest="W_list", type=str, default=None)
    sp.add_argument("--n-list", dest="n_list", type=str, default=None)
    sp.add_argument("--seeds", type=str, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--lambda-grid", dest="lambda_grid", type=str, default=None)
    sp.add_argument("--head-cut", dest="head_cut", type=int, default=None)
    sp.add_argument("--min-survivors", dest="min_survivors", type=int, default=None)
    sp.add_argument("--max-workers", dest="max_workers", type=int, default=None)

    sp = sub.add_parser("recurrence", help="tail-bound propagation certificates")
    add_common(sp)
    sp.add_argument("--p", type=str, default=None)
    sp.add_argument("--W-list", dest="W_list", type=str, default=None)
    sp.add_argument("--C0", type=float, default=None)
    sp.add_argument("--c0", type=float, default=None)
    sp.add_argument("--k-max-factor", dest="k_max_factor", type=int, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    flag_values = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        file_values = {}
        if args.config:
            try:
                file_values = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigurationError(f"cannot read config file: {exc}")
            if not isinstance(file_values, dict):
                raise ConfigurationError("config file must hold a JSON object")
        config = parse_config(command, file_values, flag_values)
        return run(config)
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
