"""Record the reference values the benchmark's correctness gates compare to.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json from the code under src/:
- certify: the SHA-256 of each certificate and the property names;
- oracle: exact tail curves, partition values, support sizes and the
  recurrence rows;
- chains: pooled means of diam C(0) and |pi(0)| with ESS-based standard
  errors over REFERENCE_CHAINS operations, seeded apart from any benchmark
  seed.

The recorded file is part of the benchmark: regenerate it only from the
commit whose outputs define correctness, never to make a gate pass.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CHAINS = 48
REFERENCE_SEED = 20261017


def _run_cli(bp, workload, scratch: Path) -> list[Path]:
    dirs = [
        Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
        for _ in workload.commands
    ]
    with contextlib.redirect_stdout(sys.stderr):
        codes = workload.run_commands(bp.cli, dirs)
    if any(codes):
        raise RuntimeError(f"exit codes {codes} for {workload.commands}")
    return dirs


def certify_reference(bp, scratch: Path) -> dict:
    workload = wl.WORKLOADS["certify"]
    certificates, properties = [], set()
    for argv, out in zip(workload.commands, _run_cli(bp, workload, scratch)):
        (path,) = out.glob("uncross_certificate_*.json")
        raw = path.read_bytes()
        properties.update(json.loads(raw)["counts"])
        certificates.append({
            "command": argv,
            "file": path.name,
            "sha256": hashlib.sha256(raw).hexdigest(),
        })
        shutil.rmtree(out)
    return {"certificates": certificates, "properties": sorted(properties)}


def oracle_reference(bp, scratch: Path) -> dict:
    workload = wl.WORKLOADS["oracle"]
    dirs = _run_cli(bp, workload, scratch)
    exact = []
    for argv, out in zip(workload.commands[:-1], dirs[:-1]):
        (summary_path,) = out.glob("exact_summary_*.json")
        tag = summary_path.stem[len("exact_summary_"):]
        summary = json.loads(summary_path.read_text())
        with open(out / f"exact_tail_{tag}.csv", newline="") as fh:
            tail = [[int(r["lambda"]), float(r["tail_probability"])] for r in csv.DictReader(fh)]
        exact.append({
            "command": argv,
            "tag": tag,
            "tail": tail,
            "partition_value": summary["partition_value"],
            "support_size": summary["support_size"],
        })
    (rec_path,) = dirs[-1].glob("recurrence_*.csv")
    with open(rec_path, newline="") as fh:
        rows = [
            {"W": int(r["W"]), "c0": float(r["c0"]), "propagated": r["propagated"] == "True"}
            for r in csv.DictReader(fh)
        ]
    for out in dirs:
        shutil.rmtree(out)
    return {
        "exact": exact,
        "recurrence": {"command": workload.commands[-1], "file": rec_path.name, "rows": rows},
    }


def chain_reference(name: str) -> dict:
    workload = wl.WORKLOADS[name]
    state = workload.setup(REFERENCE_SEED, ROOT)
    results = [workload.op(state, i) for i in range(REFERENCE_CHAINS)]
    failures = [f for r in results for f in r.failures]
    if failures:
        raise RuntimeError(f"{name}: {failures}")
    entry = {"seed": REFERENCE_SEED, "chains": REFERENCE_CHAINS, "steps": workload.steps}
    for key in ("diam", "disp0"):
        mean, se = wl.pooled_mean_se([r.data[key] for r in results])
        entry[key] = {"mean": mean, "se": se}
    return entry


def main() -> int:
    bp = wl.import_bandperm(ROOT)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    reference = {
        "certify": certify_reference(bp, scratch),
        "oracle": oracle_reference(bp, scratch),
        "chains": {
            name: chain_reference(name)
            for name, workload in wl.WORKLOADS.items()
            if not workload.uses_cli
        },
    }
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
