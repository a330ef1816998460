"""BENCHMARK.json names exactly the metrics run.py prints, with the same units.

Run with: python3 -m pytest perfbench/test_benchmark.py
"""
import json
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_run_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_sloc_skips_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "m.py"
    source.write_text('"""Module\ndoc."""\n\n# comment\ndef f():\n    """Doc."""\n    return 1\n')
    assert run.sloc(source) == 2
