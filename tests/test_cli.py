import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bandperm import cli
from bandperm.cli import (
    ConfigurationError,
    default_lambda_grid,
    parse_config,
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bandperm", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestParseConfig:
    def test_flags_override_file(self):
        cfg = parse_config("sample", {"W": 2, "n": 5}, {"W": 4, "seed": 3})
        assert cfg.values["W"] == 4
        assert cfg.values["n"] == 5
        assert cfg.values["seed"] == 3

    def test_defaults_fill_in(self):
        cfg = parse_config("sample", {}, {"p": "1", "W": 2, "n": 100, "seed": 1})
        assert cfg.values["steps"] == 100_000
        assert cfg.values["j"] == 0
        assert cfg.values["initial_state"] == "identity"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            parse_config("exact", {"bogus": 1}, {})

    def test_bad_p_named(self):
        with pytest.raises(ConfigurationError, match="p"):
            parse_config("exact", {}, {"p": "0.5"})

    def test_j_outside_interval(self):
        with pytest.raises(ConfigurationError, match="j"):
            parse_config("exact", {}, {"n": 2, "j": 5})

    def test_lambda_grid_syntaxes(self):
        cfg = parse_config("exact", {}, {"lambda_grid": "0,2,4"})
        assert cfg.values["lambda_grid"] == [0, 2, 4]
        cfg = parse_config("exact", {}, {"lambda_grid": "0:10:5"})
        assert cfg.values["lambda_grid"] == [0, 5, 10]

    def test_recurrence_rejects_infinite_p(self):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_config("recurrence", {}, {"p": "inf"})

    def test_default_grid_rule(self):
        assert default_lambda_grid(1, 1) == [0, 1, 2]
        grid = default_lambda_grid(200, 2)
        assert grid[0] == 0 and grid[-1] <= 160 and len(grid) <= 64

    def test_sweep_grid_expansion(self):
        cfg = parse_config(
            "sweep", {"W_list": [2, 4], "n_list": [10], "seeds": [1, 2]}, {}
        )
        assert len(cfg.values["jobs"]) == 4

    def test_job_seed_bounded(self):
        with pytest.raises(ConfigurationError, match=r"jobs\[0\]\.seed"):
            parse_config("sweep", {"jobs": [{"seed": 2**64}]}, {})

    def test_sweep_explicit_jobs(self):
        cfg = parse_config(
            "sweep",
            {"jobs": [{"p": 1, "W": 2, "n": 100, "seed": 5}]},
            {},
        )
        assert cfg.values["jobs"][0]["W"] == 2


class TestExactCommand:
    def test_golden_csv(self, tmp_path):
        res = run_cli(
            "exact", "--p", "inf", "--W", "1", "--n", "1",
            "--lambda-grid", "0,1,2", "--output-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        csv = (tmp_path / "exact_tail_pinf_W1_n1.csv").read_text()
        assert csv.splitlines() == [
            "lambda,tail_probability",
            "0,1.0",
            "1,0.6666666666666666",
            "2,0.0",
        ]
        sidecar = json.loads((tmp_path / "exact_summary_pinf_W1_n1.json").read_text())
        assert sidecar["partition_value"] == 3.0
        assert sidecar["support_size"] == 3

    def test_capacity_exit_code(self, tmp_path):
        res = run_cli(
            "exact", "--p", "1", "--W", "1", "--n", "6",
            "--output-dir", str(tmp_path),
        )
        assert res.returncode == 3
        payload = json.loads(res.stdout)
        assert payload["error"] == "capacity"

    def test_config_error_exit_code(self, tmp_path):
        res = run_cli("exact", "--p", "0.5", "--output-dir", str(tmp_path))
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload["error"] == "configuration"


class TestFailClosed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--lambda-grid", "a,b"],
            ["exact", "--lambda-grid", "0:4:0"],
            ["exact", "--lambda-grid", "0:3000000"],
            ["tail", "--seed", str(2**64)],
            ["sweep", "--seeds", f"1,{2**64}"],
        ],
    )
    def test_config_error_is_one_json_line(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["error"] == "configuration"

    def test_range_cap_names_the_key(self, tmp_path, capsys):
        top = cli.INT_RANGE_CAP
        argv = ["exact", "--lambda-grid", f"1:{top + 1}", "--output-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert "lambda_grid" in json.loads(line)["message"]
        # exactly the cap still parses
        assert len(cli._parse_int_list("lambda_grid", f"1:{top}", lo=0)) == top

    def test_recurrence_capacity_checked_before_allocation(
        self, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args):
            raise AssertionError("recurrence ran past its capacity check")

        monkeypatch.setattr(cli, "recurrence_check", forbidden)
        monkeypatch.setattr(cli, "largest_propagating_c0", forbidden)
        argv = ["recurrence", "--k-max-factor", "100000000", "--output-dir", str(tmp_path)]
        assert cli.main(argv) == 3
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["error"] == "capacity"
        # the README and oracle runs (k_max_factor 50, W up to 8) stay under it
        assert 50 * 8**3 <= cli.RECURRENCE_K_MAX_CAP


class TestSampleCommand:
    def test_csv_schema_and_manifest(self, tmp_path):
        res = run_cli(
            "sample", "--p", "1", "--W", "1", "--n", "2", "--seed", "4",
            "--steps", "2000", "--burn-in", "100", "--thinning", "10",
            "--output-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        csv_lines = (tmp_path / "samples_p1_W1_n2_seed4.csv").read_text().splitlines()
        assert csv_lines[0] == "step_index,diam,displacement0,maxC0,minC0"
        assert len(csv_lines) == 1 + (2000 - 100) // 10
        summary = json.loads(
            (tmp_path / "sample_summary_p1_W1_n2_seed4.json").read_text()
        )
        assert summary["retained_samples"] == 190
        assert len(summary["final_state"]) == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["config"]["seed"] == 4
        written = {p.name for p in tmp_path.iterdir()}
        assert written == set(manifest["artifacts"]) | {"manifest.json"}

    def test_config_file_plus_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"p": 1, "W": 2, "n": 2, "steps": 500}))
        out = tmp_path / "out"
        res = run_cli(
            "sample", "--config", str(cfg_file), "--W", "1", "--seed", "9",
            "--output-dir", str(out),
        )
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["W"] == 1
        assert manifest["config"]["steps"] == 500

    def test_lambda_grid_adds_tail_artifact(self, tmp_path):
        res = run_cli(
            "sample", "--p", "inf", "--W", "1", "--n", "2", "--seed", "3",
            "--steps", "5000", "--lambda-grid", "0:4",
            "--output-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        tail = (tmp_path / "tail_pinf_W1_n2_seed3.csv").read_text().splitlines()
        assert tail[0] == "lambda,survival,stderr,count"
        assert len(tail) == 6

    def test_manifest_round_trips(self, tmp_path):
        res = run_cli(
            "sample", "--p", "1.5", "--W", "2", "--n", "3", "--seed", "6",
            "--steps", "1000", "--output-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        reparsed = parse_config("sample", manifest["config"], {})
        assert reparsed.manifest_dict()["config"] == manifest["config"]

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        import os

        out = tmp_path / "from_env"
        env = dict(os.environ, BANDPERM_OUTPUT_DIR=str(out))
        res = subprocess.run(
            [
                sys.executable, "-m", "bandperm", "exact",
                "--p", "inf", "--W", "1", "--n", "1",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0, res.stderr
        assert (out / "manifest.json").exists()


class TestDeterminism:
    def test_identical_artifacts_on_rerun(self, tmp_path):
        out = tmp_path / "run"
        args = (
            "tail", "--p", "inf", "--W", "1", "--n", "3", "--seed", "12",
            "--steps", "20000", "--lambda-grid", "0:6",
            "--output-dir", str(out),
        )
        hashes = []
        for _ in range(2):
            if out.exists():
                for f in out.iterdir():
                    f.unlink()
                out.rmdir()
            res = run_cli(*args)
            assert res.returncode == 0, res.stderr
            hashes.append(tree_hashes(out))
        assert hashes[0] == hashes[1]


class TestUncrossVerifyCommand:
    def test_certificate_clean(self, tmp_path):
        res = run_cli(
            "uncross-verify", "--n", "3", "--W-list", "1,2",
            "--p-list", "inf,1,2", "--output-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        raw = (tmp_path / "uncross_certificate_n3.json").read_bytes()
        # the bytes recorded in perfbench/reference.json
        assert hashlib.sha256(raw).hexdigest() == (
            "88875eaf0ab294ce781be398a2e841e9aa1be7d6924ff9f37635080ee9968385"
        )
        cert = json.loads(raw)
        assert cert["violations_total"] == 0
        assert cert["counts"]["ratio_bound"] > 0
        assert cert["max_preimage_size"] <= 4


class TestRecurrenceCommand:
    def test_fixed_c0_certificate(self, tmp_path):
        res = run_cli(
            "recurrence", "--p", "1", "--W-list", "1,2", "--C0", "1.0",
            "--c0", "0.05", "--k-max-factor", "50", "--output-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        cert = json.loads((tmp_path / "recurrence_certificate_p1.json").read_text())
        assert all(entry["propagated"] for entry in cert["per_w"])
        csv_lines = (tmp_path / "recurrence_p1.csv").read_text().splitlines()
        assert csv_lines[0] == "W,c0,propagated,first_failure_k"
        assert len(csv_lines) == 3


class TestSweepCommand:
    def test_jobs_fan_out_and_merge(self, tmp_path):
        cfg_file = tmp_path / "sweep.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "p": 1,
                    "W_list": [1, 2],
                    "n_list": [3],
                    "seed": 7,
                    "steps": 5000,
                    "max_workers": 2,
                }
            )
        )
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", str(cfg_file), "--output-dir", str(out))
        assert res.returncode == 0, res.stderr
        fits = (out / "sweep_fits.csv").read_text().splitlines()
        assert len(fits) == 3  # header + one row per job
        manifest = json.loads((out / "manifest.json").read_text())
        # one tail csv + one fit json per job, plus the merged fits table
        assert len(manifest["artifacts"]) == 5
        for name in manifest["artifacts"]:
            assert (out / name).exists()
