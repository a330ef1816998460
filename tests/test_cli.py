import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bandperm import (
    CapacityError,
    ModelParams,
    Permutation,
    cli,
    count_band_permutations,
    energy,
)
from bandperm.cli import (
    ConfigurationError,
    default_lambda_grid,
    parse_config,
)

uncross_module = importlib.import_module("bandperm.uncross")


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


# SHA-256 of every file (manifest included) that small runs write into a
# relative output directory, recorded before the CLI's options moved into
# one table per command.  Artifacts are byte-identical on a fixed numpy
# version, so a change to any of these files is a change of contract.  The
# exact, exact_cap_j and uncross_full runs were re-recorded when the oracle
# and the certificates started summing the scaled terms (d / W)^p of
# core.displacement_costs in place of d^p / W^p: their floats moved in the
# last bits, and the ratio-sum witness of uncross_full to a tied row.
# uncross_full was re-recorded again when each fibre member's weight ratio
# became exp(-core.swap_cost) of its one swap, in place of a difference of
# two full energies: max_ratio_sum_quotient moved by an ulp to the correctly
# rounded 0.26979993348211717, and its witness to the exactly tied row
# [-1, -3, 0, -2, 3, 1, 2]; counts and violations are unchanged.
GOLDEN_RUNS = {
    "exact": (
        ("exact", "--p", "1.5", "--W", "2", "--n", "2", "--j", "1"),
        {
            "exact_summary_p1_5_W2_n2.json": (
                "163ff292d833d4e2fa5588685a7d2b388f0764214c7a83d9f8a0afbeee6c126d"
            ),
            "exact_tail_p1_5_W2_n2.csv": (
                "08a650d0c3dd6548b35ad32aac3fa9afdeaad661cf8f6e1567265c16abeb93d2"
            ),
            "manifest.json": (
                "f2e65784ab72dd232bc5f0d2d76a4a6c3bdb0d923bd7adeec355f9c1fa461741"
            ),
        },
    ),
    # two finite-p runs at the 9-point cap, recorded from the per-permutation
    # Python walk before the numpy block pass replaced it; the non-integer p
    # pins the float order of the displacement-sum accumulation
    "exact_cap": (
        ("exact", "--p", "1", "--W", "2", "--n", "4"),
        {
            "exact_summary_p1_W2_n4.json": (
                "c17102de590313bd3a09e7422e73c60d39330ad9f6b6941499d9a32c65431491"
            ),
            "exact_tail_p1_W2_n4.csv": (
                "09dd132ece9af36436f6515b50ecb0fa4d1fb3ee24a1cb73c76fd843371d9234"
            ),
            "manifest.json": (
                "39afc714e673b3deb10bf5b9388078a8c20b02e71f053404cf659d82e3129993"
            ),
        },
    ),
    "exact_cap_j": (
        ("exact", "--p", "1.5", "--W", "3", "--n", "4", "--j", "-4"),
        {
            "exact_summary_p1_5_W3_n4.json": (
                "9c227ea723f4f5389f5e8f63e2c7bff671e61b02bad2dd1f09e240dee155a82f"
            ),
            "exact_tail_p1_5_W3_n4.csv": (
                "77fa01c978faed2579ecf14e3696780199c6bd6913e757b5cea4686be9f01e52"
            ),
            "manifest.json": (
                "8520a5f3c690bc0a51e3761424d42e2f5c99dc314d757f7ef4236d423a1af654"
            ),
        },
    ),
    # the p = infinity pins were recorded from the enumeration of S_W, before
    # the marked transfer DP replaced it
    "exact_band": (
        ("exact", "--p", "inf", "--W", "3", "--n", "6"),
        {
            "exact_summary_pinf_W3_n6.json": (
                "84b6646a3d4b000a2ba3b7017fc7893caf4470bd10c3ff6a582de934d1c6c933"
            ),
            "exact_tail_pinf_W3_n6.csv": (
                "3d5cb7521b32b009d428adeae5ac8b9c84cda85754a39b226e08cd3bc53b822d"
            ),
            "manifest.json": (
                "1f1467b654ed7e5fe37d7a195e60d7facb39a67b1b79ba582121ddf679962e6e"
            ),
        },
    ),
    "exact_band_j": (
        ("exact", "--p", "inf", "--W", "2", "--n", "5", "--j", "-2"),
        {
            "exact_summary_pinf_W2_n5.json": (
                "a676c3595cb7d5a7878bfc175fd0690b2c1bde1777c433125ff1e020c103ad3c"
            ),
            "exact_tail_pinf_W2_n5.csv": (
                "28321150e1cda8291c54f1663633294d9f158a65f536dfed7a1a7deb90afeb44"
            ),
            "manifest.json": (
                "0f247d270e047beaa7311efce0bd8c6bb78bcb3af56b8cd40a6f50843a3f62a5"
            ),
        },
    ),
    # two uncross-verify certificates, recorded from the per-image Python
    # passes before the numpy member tables replaced them: the 2n+1 = 11 band
    # run, and a non-integer p that pins the float order of the ratio and
    # ratio-sum witnesses
    "uncross_band": (
        ("uncross-verify", "--n", "5", "--W-list", "1,2,3", "--p-list", "inf"),
        {
            "manifest.json": (
                "c21bb2bc41da73f00b7a0d8c5f0a5016e088090b04bc60ba1f4aa564db3c5686"
            ),
            "uncross_certificate_n5.json": (
                "96a71692cc4bb0edc7771b20156499e7618275fa916281c3de0868c9bc5620a1"
            ),
        },
    ),
    "uncross_full": (
        ("uncross-verify", "--n", "3", "--W-list", "1,2,3", "--p-list", "1.5,4"),
        {
            "manifest.json": (
                "ed1cb193d6606a95788749d9ea670c319db237c0e95e7d6b6b506198169e0e40"
            ),
            "uncross_certificate_n3.json": (
                "fa79afab9d3652069bc7c2450b2b26fe59777a45ff03179fe0fb4f78005e5499"
            ),
        },
    ),
    # the p=inf chain runs were re-recorded when the p=inf chain started
    # scanning its sites in order, and the p=1 `tail` run when the finite-p
    # chain did too
    "sample": (
        (
            "sample", "--p", "inf", "--W", "1", "--n", "2", "--seed", "3",
            "--steps", "3000", "--lambda-grid", "0:4",
        ),
        {
            "manifest.json": (
                "47e203a800e3ba4e9cd36a951dcfc08d7726a17697891051256f365eecd7a5b8"
            ),
            "sample_summary_pinf_W1_n2_seed3.json": (
                "d7498591ea5d5ae662abb6da907d21b506c1cebfe2d28babe987801462beb1cc"
            ),
            "samples_pinf_W1_n2_seed3.csv": (
                "8e7f927426d1ffb262dc80532073c1a15851b85f9220edc7b251ee467b96c5a3"
            ),
            "tail_pinf_W1_n2_seed3.csv": (
                "994777be26ddd6c1c3716b60ec43a471fc173d9b65822b2f056f6e662379b3eb"
            ),
        },
    ),
    "tail": (
        (
            "tail", "--p", "1", "--W", "2", "--n", "3", "--seed", "5",
            "--steps", "20000", "--head-cut", "1",
        ),
        {
            "manifest.json": (
                "4bd18cbac13481e00c263ccf8974d34cb3d7e3b3e4c5a064b280f03546c1bbfc"
            ),
            "tail_fit_p1_W2_n3_seed5.json": (
                "b34d1258b6f42db615923f0c294faa5e0e866f368ae73f8c9eeace4ebdc060df"
            ),
            "tail_p1_W2_n3_seed5.csv": (
                "62759aa5e9d88357a65edfa16aca0f57e22f61f29ff24ff6b0f0e6f6d5ad69f2"
            ),
        },
    ),
    # re-recorded when each per_w entry gained last_compared_k
    "recurrence": (
        (
            "recurrence", "--p", "1", "--W-list", "1,2", "--C0", "1.0",
            "--k-max-factor", "20",
        ),
        {
            "manifest.json": (
                "d9939f53f5c0fbd0bab8154cb3a454e875e0dbaae9aa055584a16f9f99d25309"
            ),
            "recurrence_certificate_p1.json": (
                "e0280e317681893a443d3a3e7c9bc8bfa1021a8a9d881115aa4313789816f830"
            ),
            "recurrence_p1.csv": (
                "5b2f4995bfc1982bc0d96c8675673d81cc962b5216853408d197baa2493e2be1"
            ),
        },
    ),
    "sweep": (
        (
            "sweep", "--p", "inf", "--W-list", "1,2", "--n-list", "3", "--seed", "7",
            "--steps", "5000", "--max-workers", "1",
        ),
        {
            "manifest.json": (
                "24b53d69e02f7881f6cb34bd2423c930849a1d47a5b293c3c58d5373ba85984d"
            ),
            "sweep_fits.csv": (
                "3026a43edada4f28f075c67ceaff8c073f0747663cc63664a112b9d921fd7167"
            ),
            "tail_fit_pinf_W1_n3_seed16920295385781661272.json": (
                "435fc2a27b5ee9ed0b52eb7b18e3614c9ff048cecce2f29d1c6db9c6bbf26017"
            ),
            "tail_fit_pinf_W2_n3_seed6635463128224577688.json": (
                "c30fc90c8db64f09d4f79a200dd844e7d538a1bb941a1974e27a61d6297858df"
            ),
            "tail_pinf_W1_n3_seed16920295385781661272.csv": (
                "d8729535a540ea54e8d077ab141dc6382c7a2d5af888c369576c8b8de80afde4"
            ),
            "tail_pinf_W2_n3_seed6635463128224577688.csv": (
                "bfbac519c816d97418e2315a6f511a931418975fa890b6a243683831422181ce"
            ),
        },
    ),
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

    def test_default_grid_step_is_integer_ceiling(self):
        # the same grids as the float rule wherever floats are exact
        for n in range(1, 300, 7):
            for W in range(1, 9):
                top = min(2 * n, 20 * W**3)
                step = max(1, math.ceil((top + 1) / 64))
                assert default_lambda_grid(n, W) == list(range(0, top + 1, step))
        # and no float overflow far beyond them
        grid = default_lambda_grid(10**310, 10**110)
        assert grid[0] == 0 and len(grid) <= 65

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

    def test_unknown_job_key_named_with_its_index(self):
        jobs = [{"W": 2}, {"n": 3, "bogus": 1}]
        with pytest.raises(ConfigurationError, match=r"'bogus' in jobs\[1\]"):
            parse_config("sweep", {"jobs": jobs}, {})

    def test_null_job_value_is_unset(self):
        nulls = {"p": None, "W": None, "n": 3, "seed": None}
        cfg = parse_config("sweep", {"jobs": [nulls], "p": 2}, {})
        assert cfg.values == parse_config("sweep", {"jobs": [{"n": 3}], "p": 2}, {}).values
        assert cfg.values["jobs"] == [{"p": 2.0, "W": 1, "n": 3}]

    def test_sample_and_tail_write_the_same_chain_fields(self, tmp_path):
        chain = ["--p", "1", "--W", "2", "--n", "3", "--seed", "5", "--steps", "3000"]
        for command in ("sample", "tail"):
            assert cli.main([command, *chain, "--output-dir", str(tmp_path / command)]) == 0
        sample = json.loads((tmp_path / "sample/sample_summary_p1_W2_n3_seed5.json").read_text())
        tail = json.loads((tmp_path / "tail/tail_fit_p1_W2_n3_seed5.json").read_text())
        for key in ("acceptance_rate", "retained_samples", "burn_in", "thinning"):
            assert sample[key] == tail[key], key


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

    def test_band_past_the_enumeration_cap(self, tmp_path):
        # |S_2| on 101 points is far above the band enumeration cap; the
        # p = infinity oracle is bound only by its DP's states
        argv = ["exact", "--p", "inf", "--W", "2", "--n", "50"]
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "exact_summary_pinf_W2_n50.json").read_text())
        assert summary["support_size"] == count_band_permutations(101, 2)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--p", "1", "--W", "1", "--n", str(10**8)],
            ["exact", "--p", "inf", "--W", str(10**20), "--n", str(10**30)],
            ["exact", "--W", "3", "--n", "100000"],
            ["exact", "--W", str(10**110), "--n", str(10**310)],
            ["sample", "--n", str(10**12), "--steps", "10"],
            ["tail", "--n", str(cli.CHAIN_INTERVAL_CAP // 2 + 1), "--steps", "10"],
            ["sweep", "--n-list", f"1,{10**12}", "--steps", "10"],
            ["uncross-verify", "--n", str(10**8), "--p-list", "1"],
            ["exact", "--p", "inf", "--W", "13", "--n", "14"],
        ],
    )
    def test_huge_instance_is_a_capacity_error(self, argv, tmp_path):
        # under a 1 GiB address-space limit an allocation of the whole
        # interval would end in a MemoryError traceback, and the timeout
        # turns an unbounded capacity check into a failure
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        res = subprocess.run(
            [sys.executable, "-m", "bandperm", *argv, "--output-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        )
        assert res.returncode == 3, res.stderr
        (line,) = res.stdout.splitlines()
        assert json.loads(line)["error"] == "capacity"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["tail", "--n", str(cli.CHAIN_INTERVAL_CAP // 2 + 1), "--steps", "10"],
            ["recurrence", "--W-list", "1:30"],
        ],
    )
    def test_capacity_checked_before_output_dir(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--output-dir", str(out)]) == 3
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["error"] == "capacity"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tail", "--steps", "10"],
            # the n=1 job has samples and runs first; the n=50 job's burn-in
            # takes every step
            ["sweep", "--n-list", "1,50", "--steps", "100"],
        ],
    )
    def test_no_data_writes_no_file(self, argv, tmp_path, capsys, fake_pool):
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == cli.EXIT_NO_DATA
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["error"] == "no-data"
        assert list(tmp_path.iterdir()) == []

    def test_large_finite_p_runs_without_warnings(self, tmp_path):
        # a displacement sum or a power (k/W)^p past the float range is inf,
        # and its weight exp(-inf) = 0.0 is the correctly rounded one; the
        # values are those the runs gave while they still warned
        for argv in (
            ["exact", "--p", "341", "--W", "1", "--n", "4"],
            ["recurrence", "--p", "1000", "--W-list", "1:2"],
        ):
            res = run_silently(argv, tmp_path)
            assert (res.returncode, res.stderr) == (0, "")
        summary = json.loads((tmp_path / "exact_summary_p341_W1_n4.json").read_text())
        assert summary["partition_value"] == 2.518563039229159
        assert summary["support_size"] == 362880
        assert (tmp_path / "recurrence_p1000.csv").read_text().splitlines()[1:] == [
            "1,0.4855647343749998,True,None",
            "2,0.7499373437499999,True,None",
        ]

    def test_exact_weighs_an_overflowing_unscaled_sum(self, tmp_path):
        # at W=8, p=341 the endpoint swap's unscaled terms 8^341 = 2^1023 sum
        # past the float maximum, but its energy is 2: the partition value
        # is the fsum of exp(-energy) over all 9! permutations
        res = run_silently(["exact", "--p", "341", "--W", "8", "--n", "4"], tmp_path)
        assert (res.returncode, res.stderr) == (0, "")
        summary = json.loads((tmp_path / "exact_summary_p341_W8_n4.json").read_text())
        params = ModelParams(p=341.0, W=8, n=4)
        expected = math.fsum(
            math.exp(-energy(Permutation(img), params))
            for img in itertools.permutations(range(-4, 5))
        )
        assert summary["partition_value"] == expected
        assert summary["support_size"] == 362880

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["exact", "--W", "abc"], "W"),
            (["tail", "--seed", "x"], "seed"),
            (["sample", "--initial-state", "bogus"], "initial_state"),
            (["recurrence", "--C0", "x"], "C0"),
            (["recurrence", "--W-list", "1", "--C0", "nan"], "C0"),
            (["recurrence", "--W-list", "1", "--C0", "inf"], "C0"),
            (["recurrence", "--W-list", "1", "--c0", "nan"], "c0"),
            (["recurrence", "--W-list", "1", "--c0", "1e400"], "c0"),
            (["exact", "--lambda-grid", "0:1" + "0" * 30], "lambda_grid"),
            (["exact", "--bogus", "1"], "--bogus"),
            (["exact", "--W"], "--W"),
            (["no-such-command"], "no-such-command"),
        ],
    )
    def test_bad_flag_is_one_json_line(self, argv, key, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", forbidden_run)
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "configuration"
        assert key in payload["message"]
        assert captured.err == ""  # no argparse usage text

    @pytest.mark.parametrize(
        "command, values, key",
        [
            ("exact", {"p": True}, "p"),
            ("uncross-verify", {"p_list": [True]}, "p_list"),
            ("recurrence", {"C0": True}, "C0"),
            ("recurrence", {"c0": float("nan")}, "c0"),
            ("recurrence", {"C0": 10**400}, "C0"),
            ("sweep", {"p": 10**400}, "p"),
            ("exact", {"output_dir": 5}, "output_dir"),
        ],
    )
    def test_bad_config_file_value_names_the_key(
        self, command, values, key, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "run", forbidden_run)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(values))  # NaN is written as a bare NaN
        assert cli.main([command, "--config", str(cfg_file)]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["message"].startswith(f"{key}:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--p", "400", "--W", "1", "--n", "4"],
            ["exact", "--p", "2", "--W", str(10**200), "--n", "2"],
            ["sample", "--p", "1000", "--W", "1", "--n", "50", "--steps", "3000"],
            ["tail", "--p", "1000", "--W", "1", "--n", "50", "--steps", "3000"],
            ["sweep", "--p", "1000", "--W-list", "1", "--n-list", "50", "--steps", "3000",
             "--max-workers", "1"],
        ],
    )
    def test_large_power_runs_without_warnings(self, argv, tmp_path):
        # max(2n, W)^p passes the float maximum, but the oracle and the chain
        # read the terms (d / W)^p; one past the maximum is inf, an energy
        # whose weight is 0.0
        res = run_silently(argv, tmp_path)
        assert (res.returncode, res.stderr) == (0, "")

    def test_large_power_job_runs(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        jobs = [{"n": 2}, {"p": 1000, "n": 50}]
        cfg_file.write_text(json.dumps({"jobs": jobs, "steps": 3000, "max_workers": 1}))
        res = run_silently(["sweep", "--config", str(cfg_file)], tmp_path / "out")
        assert (res.returncode, res.stderr) == (0, "")

    def test_overflowing_power_list_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the certificates take four-term differences of the energy terms,
        # and an inf term would give inf - inf
        monkeypatch.setattr(cli, "run", forbidden_run)
        argv = ["uncross-verify", "--n", "3", "--W-list", "1", "--p-list", "1000"]
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "configuration"
        assert payload["message"].startswith("p_list:")

    def test_power_check_boundary(self, tmp_path):
        # 8^341 = 2^1023 is the largest finite power of 8; 8^342 overflows
        parse_config("uncross-verify", {}, {"n": "4", "W_list": "1", "p_list": "341"})
        with pytest.raises(ConfigurationError, match="^p_list:"):
            parse_config("uncross-verify", {}, {"n": "4", "W_list": "1", "p_list": "342"})
        # the certificates read (d / W)^p and d^p with d <= 2n, so a band
        # wider than 2n is no reason to refuse a p: 1000^200 overflows, 6^200 not
        argv = ["uncross-verify", "--n", "3", "--W-list", "1000", "--p-list", "200"]
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 0
        parse_config("exact", {}, {"p": "342", "W": "1", "n": "4"})
        parse_config("exact", {}, {"p": "inf", "W": str(10**400), "n": "4"})

    def test_help_exits_zero_and_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tail", "--help"])
        assert exc.value.code == 0
        assert "(default 100000)" in capsys.readouterr().out


def forbidden_run(config):
    raise AssertionError("a command body ran")


def run_silently(argv, output_dir):
    """The CLI in a subprocess that fails on any RuntimeWarning."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bandperm", *argv,
         "--output-dir", str(output_dir)],
        capture_output=True, text=True,
    )


# Values that parse for some key, mixed with arbitrary JSON values.
_LIKELY = st.sampled_from(
    ["inf", "1", "2", "-1", "0:4", "1,2", "1:3:0", "identity", "nan", "1e400", "", "0:1" + "0" * 30]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=8)
    | _LIKELY,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "W", "n", "seed", "x"]), inner, max_size=4),
    max_leaves=8,
)


def command_keys(data) -> tuple[str, st.SearchStrategy]:
    """A command, and a strategy for its own keys plus one unknown key."""
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)), label="command")
    keys = [opt.key for opt in cli.COMMANDS[command].options]
    return command, st.sampled_from(keys + ["bogus"])


def strict_manifest(config) -> int:
    json.dumps(config.manifest_dict(), allow_nan=False)  # no bare NaN or Infinity
    return cli.EXIT_OK


class TestParserProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_parse_config_fails_closed(self, data):
        command, keys = command_keys(data)
        file_values, overrides = (
            data.draw(st.dictionaries(keys, _LIKELY | _LIKELY | _JSON, max_size=3))
            for _ in range(2)
        )
        try:
            config = parse_config(command, file_values, overrides)
        except (ConfigurationError, CapacityError):  # exit 2 or 3
            return
        assert isinstance(config, cli.RunConfig)
        strict_manifest(config)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_main_fails_closed(self, data):
        command, keys = command_keys(data)
        flag = keys.map(lambda k: "--" + k.replace("_", "-"))
        flag |= flag | st.text(max_size=6)
        pairs = data.draw(st.lists(st.tuples(flag, _LIKELY | st.text(max_size=8)), max_size=3))
        argv = [command] + [tok for pair in pairs for tok in pair]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setattr(cli, "run", strict_manifest)  # run no command body
            code = cli.main(argv)
        if code == cli.EXIT_OK:
            assert out.getvalue() == ""
        else:
            # a drawn value such as --n 9999999 parses, then fails the
            # chain capacity check: exit 3, not 2
            errors = {cli.EXIT_CONFIG: "configuration", cli.EXIT_CAPACITY: "capacity"}
            (line,) = out.getvalue().splitlines()
            assert json.loads(line)["error"] == errors[code]

    def test_main_capacity_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", strict_manifest)  # run no command body
        assert cli.main(["sample", "--n", "9999999"]) == cli.EXIT_CAPACITY
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["error"] == "capacity"


class TestAtomicWrites:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError):
            cli._write_text(tmp_path / "a.json", cli._json({"x": 1}))
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_leaves_only_the_target(self, tmp_path):
        target = tmp_path / "a.csv"
        for rows in ([(1, 2.5)], [(3, 4.5)]):
            cli._write_text(target, cli._csv("a,b", rows))
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert target.read_text() == "a,b\n3,4.5\n"


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


    def test_violation_writes_the_certificate_then_exits_4(self, tmp_path, capsys, monkeypatch):
        # a bound far below the observed ratio sums, as in the reference test
        monkeypatch.setattr(uncross_module, "RATIO_SUM_K", 1e-3)
        argv = ["uncross-verify", "--n", "3", "--W-list", "1", "--p-list", "1"]
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == cli.EXIT_VERIFICATION
        name = "uncross_certificate_n3.json"
        cert = json.loads((tmp_path / name).read_text())
        assert cert["violations_total"] > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == [name]
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        expected = {"error": "verification", "violations": cert["violations_total"]}
        assert json.loads(line) == expected
        assert captured.out == ""


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

    def test_certificate_names_the_last_compared_k(self, tmp_path):
        # the searched c0 at C0 = 0.3 takes f(k+1) below the normal floats
        # long before k_max = 2000 W^3; the comparison stops there, and the
        # certificate says where
        assert cli.main([
            "recurrence", "--p", "1", "--W-list", "1:3", "--k-max-factor", "2000",
            "--C0", "0.3", "--output-dir", str(tmp_path),
        ]) == 0
        cert = json.loads((tmp_path / "recurrence_certificate_p1.json").read_text())
        for entry in cert["per_w"]:
            W, last = entry["W"], entry["last_compared_k"]
            assert last < entry["k_max"] - 1
            f = 2.0 * np.exp(-entry["c0"] * np.array([last + 1, last + 2], dtype=float) / W**3)
            assert f[0] >= sys.float_info.min > f[1]


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

    def test_manifest_does_not_depend_on_the_host(self, tmp_path, monkeypatch, fake_pool):
        manifests = []
        for cpus in (1, 64):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            run_dir = tmp_path / f"cpus{cpus}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # the manifest echoes the output directory
            argv = ["sweep", "--W-list", "1,2", "--n-list", "2", "--steps", "3000"]
            assert cli.main(argv + ["--output-dir", "out"]) == 0
            manifests.append((run_dir / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["max_workers"] == cli.DEFAULT_MAX_WORKERS
        assert fake_pool == [2]  # only the 64-CPU run used a pool

    @pytest.mark.parametrize("cpus, expected", [(64, [3]), (2, [2]), (1, [])])
    def test_pool_size_is_bounded(self, cpus, expected, tmp_path, monkeypatch, fake_pool):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = [
            "sweep", "--W-list", "1:3", "--n-list", "2", "--steps", "3000",
            "--max-workers", "100000", "--output-dir", str(tmp_path),
        ]
        assert cli.main(argv) == 0
        assert fake_pool == expected
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["max_workers"] == 100000

    def test_job_grid_capped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", forbidden_run)
        # 120,000 jobs: above the cap, yet small enough to build if a regression did
        argv = ["sweep", "--W-list", "1:400", "--n-list", "1:300"]
        assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert "W_list" in json.loads(line)["message"]
        too_many = [{}] * (cli.INT_RANGE_CAP + 1)
        with pytest.raises(ConfigurationError, match="jobs"):
            parse_config("sweep", {"jobs": too_many}, {})

    @pytest.mark.parametrize(
        "values", [{"j": 4, "n_list": [5, 3]}, {"j": -2, "jobs": [{"n": 3}, {"n": 1}]}]
    )
    def test_j_lies_in_every_job_interval(self, values):
        # a job whose interval misses j used to end in a sampler traceback
        with pytest.raises(ConfigurationError, match=r"j: must lie in \[-\d, \d\]"):
            parse_config("sweep", values, {})

    def test_jobs_exclude_grid_keys(self):
        with pytest.raises(ConfigurationError, match="W_list"):
            parse_config("sweep", {"jobs": [{"W": 2}], "W_list": [1]}, {})
        cfg = parse_config("sweep", {"jobs": [{"W": 2}, {"p": 1}], "p": 2}, {})
        assert [job["p"] for job in cfg.values["jobs"]] == [2.0, 1.0]
        assert "W_list" not in cfg.values


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the sweep's process pool with an in-process one, so no worker
    process is started; returns the list of pool sizes requested."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


class TestGoldenArtifacts:
    @pytest.mark.parametrize("argv, expected", GOLDEN_RUNS.values(), ids=GOLDEN_RUNS)
    def test_artifact_hashes(self, argv, expected, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the manifest echoes the output directory
        assert cli.main([*argv, "--output-dir", "out"]) == 0
        assert tree_hashes(tmp_path / "out") == expected
