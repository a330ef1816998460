"""Smoke runs of the experiment scripts in scripts/ at tiny budgets."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, budget, outputs",
    [
        (
            "localization_scaling",
            {"W_GRID": (2, 3), "STEPS_PER_W": 20_000},
            {"diameter_scaling.csv": 3, "diameter_scaling_fit.csv": 2},
        ),
        (
            "preimage_probe",
            {"W_GRID": (2, 3), "SAMPLES_PER_W": 20},
            {"preimage_sizes.csv": 3},
        ),
    ],
)
def test_script_main_writes_its_csvs(name, budget, outputs, tmp_path, monkeypatch, capsys):
    module = load_script(name)
    for key, value in budget.items():
        monkeypatch.setattr(module, key, value)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", str(tmp_path)])
    assert module.main() == 0
    written = {p.name: len(p.read_text().splitlines()) for p in tmp_path.iterdir()}
    assert written == outputs
    assert "wrote" in capsys.readouterr().out
