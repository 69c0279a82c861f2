"""Smoke test: every demo's main() runs at a tiny size and prints."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo name -> main() arguments that keep the run to a fraction of a second
TINY = {
    "bump_phase_lag": {"n": 20},
    "flat_plate_convergence": {"sizes": (10,)},
    "impulsive_start_transition": {"n": 50},
    "multilayer_comparison": {"n_cells": 20, "n_layers": 4},
    "separation_on_a_steep_bump": {"n": 20},
    "wave_speed_map": {"n_grid": 2},
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_demo_main_runs(name, capsys):
    module = load(name)
    assert capsys.readouterr().out == ""     # importing prints nothing
    module.main(**TINY[name])
    out = capsys.readouterr().out
    assert out.count("\n") >= 2 and "nan" not in out
