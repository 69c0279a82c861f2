"""Smoke test: every demo's main() runs at a tiny size and prints, and
the README quick start runs as written."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

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


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n\n```python\n(.*?)^```", readme,
                      re.S | re.M).group(1)
    names = {}
    exec(compile(block, "README.md quick start", "exec"), names)
    run, delta1 = names["run"], names["delta1"]
    assert run.t == pytest.approx(1.0, abs=1e-14) and run.step_count > 0
    # its comment: delta1 ~ 1.718*sqrt(x), away from the leading edge
    x = names["grid"].cell_centers
    assert np.allclose(delta1[10:], 1.718 * np.sqrt(x[10:]), rtol=0.1,
                       atol=0)
