"""Byte gate: a fingerprint of every file a fixed set of runs writes.

Runs the set below through scenarios.run_scenario and
scenarios.convergence_study into a temporary directory and prints one
"sha1  name" line per CSV, the metadata.txt lines other than
wall_time_seconds (they hold each run's step count and final time), and
the dx and error of every convergence mesh, whose runtime column is left
out. Two source trees write the same bytes when their printouts are equal:

    PYTHONPATH=src python tests/byte_gate.py > after.txt
    PYTHONPATH=/path/to/other/tree/src python tests/byte_gate.py > before.txt
    diff before.txt after.txt

The set: BlasiusSteady sub (two snapshots) and sup, the fixed closure with
gradient order 2 and the Blasius closure on flat beds, ImpulsiveStart at
n = 2 000 (two snapshots), Bump sub (one snapshot) and sup at alpha = 0.03,
a strongly supercritical bump (h0 = 0.1, u0 = 3, whose every interface has
a zero left outer speed), a Pohlhausen4 bump, MlswCompare flat and bump,
and a two-mesh convergence study. The whole set takes about half a minute
on one core. With --tiny, every run shrinks to at most 20 cells and a
fiftieth of its end time.
"""

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from eswsim.scenarios import ScenarioConfig, convergence_study, run_scenario

SHRINK = 50.0   # --tiny divides end and snapshot times by this
FLAT_SUB = dict(scenario="BlasiusSteady", h0=2.0, t_end=0.5)
BUMP = dict(scenario="Bump", x_max=2.0, n_cells=400, bump_alpha=0.03,
            t_end=0.5)
MLSW = dict(scenario="MlswCompare", x_max=2.0, n_cells=200, n_layers=50,
            t_end=0.3)
RUNS = {
    "blasius_sub": dict(FLAT_SUB, snapshot_times=(0.25, 0.5)),
    "blasius_sup": dict(FLAT_SUB, h0=0.5),
    "fixed_order2": dict(FLAT_SUB, closure="fixed", fixed_H=2.3,
                         fixed_f2=0.3, gradient_order=2),
    "blasius_closure": dict(FLAT_SUB, closure="blasius"),
    "impulsive": dict(scenario="ImpulsiveStart", x_max=10.0, n_cells=2000,
                      h0=0.5, t_end=0.5, snapshot_times=(0.25, 0.5)),
    "bump_sub": dict(BUMP, snapshot_times=(0.25,)),
    "bump_sup": dict(BUMP, h0=0.5),
    "bump_fast": dict(BUMP, h0=0.1, u0=3.0),
    "pohlhausen4_bump": dict(BUMP, closure="pohlhausen4"),
    "mlsw_flat": dict(MLSW, bump_alpha=0.0),
    "mlsw_bump": dict(MLSW, bump_alpha=0.03),
}
CONVERGENCE = dict(FLAT_SUB, t_end=0.25)
CONVERGENCE_DX = (0.002, 0.001)


def configs(tiny=False):
    """(name, ScenarioConfig) of every run of the set."""
    for name, fields in RUNS.items():
        config = ScenarioConfig(**fields)
        if tiny:
            config = replace(
                config, n_cells=min(config.n_cells, 20),
                t_end=config.t_end / SHRINK,
                snapshot_times=tuple(t / SHRINK
                                     for t in config.snapshot_times),
                n_layers=min(config.n_layers, 4))
        yield name, config


def gate_lines(out_dir, tiny=False):
    """Run the set into out_dir; the printout's lines, in a fixed order."""
    out_dir = Path(out_dir)
    lines = []
    for name, config in configs(tiny):
        run_scenario(config, out_dir / name)
        for path in sorted((out_dir / name).iterdir()):
            rel = f"{name}/{path.name}"
            if path.suffix == ".csv":
                digest = hashlib.sha1(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {rel}")
            else:
                lines += [f"{rel}: {line}" for line in
                          path.read_text(encoding="utf-8").splitlines()
                          if not line.startswith("wall_time_seconds=")]
    config = ScenarioConfig(**CONVERGENCE)
    dx_list = CONVERGENCE_DX
    if tiny:
        config = replace(config, t_end=config.t_end / SHRINK)
        dx_list = tuple(config.x_max / n for n in (10, 20))
    for dx, error, _ in convergence_study(config, dx_list):
        lines.append(f"convergence: dx={dx:.17g} error={error:.17g}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true",
                        help="run every member at a small size")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for line in gate_lines(tmp, args.tiny):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
