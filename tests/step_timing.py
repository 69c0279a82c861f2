"""Time the ESW step and the snapshot writer of the eswsim on PYTHONPATH.

Not a test: pytest does not collect this file. Run it from the root of a
checkout, once per source tree, in one session, to compare two trees:

    PYTHONPATH=src python tests/step_timing.py
    PYTHONPATH=/path/to/other/tree/src python tests/step_timing.py

It prints the best of --rounds rounds of microseconds per timeloop.step
(wall time) for flat beds at n = 10, 1 000 and 20 000 and a bump at
n = 400, each on a state a few steps into its run, and the CPU
milliseconds per emit_snapshot of an n = 20 000 ImpulsiveStart state at
t = 0.0075: on one grid written again and again (as the files of one run
are), and on a fresh grid for every write (as the first file of a run is).
"""

import argparse
import tempfile
import time
from pathlib import Path

from eswsim.scenarios import ScenarioConfig, emit_snapshot, initial_state
from eswsim.timeloop import advance, step

# (label, ScenarioConfig fields, steps per round)
STEPS = (
    ("flat n=10", dict(n_cells=10), 2000),
    ("flat n=1000", dict(n_cells=1000), 400),
    ("bump n=400", dict(scenario="Bump", x_max=2.0, n_cells=400,
                        bump_alpha=0.03), 300),
    ("flat n=20000", dict(n_cells=20000), 30),
)
IMPULSIVE = dict(scenario="ImpulsiveStart", x_max=10.0, n_cells=20000,
                 h0=0.5, t_end=0.0075)
WARM_STEPS = 5


def step_us(fields, reps, rounds):
    """Best microseconds per step over rounds of reps steps from one state."""
    config = ScenarioConfig(**fields)
    grid, params = config.grid(), config.physical_params()
    spec = config.boundary_spec()
    run = initial_state(config)
    for _ in range(WARM_STEPS):
        run = step(run, grid, params, spec)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            step(run, grid, params, spec)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def write_ms(rounds, out_dir):
    """Best CPU milliseconds per snapshot write: (same grid, fresh grid)."""
    config = ScenarioConfig(**IMPULSIVE)
    grid, params = config.grid(), config.physical_params()
    run = advance(initial_state(config), config.t_end, grid, params,
                  config.boundary_spec())
    path = Path(out_dir) / "snapshot.csv"
    emit_snapshot(run.W, grid, params, path)    # the run's first file
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for k, g in enumerate((grid, config.grid())):
            t0 = time.process_time()
            emit_snapshot(run.W, g, params, path)
            best[k] = min(best[k], time.process_time() - t0)
    return [b * 1e3 for b in best]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    for label, fields, reps in STEPS:
        print(f"step {label}: {step_us(fields, reps, args.rounds):.1f} us")
    with tempfile.TemporaryDirectory() as tmp:
        same, fresh = write_ms(2 * args.rounds + 1, tmp)
    print(f"impulsive n=20000 write: {same:.2f} ms CPU on the run's grid, "
          f"{fresh:.2f} ms CPU on a fresh grid")


if __name__ == "__main__":
    main()
