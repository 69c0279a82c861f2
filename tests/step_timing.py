"""Time the ESW and MLSW steps and the snapshot writer of the eswsim on
PYTHONPATH.

Not a test: pytest does not collect this file. Run it from the root of a
checkout, once per source tree, in one session, to compare two trees:

    PYTHONPATH=src python tests/step_timing.py
    PYTHONPATH=/path/to/other/tree/src python tests/step_timing.py

It prints the best of --rounds rounds of microseconds per timeloop.step
(wall time, through the take_step of scenarios.model) for flat beds at
n = 10, 1 000 and 20 000 and a bump at n = 400, each on a state a few
steps into its run, with the minor page faults per step (at n = 20 000
whether malloc trims the heap under the step's temporaries, and faults it
in again, depends on the heap's layout, which the cases run before set,
not on the step), the best microseconds per riemann._star_depths call on
the arguments that the bump n = 400 step hands it, and the CPU
milliseconds per emit_snapshot of an n = 20 000 ImpulsiveStart state at
t = 0.0075: on one grid written again and again (as the files of one run
are), and on a fresh grid for every write (as the first file of a run is).
Last, the best microseconds per mlsw_step (its time step and the Thomas
solve included, again through take_step), with its minor page faults,
and per mlsw._thomas at the size of the mlsw_bump benchmark (n = 300,
N = 100), on a bump state 30 steps into its run: the steps march on from
it, each with its own time step, and the solve is the one its first step
makes, timed as the step makes it: on the run's MlswWork, its system
written back into the workspace before each round (the steps overwrite
it), with the rows and buffers that the workspace keeps. Timed alone on
fresh arrays, as a plain _thomas(lower, diag, upper, rhs) call runs, in a
loop of its own, the solve faulted 143 pages a call and took 623-667 us,
against 344 us on the kept rows (2 cores of a shared host), so that
figure would not be the step's.

With --ops it times nothing and prints, for the flat n = 10 and bump
n = 400 steps, the NumPy calls that one timeloop.step makes on arrays:
ufunc calls (reductions such as .min() or .any() among them, also counted
apart) and array-function calls (np.where, np.copyto, ...), each
counted once where the step's code makes it, not inside NumPy. The arrays
are an ndarray subclass that counts the calls made on it; arithmetic on
NumPy scalars is not counted. The subclass is not an exact np.ndarray, so
state._delta1_from_ue takes its masked path and counts a few calls more
than a run makes.
"""

import argparse
import resource
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from eswsim import mlsw, riemann
from eswsim.scenarios import ScenarioConfig, model
from eswsim.state import ConservedState
from eswsim.timeloop import march, step

BUMP = dict(scenario="Bump", x_max=2.0, n_cells=400, bump_alpha=0.03)
# (label, ScenarioConfig fields, steps per round)
STEPS = (
    ("flat n=10", dict(n_cells=10), 2000),
    ("flat n=1000", dict(n_cells=1000), 400),
    ("bump n=400", BUMP, 300),
    ("flat n=20000", dict(n_cells=20000), 30),
)
IMPULSIVE = dict(scenario="ImpulsiveStart", x_max=10.0, n_cells=20000,
                 h0=0.5, t_end=0.0075)
WARM_STEPS = 5
STAR_REPS = 300
MLSW = dict(scenario="MlswCompare", x_max=2.0, n_cells=300, n_layers=100,
            bump_alpha=0.01, t_end=0.3)
MLSW_WARM_STEPS, MLSW_REPS = 30, 30


def warm_state(fields):
    """(config, grid, the model's take_step, the state WARM_STEPS steps
    into its run)."""
    config = ScenarioConfig(**fields)
    grid, start, take_step, _ = model(config)
    W = start.W
    for _ in range(WARM_STEPS):
        W, _ = take_step(W, np.inf)
    return config, grid, take_step, W


def step_us(fields, reps, rounds):
    """(best microseconds per step over rounds of reps steps from one
    state, minor page faults per timed step)."""
    _, _, take_step, W = warm_state(fields)
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            take_step(W, np.inf)
        best = min(best, (time.perf_counter() - t0) / reps)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best * 1e6, faults / (rounds * reps)


class Counted(np.ndarray):
    """An array that counts the NumPy calls made on it into OPS; a call
    made inside another counted call is not counted again."""

    OPS = Counter()
    depth = 0

    @staticmethod
    def wrap(result):
        if isinstance(result, tuple):
            return tuple(Counted.wrap(x) for x in result)
        if type(result) is np.ndarray:
            return result.view(Counted)
        return result

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if Counted.depth == 0:
            Counted.OPS["ufunc"] += 1
            Counted.OPS["reduction"] += method != "__call__"
        plain = [x.view(np.ndarray) if isinstance(x, Counted) else x
                 for x in inputs]
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        if isinstance(kwargs.get("where"), Counted):
            kwargs["where"] = kwargs["where"].view(np.ndarray)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return Counted.wrap(result)

    def __array_function__(self, func, types, args, kwargs):
        Counted.OPS["function"] += Counted.depth == 0
        Counted.depth += 1
        try:
            result = super().__array_function__(func, types, args, kwargs)
        finally:
            Counted.depth -= 1
        return Counted.wrap(result)


def _counted_creator(create):
    return lambda *args, **kwargs: Counted.wrap(create(*args, **kwargs))


def step_ops(fields):
    """Counter of ufunc, reduction and array-function calls in one step
    from the state that step_us times."""
    config, grid, _, W = warm_state(fields)
    params, spec = config.physical_params(), config.boundary_spec()
    names = ("empty", "empty_like", "zeros", "full", "array", "where",
             "flatnonzero")
    saved = {name: getattr(np, name) for name in names + ("asarray",)}
    asarray = saved["asarray"]
    try:
        for name in names:
            setattr(np, name, _counted_creator(saved[name]))
        np.asarray = lambda a, *args, **kwargs: (
            a if isinstance(a, Counted) and a.dtype == np.float64
            else asarray(a, *args, **kwargs))
        grid = replace(grid, topo=grid.topo.view(Counted))
        W = ConservedState.wrap(W.hqr.view(Counted))
        grid.bed_jumps, grid.flat_bed    # built before counting
        Counted.OPS.clear()
        step(W, grid, params, spec)
        return Counter(Counted.OPS)
    finally:
        for name, fn in saved.items():
            setattr(np, name, fn)


def star_depths_us(rounds):
    """Best microseconds per _star_depths call on the arguments of one bump
    n = 400 step, taken from the state that step_us times."""
    _, _, take_step, W = warm_state(BUMP)
    solve, seen = riemann._star_depths, []
    # copies: solve_local_riemann reuses C's row once the call returns
    riemann._star_depths = lambda *args: seen.append(
        [a.copy() if isinstance(a, np.ndarray) else a for a in args]) \
        or solve(*args)
    try:
        take_step(W, np.inf)
    finally:
        riemann._star_depths = solve
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(STAR_REPS):
            solve(*seen[0])
        best = min(best, (time.perf_counter() - t0) / STAR_REPS)
    return best * 1e6


def write_ms(rounds, out_dir):
    """Best CPU milliseconds per snapshot write: (same grid, fresh grid)."""
    config = ScenarioConfig(**IMPULSIVE)
    _, start, take_step, write = model(config)
    run = march(start, config.t_end, take_step)
    path = Path(out_dir) / "snapshot.csv"
    write(run.W, path)    # the run's first file
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        # a fresh model's writer has a fresh grid
        for k, w in enumerate((write, model(config)[3])):
            t0 = time.process_time()
            w(run.W, path)
            best[k] = min(best[k], time.process_time() - t0)
    return [b * 1e3 for b in best]


def mlsw_us(rounds):
    """(best microseconds per mlsw_step, its minor page faults, best
    microseconds per _thomas call) from one state, through the run's
    workspace."""
    _, start, take_step, _ = model(ScenarioConfig(**MLSW))
    state = start.W
    for _ in range(MLSW_WARM_STEPS):
        state, _ = take_step(state, np.inf)
    solve, seen = mlsw._thomas, []
    mlsw._thomas = lambda *args: seen.append(args) or solve(*args)
    try:
        take_step(state, np.inf)
    finally:
        mlsw._thomas = solve
    # the workspace's system views and kept rows, and the first step's
    # system, which each round of steps overwrites
    args = seen[0]
    system = [a.copy() for a in args[:4]]
    best, faults = [float("inf"), float("inf")], 0
    for _ in range(rounds):
        # each step starts from the last one's state, as in a run, so that
        # the heap sees a run's pattern of allocations
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0, W = time.perf_counter(), state
        for _ in range(MLSW_REPS):
            W, _ = take_step(W, np.inf)
        best[0] = min(best[0], (time.perf_counter() - t0) / MLSW_REPS)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        for view, value in zip(args, system):
            np.copyto(view, value)
        t0 = time.perf_counter()
        for _ in range(MLSW_REPS):
            solve(*args)
        best[1] = min(best[1], (time.perf_counter() - t0) / MLSW_REPS)
    return best[0] * 1e6, faults / (rounds * MLSW_REPS), best[1] * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--ops", action="store_true",
                        help="count the NumPy calls per step instead")
    args = parser.parse_args()
    if args.ops:
        for label, fields, _ in STEPS:
            if label in ("flat n=10", "bump n=400"):
                ops = step_ops(fields)
                print(f"step {label}: {ops['ufunc']} ufunc calls "
                      f"({ops['reduction']} reductions), "
                      f"{ops['function']} array-function calls")
        return
    for label, fields, reps in STEPS:
        us, faults = step_us(fields, reps, args.rounds)
        print(f"step {label}: {us:.1f} us, {faults:.1f} page faults")
    print(f"star depths bump n=400: {star_depths_us(args.rounds):.1f} us "
          f"per _star_depths call")
    with tempfile.TemporaryDirectory() as tmp:
        same, fresh = write_ms(2 * args.rounds + 1, tmp)
    print(f"impulsive n=20000 write: {same:.2f} ms CPU on the run's grid, "
          f"{fresh:.2f} ms CPU on a fresh grid")
    mlsw_step_us, faults, thomas_us = mlsw_us(3 * args.rounds)
    print(f"mlsw n=300 N=100: {mlsw_step_us:.1f} us per mlsw_step, "
          f"{faults:.1f} page faults, {thomas_us:.1f} us per _thomas")


if __name__ == "__main__":
    main()
