"""Star-depth fallback counts of the steep-bump set-ups, old and new.

Runs the geometry of test_timeloop's TestStepDiagnostics (n = 40 on [0, 2],
supercritical inflow h = 0.5, u = 1, Gaussian bump with sigma = 0.1 at
x = 1) at amplitudes 0.3, 0.4 and 0.5 for 30 steps each, once with
riemann._star_depths (Newton, then Halley) and once with the plain Newton
oracle of test_riemann.newton_star_depths in its place. It prints each
run's fallbacks per step, then compares the two solvers on the same inputs,
the star-depth calls of the new run: every interface where only one of
them falls back, and the largest relative gap of each star depth, h_L*
and h_R*, where both converge: h_L* = (lam_R h_R* - C)/lam_L multiplies
h_R*'s rounding by |lam_R/lam_L|, which is large where lam_L nears zero.

    PYTHONPATH=src python tests/fallback_counts.py

The oracle is imported from the tests/ directory beside this script, and
the solver from whatever src is on PYTHONPATH. To compare two source trees,
run each tree's own copy of the script with its own src, as the byte gate
is run once per tree and its printouts diffed:

    cd /path/to/other/tree && PYTHONPATH=src python tests/fallback_counts.py

This script with another tree's src pits that tree's solver against this
tree's oracle, and the depth gaps it prints then measure the two trees'
difference, not the solver's.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import from_primitive_fields  # noqa: E402
from test_riemann import newton_star_depths, recorded  # noqa: E402

from eswsim import (BoundarySpec, Grid1D, PhysicalParams,  # noqa: E402
                    RunState, SupercriticalInflow, riemann, step)
from eswsim.analytic import gaussian_bump  # noqa: E402

ALPHAS = (0.3, 0.4, 0.5)
STEPS = 30


def run(alpha, star_depths, steps=STEPS):
    """Fallbacks per step, counted on the star-depth results (a step
    solves its star depths in one call), and the star-depth arguments of
    every step."""
    n = 40
    grid = Grid1D.uniform(0.0, 2.0, n,
                          lambda x: gaussian_bump(x, alpha, 0.1, 1.0))
    spec = BoundarySpec(left=SupercriticalInflow(u_in=1.0, h_in=0.5))
    params = PhysicalParams(1.0, 1e-3)
    state = RunState(0.0, 0, from_primitive_fields(
        np.full(n, 0.5), np.full(n, 1.0), np.zeros(n)))
    calls, fallbacks = [], []

    def recording(*args):
        calls.append(recorded(args))
        result = star_depths(*args)
        fallbacks.append(int(np.count_nonzero(result[2])))
        return result

    original = riemann._star_depths
    riemann._star_depths = recording
    try:
        for _ in range(steps):
            state = step(state, grid, params, spec)
    finally:
        riemann._star_depths = original
    return fallbacks, calls


def main():
    for alpha in ALPHAS:
        new, calls = run(alpha, riemann._star_depths)
        old, _ = run(alpha, lambda *args: newton_star_depths(*args[:7]))
        print(f"alpha={alpha}: fallbacks new {sum(new)} {new}")
        print(f"alpha={alpha}: fallbacks old {sum(old)} {old}")
        gaps = np.zeros(2)      # h_L*, h_R*
        for k, args in enumerate(calls):
            with np.errstate(all="ignore"):
                got = riemann._star_depths(*args)
                want = newton_star_depths(*args)
            for i in np.flatnonzero(got[2] != want[2]):
                print(f"  step {k} interface {i}: old "
                      f"{'fallback' if want[2][i] else 'converged'}, new "
                      f"{'fallback' if got[2][i] else 'converged'}")
            both = ~got[2] & ~want[2]
            gaps = np.maximum(gaps, [(np.abs(a - b) / b)[both].max(initial=0.0)
                                     for a, b in zip(got[:2], want[:2])])
        for name, gap in (("h_R*", gaps[1]), ("h_L*", gaps[0])):
            print(f"  largest relative {name} gap where both converge: "
                  f"{gap:.2e}")


if __name__ == "__main__":
    main()
