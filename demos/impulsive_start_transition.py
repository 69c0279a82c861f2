"""
Impulsive start: Stokes diffusion turning into a Blasius layer
==============================================================

Setting a uniform stream in motion over a no-slip bed at t = 0 grows the
layer uniformly, delta1 = 1.067*sqrt(t), until the information travelling
from the leading edge at speed u_e/H converts it into the steady
delta1 = 1.718*sqrt(x) profile. The transition front sits at
x = u_e*t/H.
"""

import numpy as np

from eswsim import (BoundarySpec, ConservedState, Grid1D, PhysicalParams,
                    RunState, SupercriticalInflow, advance, recover_delta1)
from eswsim.analytic import stewartson_fixed_profile


def main(n=1000):
    grid = Grid1D.uniform(0.0, 10.0, n)
    params = PhysicalParams(froude=1.0, delta_bar=1e-3)
    spec = BoundarySpec(left=SupercriticalInflow(u_in=1.0, h_in=0.5))
    W = ConservedState(h=np.full(n, 0.5), q=np.full(n, 0.5), r=np.zeros(n))

    snaps = {}
    advance(RunState(0.0, 0, W), 2.0, grid, params, spec,
            snapshot_times=(0.5, 1.0, 2.0),
            on_snapshot=lambda s: snaps.setdefault(
                round(s.t, 6), recover_delta1(s.W.q, s.W.r, s.W.h)))

    x = grid.cell_centers
    for t, d1 in sorted(snaps.items()):
        ref_d1, _ = stewartson_fixed_profile(x, t)
        front = t / 2.59
        print(f"t={t:4.1f}: plateau delta1/sqrt(t) = "
              f"{d1[-1] / np.sqrt(t):.4f} (characteristic solution 1.0675), "
              f"front at x = {front:.3f}, "
              f"max gap to the fixed-profile solution "
              f"{np.max(np.abs(d1[5:] - ref_d1[5:])):.2e}")

    print("\nFar from the inlet the layer still behaves as pure diffusion;")
    print("behind the front it has already forgotten the start-up and matches")
    print("the steady flat-plate solution.")


if __name__ == "__main__":
    main()
