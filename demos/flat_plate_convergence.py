"""
Flat-plate boundary layer and mesh refinement
=============================================

A uniform stream over a flat plate grows the classical Blasius layer
delta1 = 1.718*sqrt(x) once the flow is steady. This script integrates
the coupled model on [0, 0.1] at three resolutions and tabulates the L1
gap against the closed-form reference, for the subcritical (h0 = 2) and
supercritical (h0 = 0.5) inlet.
"""

import numpy as np

from eswsim import (BoundarySpec, ConservedState, Grid1D, PhysicalParams,
                    RunState, SubcriticalInflow, SupercriticalInflow,
                    advance, recover_delta1)
from eswsim.analytic import ReferenceCurve, blasius_steady, l1_error


def run(h0, n, t_end):
    grid = Grid1D.uniform(0.0, 0.1, n)
    params = PhysicalParams(froude=1.0, delta_bar=1e-3)
    if 1.0 / np.sqrt(h0) > 1.0:
        left = SupercriticalInflow(u_in=1.0, h_in=h0)
    else:
        left = SubcriticalInflow(u_in=1.0)
    W = ConservedState(h=np.full(n, h0), q=np.full(n, h0), r=np.zeros(n))
    run_state = advance(RunState(0.0, 0, W), t_end, grid, params,
                        BoundarySpec(left=left))
    # compare away from the leading-edge cell, where the sqrt singularity
    # of the shear is unresolvable at any mesh
    x = grid.cell_centers[1:]
    d1 = recover_delta1(run_state.W.q, run_state.W.r, run_state.W.h)[1:]
    ref, _ = blasius_steady(x)
    return l1_error(ReferenceCurve(x, d1), ReferenceCurve(x, ref))


def main(sizes=(10, 50, 100, 200)):
    print("L1 gap of delta1 against 1.718*sqrt(x)")
    print(f"{'n':>6} {'dx':>9} {'subcritical':>12} {'supercritical':>14}")
    for n in sizes:
        e_sub = run(2.0, n, 1.0)
        e_sup = run(0.5, n, 0.5)
        print(f"{n:>6} {0.1 / n:>9.1e} {e_sub:>12.3e} {e_sup:>14.3e}")
    print("\nThe error decreases towards the model error ~0.1*delta_bar; the")
    print("supercritical inlet converges faster because both characteristics")
    print("enter the domain and the inflow state is imposed exactly.")


if __name__ == "__main__":
    main()
