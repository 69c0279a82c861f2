"""
Flat-plate boundary layer and mesh refinement
=============================================

A uniform stream over a flat plate grows the classical Blasius layer
delta1 = 1.718*sqrt(x) once the flow is steady. This script runs the
BlasiusSteady refinement study on [0, 0.1] at several resolutions and
tabulates the L1 gap against the closed-form reference, for the
subcritical (h0 = 2, to t = 1) and supercritical (h0 = 0.5, to t = 0.5)
inlet. The gap skips the leading-edge cell, where the sqrt singularity of
the shear is unresolvable at any mesh.
"""

from eswsim import ScenarioConfig, convergence_study


def main(sizes=(10, 50, 100, 200)):
    dx_list = [0.1 / n for n in sizes]
    sub = convergence_study(ScenarioConfig(h0=2.0, t_end=1.0), dx_list)
    sup = convergence_study(ScenarioConfig(h0=0.5, t_end=0.5), dx_list)
    print("L1 gap of delta1 against 1.718*sqrt(x)")
    print(f"{'n':>6} {'dx':>9} {'subcritical':>12} {'supercritical':>14}")
    for n, (dx, e_sub, _), (_, e_sup, _) in zip(sizes, sub, sup):
        print(f"{n:>6} {dx:>9.1e} {e_sub:>12.3e} {e_sup:>14.3e}")
    print("\nThe error decreases towards the model error ~0.1*delta_bar; the")
    print("supercritical inlet converges faster because both characteristics")
    print("enter the domain and the inflow state is imposed exactly.")


if __name__ == "__main__":
    main()
