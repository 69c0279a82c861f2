"""
Boundary-layer separation behind a steep bump
=============================================

Increasing the bump height drives the layer on the lee side towards
separation: the friction factor f2 crosses zero where the wall shear
vanishes and reverse flow begins. The location of incipient separation
is sensitive to how sharply the velocity-gradient parameter Lambda1 is
resolved, so the 2nd- and 4th-order gradient stencils are compared.
"""

import tempfile

import numpy as np

from eswsim import ScenarioConfig, run_scenario


def final_csv(**fields):
    """final.csv of a run_scenario run with these ScenarioConfig fields."""
    with tempfile.TemporaryDirectory() as out:
        run_scenario(ScenarioConfig(**fields), out_dir=out)
        return np.genfromtxt(f"{out}/final.csv", delimiter=",", names=True)


def min_f2(alpha, order, n):
    final = final_csv(scenario="Bump", x_max=2.0, n_cells=n, h0=2.0,
                      bump_alpha=alpha, t_end=6.0, gradient_order=order)
    x, f2 = final["x"], final["f2"]
    w = (x > 0.3) & (x < 1.9)
    j = np.argmin(np.where(w, f2, np.inf))
    return f2[j], x[j]


def main(n=400):
    print(f"{'alpha':>7} {'order':>6} {'min f2':>9} {'at x':>7}  state")
    for alpha in (0.01, 0.02, 0.03):
        for order in (4, 2):
            f2m, xm = min_f2(alpha, order, n)
            state = "separated" if f2m <= 0.0 else "attached"
            print(f"{alpha:>7.2f} {order:>6} {f2m:>9.4f} {xm:>7.3f}  "
                  f"{state}")
    print("\nThe shear minimum sits on the lee side, slightly downstream of")
    print("the crest; the lower-order gradient smears Lambda1 and predicts a")
    print("marginally less negative minimum.")


if __name__ == "__main__":
    main()
