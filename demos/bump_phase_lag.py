"""
Friction phase-lag over a Gaussian bump
=======================================

A classical friction law slaved to the local velocity peaks exactly at
the crest. The coupled viscous layer instead responds with a lag: the
wall shear peaks upstream of the crest for subcritical flow and
downstream for supercritical flow -- the ingredient that makes flat beds
unstable to dunes and antidunes.

The flat-plate trend 0.332/sqrt(x) is removed by differencing against a
run without the bump.
"""

import tempfile

import numpy as np

from eswsim import ScenarioConfig, run_scenario

ALPHA, CREST = 0.01, 1.0


def final_csv(**fields):
    """final.csv of a run_scenario run with these ScenarioConfig fields."""
    with tempfile.TemporaryDirectory() as out:
        run_scenario(ScenarioConfig(**fields), out_dir=out)
        return np.genfromtxt(f"{out}/final.csv", delimiter=",", names=True)


def friction(h0, alpha, n):
    final = final_csv(scenario="Bump", x_max=2.0, n_cells=n, h0=h0,
                      bump_alpha=alpha, bump_center=CREST, t_end=6.0)
    return final["x"], final["tau_b"]


def main(n=400):
    for label, h0 in (("subcritical h0=2.0", 2.0),
                      ("supercritical h0=0.5", 0.5)):
        x, tau_flat = friction(h0, 0.0, n)
        x, tau_bump = friction(h0, ALPHA, n)
        dtau = tau_bump - tau_flat
        w = (x > 0.5) & (x < 1.5)
        x_peak = x[w][np.argmax(dtau[w])]
        side = "upstream" if x_peak < CREST else "downstream"
        print(f"{label}: friction perturbation peaks at x = {x_peak:.3f}, "
              f"{abs(x_peak - CREST):.3f} {side} of the crest")


if __name__ == "__main__":
    main()
