"""
Integrated model against the multilayer reference
=================================================

The multilayer solver resolves the vertical velocity profile with N
stacked shallow-water layers and needs no closure; its diagnostics
(delta1, H, f2) can be read off the computed profiles. This script runs
the same subcritical Gaussian-bump scenario with both solvers and
compares the friction perturbation and the (H, f2) scatter against the
Falkner-Skan fit used by the integrated model.
"""

import tempfile

import numpy as np

from eswsim import ScenarioConfig, run_scenario, ue_gradient

ALPHA = 0.01


def final_csv(**fields):
    """final.csv of a run_scenario run with these ScenarioConfig fields."""
    with tempfile.TemporaryDirectory() as out:
        run_scenario(ScenarioConfig(**fields), out_dir=out)
        return np.genfromtxt(f"{out}/final.csv", delimiter=",", names=True)


def bump_run(scenario, alpha, n_cells, n_layers):
    return final_csv(scenario=scenario, x_max=2.0, n_cells=n_cells, h0=2.0,
                     bump_alpha=alpha, t_end=6.0, n_layers=n_layers)


def main(n_cells=300, n_layers=100):
    esw_flat = bump_run("Bump", 0.0, n_cells, n_layers)
    esw = bump_run("Bump", ALPHA, n_cells, n_layers)
    print("running the multilayer solver (takes a minute)...")
    mlsw_flat = bump_run("MlswCompare", 0.0, n_cells, n_layers)
    mlsw = bump_run("MlswCompare", ALPHA, n_cells, n_layers)

    x = esw["x"]
    w = (x > 0.5) & (x < 1.5)
    d_esw = (esw["tau_b"] - esw_flat["tau_b"])[w]
    d_m = (mlsw["tau_b"] - mlsw_flat["tau_b"])[w]
    print(f"ESW : friction peak at x = {x[w][np.argmax(d_esw)]:.3f}, "
          f"amplitude {np.max(d_esw) - np.min(d_esw):.4f}")
    print(f"MLSW: friction peak at x = {x[w][np.argmax(d_m)]:.3f}, "
          f"amplitude {np.max(d_m) - np.min(d_m):.4f}")

    H, f2 = mlsw["H"], mlsw["f2"]
    dudx = ue_gradient(mlsw["u_e"], 2.0 / n_cells)
    acc = (dudx > 0) & (x > 0.3) & (x < 1.9)
    gap = np.abs(f2 - 1.05 * (4.0 / H**2 - 1.0 / H))
    print(f"accelerated side: max |f2 - f2_FS(H)| = {np.max(gap[acc]):.4f} "
          f"over H in [{H[acc].min():.2f}, {H[acc].max():.2f}]")
    print("\nBoth solvers shift the friction maximum upstream of the crest;")
    print("the multilayer amplitude is smaller, and its profile diagnostics")
    print("track the Falkner-Skan closure curve on the accelerated side.")


if __name__ == "__main__":
    main()
