"""The benchmark's workloads.

Each workload draws its inputs from the seed, then splits one solution
into three parts that the runner times or checks separately:

- ``setup()`` imports the solver and builds the grids, parameters and
  initial states through its public API (timed as set-up);
- ``solve()`` produces the whole solution (timed as wall time);
- ``check(raw)`` verifies the outputs and computes the reference gap.

The solver sees only the generated inputs. See README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DELTA_BAR, FROUDE = 1e-3, 1.0
CSV_HEADER = "x,fb,h,u_e,delta1,tau_b,H,f2,Lambda1,U"


@dataclass
class Outcome:
    """Checked result of one solution."""

    steps: int | None          # step count the program reported, if any
    ref_l1: float              # flat-bed delta1 gap to the Stewartson solution
    digest: str                # hash of the outputs, for determinism
    problems: list = field(default_factory=list)


def _stewartson_l1(es, x, delta1, t):
    """L1 gap of delta1(x) to the fixed-profile impulsive-start solution."""
    ref, _ = es.analytic.stewartson_fixed_profile(x, t)
    return es.analytic.l1_error(es.analytic.ReferenceCurve(x, delta1),
                                es.analytic.ReferenceCurve(x, ref))


def _peak(x, dtau, center):
    """Abscissa and peak-to-peak amplitude of dtau within 0.5 of center."""
    w = (x >= center - 0.5) & (x <= center + 0.5)
    return x[w][np.argmax(dtau[w])], float(np.max(dtau[w]) - np.min(dtau[w]))


def _read_snapshot(path: Path, n_cells: int, problems: list):
    """Columns of a snapshot CSV, or None after recording what is wrong."""
    text = path.read_text(encoding="utf-8") if path.is_file() else None
    if text is None:
        problems.append(f"{path.name}: missing")
        return None
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"{path.name}: header is not the 10-column layout")
        return None
    if len(lines) != n_cells + 1:
        problems.append(f"{path.name}: {len(lines) - 1} rows, "
                        f"expected {n_cells}")
        return None
    try:
        data = np.array([[float(v) for v in row.split(",")]
                         for row in lines[1:]])
    except ValueError as exc:
        problems.append(f"{path.name}: unparsable row: {exc}")
        return None
    if data.shape != (n_cells, 10):
        problems.append(f"{path.name}: rows do not all have 10 columns")
        return None
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    if not np.all(data[:, 2] > 0.0):
        problems.append(f"{path.name}: nonpositive depth")
    return dict(zip(CSV_HEADER.split(","), data.T))


def _digest(paths) -> str:
    h = hashlib.sha1()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _cli(es, argv):
    """Run the ``eswsim`` entry point in-process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = es.cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    step_span = "timeloop.step"

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.work_dir = Path(work_dir)
        self.es = None

    @property
    def errors(self):
        """Exceptions that count as a failed solution, not a benchmark bug."""
        return (self.es.errors.EswError, FloatingPointError, ValueError)

    def setup(self):
        self.es = importlib.import_module("eswsim")

    def prepare(self):
        """Remove the previous solution's output files (untimed)."""


class BumpEnsemble(Workload):
    """Nine bump-scenario members through ``timeloop.advance``."""

    name = "bump_ensemble"

    def __init__(self, seed, work_dir, quick=False):
        super().__init__(seed, work_dir)
        self.alpha = float(self.rng.uniform(0.009, 0.011))
        self.center = float(self.rng.uniform(0.95, 1.05))
        self.n = 100 if quick else 400
        self.t_end = 0.25
        self.cells = self.n
        a = self.alpha
        # (name, h0, bump amplitude, sigma, fixed-profile closure, order):
        # the nine members of the acceptance suite's bump_runs fixture
        self.members = [
            ("sub_flat", 2.0, 0.0, 0.1, False, 4),
            ("sub_bump", 2.0, a, 0.1, False, 4),
            ("sup_flat", 0.5, 0.0, 0.1, False, 4),
            ("sup_bump", 0.5, a, 0.1, False, 4),
            ("fs_s05", 2.0, a, 0.05, False, 4),
            ("fx_flat", 2.0, 0.0, 0.1, True, 4),
            ("fx_s05", 2.0, a, 0.05, True, 4),
            ("a03_o4", 2.0, 3.0 * a, 0.1, False, 4),
            ("a03_o2", 2.0, 3.0 * a, 0.1, False, 2),
        ]

    def setup(self):
        super().setup()
        es = self.es
        self.inputs = []
        for name, h0, alpha, sigma, fixed, order in self.members:
            topo = None if alpha == 0.0 else (
                lambda x, a=alpha, s=sigma:
                es.gaussian_bump(x, a, s, self.center))
            grid = es.Grid1D.uniform(0.0, 2.0, self.n, topo)
            kw = {"closure": es.FixedProfile(H=2.59, f2=0.22)} if fixed \
                else {}
            params = es.PhysicalParams(froude=FROUDE, delta_bar=DELTA_BAR,
                                       **kw)
            left = es.SupercriticalInflow(u_in=1.0, h_in=h0) \
                if 1.0 / np.sqrt(h0) > 1.0 else es.SubcriticalInflow(u_in=1.0)
            W = es.ConservedState(h=np.full(self.n, h0),
                                  q=np.full(self.n, h0), r=np.zeros(self.n))
            self.inputs.append((name, es.RunState(0.0, 0, W), grid, params,
                                es.BoundarySpec(left=left), order))

    def solve(self):
        es = self.es
        return {name: (es.advance(run, self.t_end, grid, params, bc,
                                  gradient_order=order), grid, params, order)
                for name, run, grid, params, bc, order in self.inputs}

    def _friction(self, run, grid, params, order):
        es = self.es
        u_e = run.W.q / run.W.h
        d1 = es.recover_delta1(run.W.q, run.W.r, run.W.h)
        dudx = es.ue_gradient(u_e, grid.dx, order=order)
        H, f2 = es.closure_factors(params.closure, d1**2 * dudx)
        return f2 * H * u_e / np.maximum(d1, 1e-12)

    def check(self, raw) -> Outcome:
        problems, tau, h = [], {}, hashlib.sha1()
        for name, (run, grid, params, order) in raw.items():
            W = run.W
            if abs(run.t - self.t_end) > 1e-12:
                problems.append(f"{name}: stopped at t={run.t}")
            if not all(np.all(np.isfinite(a)) for a in (W.h, W.q, W.r)):
                problems.append(f"{name}: non-finite state")
                continue
            if not np.all(W.h > 0.0):
                problems.append(f"{name}: nonpositive depth")
            tau[name] = self._friction(run, grid, params, order)
            for a in (W.h, W.q, W.r):
                h.update(a.tobytes())
        x = next(iter(raw.values()))[1].cell_centers
        c = self.center
        if len(tau) == len(raw):
            # criterion 5: friction peak upstream of the crest in
            # subcritical flow, downstream in supercritical flow
            x_sub, _ = _peak(x, tau["sub_bump"] - tau["sub_flat"], c)
            x_sup, _ = _peak(x, tau["sup_bump"] - tau["sup_flat"], c)
            if not x_sub < c < x_sup:
                problems.append(f"criterion 5: sub peak {x_sub:.4f}, crest "
                                f"{c:.4f}, sup peak {x_sup:.4f}")
            # criterion 6: the fixed profile responds less and lags less
            x_fs, amp_fs = _peak(x, tau["fs_s05"] - tau["sub_flat"], c)
            x_fx, amp_fx = _peak(x, tau["fx_s05"] - tau["fx_flat"], c)
            if not (amp_fx < amp_fs and c - x_fx < c - x_fs):
                problems.append(f"criterion 6: fixed amplitude {amp_fx:.4g} "
                                f"vs {amp_fs:.4g}, lead {c - x_fx:.4g} vs "
                                f"{c - x_fs:.4g}")
        flat = raw["fx_flat"][0]
        d1 = self.es.recover_delta1(flat.W.q, flat.W.r, flat.W.h)
        ref_l1 = _stewartson_l1(self.es, x, d1, flat.t)
        steps = sum(run.step_count for run, *_ in raw.values())
        return Outcome(steps, ref_l1, h.hexdigest(), problems)


class ImpulsiveCli(Workload):
    """``eswsim run`` of ImpulsiveStart on a fine grid, with snapshots."""

    name = "impulsive_cli"

    def __init__(self, seed, work_dir, quick=False):
        super().__init__(seed, work_dir)
        self.n = 2000 if quick else 20_000
        self.cells = self.n
        self.t_end = 0.03
        jitter = self.rng.uniform(-0.05, 0.05, 3)
        self.snapshot_times = tuple(
            round(self.t_end * (k / 4.0 + float(j)), 6)
            for k, j in zip((1, 2, 3), jitter))
        self.out = self.work_dir / "impulsive"
        self.config = self.work_dir / "impulsive.cfg"
        self.config.write_text(
            "scenario=ImpulsiveStart\n"
            f"grid.x_min=0.0\ngrid.x_max=10.0\ngrid.n_cells={self.n}\n"
            "init.h0=0.5\ninit.u0=1.0\n"
            f"physics.froude={FROUDE}\nphysics.delta_bar={DELTA_BAR}\n"
            f"run.t_end={self.t_end}\n"
            "run.snapshot_times="
            + " ".join(repr(t) for t in self.snapshot_times) + "\n",
            encoding="utf-8")

    def setup(self):
        super().setup()
        es = self.es
        importlib.import_module("eswsim.cli")
        config = es.parse_config(self.config)
        config.grid()
        config.physical_params()
        config.boundary_spec()
        es.scenarios.initial_state(config)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def solve(self):
        return _cli(self.es, ["run", "--config", str(self.config),
                              "--out", str(self.out)])

    def check(self, raw) -> Outcome:
        code, stdout = raw
        problems = []
        m = re.search(r"done: t=\S+ steps=(\d+)", stdout)
        if code != 0 or m is None:
            problems.append(f"exit code {code}, output {stdout!r}")
            return Outcome(None, float("nan"), "", problems)
        final = _read_snapshot(self.out / "final.csv", self.n, problems)
        snaps = [self.out / f"snapshot_t{t:.6f}.csv"
                 for t in self.snapshot_times]
        for p in snaps:
            if not p.is_file():
                problems.append(f"{p.name}: missing")
        if problems:
            return Outcome(int(m.group(1)), float("nan"), "", problems)
        ref_l1 = _stewartson_l1(self.es, final["x"], final["delta1"],
                                self.t_end)
        return Outcome(int(m.group(1)), ref_l1,
                       _digest([self.out / "final.csv"] + snaps), problems)


class MlswBump(Workload):
    """``eswsim mlsw`` on a flat bed and over a bump."""

    name = "mlsw_bump"
    step_span = "mlsw.mlsw_step"

    def __init__(self, seed, work_dir, quick=False):
        super().__init__(seed, work_dir)
        self.alpha = float(self.rng.uniform(0.009, 0.011))
        self.center = float(self.rng.uniform(0.95, 1.05))
        self.n = 100 if quick else 300
        self.n_layers = 20 if quick else 100
        self.cells = self.n * self.n_layers
        self.t_end = 0.3
        self.runs = {}
        for tag, alpha in (("flat", 0.0), ("bump", self.alpha)):
            config = self.work_dir / f"mlsw_{tag}.cfg"
            config.write_text(
                "scenario=MlswCompare\n"
                f"grid.x_min=0.0\ngrid.x_max=2.0\ngrid.n_cells={self.n}\n"
                f"mlsw.n_layers={self.n_layers}\n"
                "init.h0=2.0\ninit.u0=1.0\n"
                f"physics.froude={FROUDE}\nphysics.delta_bar={DELTA_BAR}\n"
                f"bump.alpha={alpha!r}\nbump.sigma=0.1\n"
                f"bump.center={self.center!r}\nrun.t_end={self.t_end}\n",
                encoding="utf-8")
            self.runs[tag] = (config, self.work_dir / f"mlsw_{tag}")

    def setup(self):
        super().setup()
        es = self.es
        importlib.import_module("eswsim.cli")
        for config_path, _ in self.runs.values():
            config = es.parse_config(config_path)
            config.grid()
            config.physical_params()
            config.boundary_spec()
            es.MlswState.uniform(es.LayerGrid(config.n_layers),
                                 config.n_cells, config.h0, config.u0)

    def prepare(self):
        for _, out in self.runs.values():
            shutil.rmtree(out, ignore_errors=True)

    def solve(self):
        return {tag: _cli(self.es, ["mlsw", "--config", str(config),
                                    "--out", str(out)])
                for tag, (config, out) in self.runs.items()}

    def check(self, raw) -> Outcome:
        problems, final = [], {}
        for tag, (code, stdout) in raw.items():
            if code != 0:
                problems.append(f"{tag}: exit code {code}, output "
                                f"{stdout!r}")
                continue
            out = self.runs[tag][1]
            final[tag] = _read_snapshot(out / "final.csv", self.n, problems)
        if problems:
            return Outcome(None, float("nan"), "", problems)
        x = final["flat"]["x"]
        x_peak, _ = _peak(x, final["bump"]["tau_b"] - final["flat"]["tau_b"],
                          self.center)
        if not x_peak < self.center:
            problems.append(f"friction maximum at x={x_peak:.4f}, not "
                            f"upstream of the crest {self.center:.4f}")
        ref_l1 = _stewartson_l1(self.es, x, final["flat"]["delta1"],
                                self.t_end)
        outputs = [out / name for _, out in self.runs.values()
                   for name in ("final.csv", "final_profiles.csv")]
        return Outcome(None, ref_l1, _digest(outputs), problems)


WORKLOADS = {w.name: w for w in (BumpEnsemble, ImpulsiveCli, MlswBump)}
