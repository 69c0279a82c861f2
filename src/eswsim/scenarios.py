"""Scenario configuration, run orchestration and CSV emission."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analytic import ReferenceCurve, blasius_steady, gaussian_bump, l1_error
from .closures import (BlasiusConstant, ClosureLaw, FalknerSkanFit,
                       FixedProfile, Pohlhausen4, evaluate_closure,
                       ue_gradient)
from .errors import ConfigError, DomainError, NonSteady
from .mlsw import LayerGrid, MlswState, mlsw_compute_dt, mlsw_diagnostics, \
    mlsw_step
from .state import ConservedState, Grid1D, PhysicalParams, recover_delta1
from .timeloop import (BoundarySpec, FreeOutflow, RunState, SubcriticalInflow,
                       SupercriticalInflow, advance)

SCENARIOS = ("BlasiusSteady", "ImpulsiveStart", "Bump", "MlswCompare")
_SNAPSHOT_HEADER = "x,fb,h,u_e,delta1,tau_b,H,f2,Lambda1,U"
_CHUNK_ROWS = 4096  # rows formatted per write; bounds the string held


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "BlasiusSteady"
    froude: float = 1.0
    delta_bar: float = 1e-3
    x_min: float = 0.0
    x_max: float = 0.1
    n_cells: int = 200
    h0: float = 2.0
    u0: float = 1.0
    bump_alpha: float = 0.01
    bump_sigma: float = 0.1
    bump_center: float = 1.0
    t_end: float = 1.0
    snapshot_times: tuple = ()
    closure: str = "falkner-skan"
    fixed_H: float = 2.59
    fixed_f2: float = 0.22
    gradient_order: int = 4
    cfl_number: float = 0.9
    dt_max: float = float("inf")
    boundary: str = "auto"       # auto | subcritical | supercritical
    n_layers: int = 100
    steady_tol: float = 1e-8
    max_steps: int = 20_000_000
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.n_cells < 10:
            raise ConfigError("n_cells must be at least 10")
        if any(t < 0 or t > self.t_end for t in self.snapshot_times):
            raise ConfigError("snapshot times must lie in [0, t_end]")
        if self.gradient_order not in (2, 4):
            raise ConfigError("gradient_order must be 2 or 4")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ConfigError("cfl_number must lie in (0, 1]")
        if self.n_layers < 1:
            raise ConfigError("n_layers must be at least 1")
        if not (np.isfinite(self.froude) and self.froude > 0.0):
            raise ConfigError("froude must be finite and positive")
        if not (np.isfinite(self.delta_bar) and self.delta_bar >= 0.0):
            raise ConfigError("delta_bar must be finite and nonnegative")
        if not self.x_max > self.x_min:
            raise ConfigError("x_max must exceed x_min")

    def closure_law(self) -> ClosureLaw:
        name = self.closure
        if name == "falkner-skan":
            return FalknerSkanFit()
        if name == "blasius":
            return BlasiusConstant()
        if name == "fixed":
            return FixedProfile(H=self.fixed_H, f2=self.fixed_f2)
        if name == "pohlhausen4":
            return Pohlhausen4()
        raise ConfigError(f"unknown closure {name!r}")

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(froude=self.froude, delta_bar=self.delta_bar,
                              closure=self.closure_law())

    def grid(self) -> Grid1D:
        if self.scenario in ("Bump", "MlswCompare"):
            topo_fn = lambda x: gaussian_bump(x, self.bump_alpha,
                                              self.bump_sigma,
                                              self.bump_center)
        else:
            topo_fn = None
        return Grid1D.uniform(self.x_min, self.x_max, self.n_cells, topo_fn)

    def boundary_spec(self) -> BoundarySpec:
        # a named numerical failure (exit code 3) before a sqrt of h0 or of
        # the inflow depth warns about an invalid value
        if not self.h0 > 0.0:
            raise DomainError(f"initial depth h0 = {self.h0!r} is not positive")
        mode = self.boundary
        if mode == "auto":
            local_froude = self.froude * self.u0 / np.sqrt(self.h0)
            mode = "supercritical" if local_froude > 1.0 else "subcritical"
        if mode == "supercritical":
            left = SupercriticalInflow(u_in=self.u0, h_in=self.h0)
        elif mode == "subcritical":
            left = SubcriticalInflow(u_in=self.u0)
        else:
            raise ConfigError(f"unknown boundary mode {self.boundary!r}")
        return BoundarySpec(left=left, right=FreeOutflow())


_CONFIG_KEYS = {
    "scenario": ("scenario", str),
    "physics.froude": ("froude", float),
    "physics.delta_bar": ("delta_bar", float),
    "physics.closure": ("closure", str),
    "physics.fixed_H": ("fixed_H", float),
    "physics.fixed_f2": ("fixed_f2", float),
    "grid.x_min": ("x_min", float),
    "grid.x_max": ("x_max", float),
    "grid.n_cells": ("n_cells", int),
    "init.h0": ("h0", float),
    "init.u0": ("u0", float),
    "bump.alpha": ("bump_alpha", float),
    "bump.sigma": ("bump_sigma", float),
    "bump.center": ("bump_center", float),
    "run.t_end": ("t_end", float),
    "run.snapshot_times": ("snapshot_times",
                           lambda s: tuple(float(v) for v in s.split()) if s
                           else ()),
    "run.gradient_order": ("gradient_order", int),
    "run.cfl_number": ("cfl_number", float),
    "run.dt_max": ("dt_max", float),
    "run.boundary": ("boundary", str),
    "run.steady_tol": ("steady_tol", float),
    "run.max_steps": ("max_steps", int),
    "mlsw.n_layers": ("n_layers", int),
    "output.dir": ("out_dir", str),
}


def parse_config(path=None, overrides: Sequence[str] = ()) -> ScenarioConfig:
    """Read a key=value config file, if any; overrides apply afterwards."""
    values = {}
    lines = Path(path).read_text().splitlines() if path is not None else []
    pairs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        pairs.append((f"{path}:{lineno}", key.strip(), val.strip()))
    pairs += [("--set", *ov.partition("=")[::2]) for ov in overrides]
    for src, key, val in pairs:
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{src}: unknown key {key!r}")
        fieldname, conv = _CONFIG_KEYS[key]
        try:
            values[fieldname] = conv(val.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{src}: bad value for {key}: {exc}") from exc
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(config: ScenarioConfig) -> str:
    out = []
    for key, (fieldname, _) in _CONFIG_KEYS.items():
        val = getattr(config, fieldname)
        if fieldname == "snapshot_times":
            val = " ".join(f"{t:.17g}" for t in val)
        out.append(f"{key}={val}")
    return "\n".join(out) + "\n"


def _write_rows(path, header: str, columns) -> None:
    """Write a CSV of equal-length columns, every value as "%.17g"
    (the bytes of f"{v:.17g}"), one template substitution per chunk of
    _CHUNK_ROWS rows so that no whole-file string is held."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start:start + _CHUNK_ROWS]
            f.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def emit_snapshot(W: ConservedState, grid: Grid1D, params: PhysicalParams,
                  path, gradient_order: int = 4) -> None:
    """Write one per-cell snapshot CSV (deterministic byte-for-byte)."""
    x = grid.cell_centers
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    dudx = ue_gradient(u_e, grid.dx, order=gradient_order) if x.size >= 5 \
        else np.zeros_like(u_e)
    ev = evaluate_closure(params.closure, delta1, u_e, dudx)
    U = (1.0 - params.delta_bar * delta1 / W.h) * u_e
    _write_rows(path, _SNAPSHOT_HEADER,
                (x, grid.topo, W.h, u_e, delta1, ev.tau_bar, ev.H, ev.f2,
                 ev.lambda1, U))


def _write_metadata(config: ScenarioConfig, out_dir: Path, wall_time: float,
                    extra: Optional[dict] = None) -> None:
    lines = [f"code_version={__version__}",
             f"wall_time_seconds={wall_time:.3f}"]
    lines += config_to_text(config).rstrip("\n").split("\n")
    for k, v in (extra or {}).items():
        lines.append(f"{k}={v}")
    (out_dir / "metadata.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def initial_state(config: ScenarioConfig) -> RunState:
    n = config.n_cells
    W = ConservedState(h=np.full(n, config.h0),
                       q=np.full(n, config.h0 * config.u0),
                       r=np.zeros(n))
    return RunState(t=0.0, step_count=0, W=W)


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunState:
    """Run one scenario, writing snapshot CSVs, a final CSV and metadata."""
    if config.scenario == "MlswCompare":
        return run_mlsw_scenario(config, out_dir)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = config.grid()
    params = config.physical_params()
    boundaries = config.boundary_spec()
    run = initial_state(config)
    t0 = time.perf_counter()

    def snap(state: RunState):
        emit_snapshot(state.W, grid, params,
                      out / f"snapshot_t{state.t:.6f}.csv",
                      gradient_order=config.gradient_order)

    run = advance(run, config.t_end, grid, params, boundaries,
                  cfl_number=config.cfl_number,
                  gradient_order=config.gradient_order,
                  dt_max=config.dt_max,
                  snapshot_times=config.snapshot_times, on_snapshot=snap)
    emit_snapshot(run.W, grid, params, out / "final.csv",
                  gradient_order=config.gradient_order)
    _write_metadata(config, out, time.perf_counter() - t0)
    return run


def run_to_steady(config: ScenarioConfig, check_every: int = 200):
    """Advance until the state stops changing; returns (RunState, grid).

    Steadiness: max relative state change per unit time below steady_tol.
    """
    grid = config.grid()
    params = config.physical_params()
    boundaries = config.boundary_spec()
    run = initial_state(config)
    from .timeloop import step as _step
    prev = None
    t_prev = 0.0
    while run.step_count < config.max_steps:
        run = _step(run, grid, params, boundaries,
                    cfl_number=config.cfl_number,
                    gradient_order=config.gradient_order,
                    dt_max=config.dt_max)
        if run.step_count % check_every == 0:
            cur = np.concatenate([run.W.h, run.W.q, run.W.r])
            if prev is not None:
                scale = np.maximum(np.max(np.abs(cur)), 1.0)
                rate = np.max(np.abs(cur - prev)) / scale / (run.t - t_prev)
                if rate < config.steady_tol:
                    return run, grid
            prev = cur
            t_prev = run.t
    raise NonSteady(f"no steady state within {config.max_steps} steps")


def convergence_study(config: ScenarioConfig, dx_list,
                      out_dir=None) -> list:
    """Blasius-steady mesh refinement; returns [(dx, error, seconds)].

    The L1 gap against the flat-plate reference excludes the first interior
    cell, where the leading-edge shear singularity is unresolvable.
    """
    if config.scenario != "BlasiusSteady":
        raise ConfigError("convergence study requires the BlasiusSteady "
                          "scenario")
    results = []
    for dx in dx_list:
        n = int(round((config.x_max - config.x_min) / dx))
        cfg = replace(config, n_cells=n)
        t0 = time.perf_counter()
        run, grid = run_to_steady(cfg)
        seconds = time.perf_counter() - t0
        x = grid.cell_centers[1:]
        delta1 = recover_delta1(run.W.q, run.W.r, run.W.h)[1:]
        ref, _ = blasius_steady(x, u_e0=cfg.u0)
        err = l1_error(ReferenceCurve(x, delta1, "numeric"),
                       ReferenceCurve(x, ref, "blasius"))
        results.append((grid.dx, err, seconds))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_rows(out / "convergence.csv", "dx,error,runtime_seconds",
                    np.reshape(results, (-1, 3)).T)
    return results


def run_mlsw_scenario(config: ScenarioConfig, out_dir=None):
    """Run the multilayer reference on the configured topography."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = config.grid()
    params = config.physical_params()
    layers = LayerGrid(config.n_layers)
    left = config.boundary_spec().left
    state = MlswState.uniform(layers, config.n_cells, config.h0, config.u0)
    t = 0.0
    t0 = time.perf_counter()
    while t < config.t_end - 1e-14:
        dt = mlsw_compute_dt(state, params, grid.dx,
                             cfl_number=config.cfl_number,
                             dt_max=min(config.dt_max, config.t_end - t))
        state = mlsw_step(state, layers, dt, params, grid, left)
        t += dt
    emit_mlsw_snapshot(state, layers, grid, params, out / "final.csv",
                       out / "final_profiles.csv")
    _write_metadata(config, out, time.perf_counter() - t0,
                    extra={"t_final": f"{t:.17g}"})
    return state, layers, grid


def emit_mlsw_snapshot(state: MlswState, layers: LayerGrid, grid: Grid1D,
                       params: PhysicalParams, path, profiles_path=None):
    """Snapshot CSV in the common column layout plus per-layer profiles."""
    delta1, _, H, f2, tau_bar = mlsw_diagnostics(state, layers, params)
    x = grid.cell_centers
    u_e = state.u[-1]
    U = np.sum(layers.fractions[:, None] * state.u, axis=0)
    dudx = ue_gradient(u_e, grid.dx, order=4) if x.size >= 5 \
        else np.zeros_like(u_e)
    lambda1 = delta1**2 * dudx
    _write_rows(path, _SNAPSHOT_HEADER,
                (x, grid.topo, state.h, u_e, delta1, tau_bar, H, f2, lambda1,
                 U))
    if profiles_path is not None:
        z = layers.interfaces
        z_mid = 0.5 * (z[:-1] + z[1:])
        N = layers.n_layers      # one row per (cell, layer), layer fastest
        _write_rows(profiles_path, "x,layer_index,z_mid,u",
                    (np.repeat(x, N), np.tile(np.arange(1, N + 1), x.size),
                     (z_mid[None, :] * state.h[:, None]).ravel(),
                     state.u.T.ravel()))
