"""Scenario configuration, run orchestration and CSV emission."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analytic import ReferenceCurve, blasius_steady, gaussian_bump, l1_error
from .closures import (BLASIUS_F2, BLASIUS_H, DELTA1_FLOOR, ClosureLaw,
                       FalknerSkanFit, FixedProfile, Pohlhausen4,
                       closure_factors, ue_gradient)
from .errors import ConfigError, DomainError
from .mlsw import LayerGrid, MlswState, mlsw_compute_dt, mlsw_diagnostics, \
    mlsw_step
from .state import ConservedState, Grid1D, PhysicalParams, recover_delta1
from .timeloop import (BoundarySpec, RunState, SubcriticalInflow,
                       SupercriticalInflow, advance, march)

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
    fixed_H: float = BLASIUS_H
    fixed_f2: float = BLASIUS_F2
    gradient_order: int = 4
    n_layers: int = 100
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.n_cells < 10:
            raise ConfigError("n_cells must be at least 10")
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigError("t_end must be finite and positive")
        if any(not 0.0 <= t <= self.t_end for t in self.snapshot_times):
            raise ConfigError("snapshot times must lie in [0, t_end]")
        if self.scenario == "MlswCompare" and self.snapshot_times:
            raise ConfigError("MlswCompare takes no run.snapshot_times")
        if self.gradient_order not in (2, 4):
            raise ConfigError("gradient_order must be 2 or 4")
        if self.n_layers < 1:
            raise ConfigError("n_layers must be at least 1")
        if not (np.isfinite(self.froude) and self.froude > 0.0):
            raise ConfigError("froude must be finite and positive")
        if not (np.isfinite(self.delta_bar) and self.delta_bar >= 0.0):
            raise ConfigError("delta_bar must be finite and nonnegative")
        # inf - inf is NaN, and an overflowing span gives dx = inf
        if not (self.x_max > self.x_min
                and np.isfinite(self.x_max - self.x_min)):
            raise ConfigError("x_max must exceed x_min by a finite length")
        if self.scenario in ("Bump", "MlswCompare"):
            if not (np.isfinite(self.bump_sigma) and self.bump_sigma > 0.0):
                raise ConfigError("bump sigma must be finite and positive")
            if not np.isfinite([self.bump_alpha, self.bump_center]).all():
                raise ConfigError("bump alpha and center must be finite")
        if self.closure == "fixed" and not (
                np.isfinite(self.fixed_H) and self.fixed_H >= 1.0
                and np.isfinite(self.fixed_f2)):
            raise ConfigError("the fixed closure needs a finite fixed_H >= 1 "
                              "and a finite fixed_f2")

    def closure_law(self) -> ClosureLaw:
        name = self.closure
        if name == "falkner-skan":
            return FalknerSkanFit()
        if name == "blasius":
            return FixedProfile()
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
            topo = lambda x: gaussian_bump(x, self.bump_alpha,
                                           self.bump_sigma, self.bump_center)
        else:
            topo = None
        try:
            return Grid1D.uniform(self.x_min, self.x_max, self.n_cells, topo)
        except (MemoryError, OverflowError, ValueError) as exc:
            raise ConfigError(f"grid.n_cells too large: {exc}") from exc

    def boundary_spec(self) -> BoundarySpec:
        # a named numerical failure (exit code 3) before a sqrt of h0 or of
        # the inflow depth warns about an invalid value
        if not (np.isfinite(self.h0) and self.h0 > 0.0):
            raise DomainError(f"init.h0 = {self.h0!r} is not finite and > 0")
        if not np.isfinite(self.u0):
            raise DomainError(f"init.u0 = {self.u0!r} is not finite")
        if self.froude * self.u0 / np.sqrt(self.h0) > 1.0:
            left = SupercriticalInflow(u_in=self.u0, h_in=self.h0)
        else:
            left = SubcriticalInflow(u_in=self.u0)
        return BoundarySpec(left=left)


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


def _run_columns(bits: np.ndarray):
    """Run breaks (bits[i] != bits[i-1] for rows 1..m-1) of an (m, k) chunk,
    and which columns have at most m/2 runs of equal neighbours."""
    breaks = bits[1:] != bits[:-1]
    return breaks, 2 * (1 + breaks.sum(axis=0)) <= len(bits)


def _write_rows(path, header: str, columns) -> None:
    """Write a CSV of equal-length columns, every value as "%.17g"
    (the bytes of f"{v:.17g}"), one template substitution per chunk of
    _CHUNK_ROWS rows so that no whole-file string is held.

    Within a chunk, a column that is mostly runs of equal bits formats each
    run's first value once and repeats the string. Bits, not values, define
    a run: -0.0 and 0.0 print differently, and NaNs merge only when equal."""
    table = np.column_stack(columns)
    bits = table.view(f"u{table.itemsize}")
    plain = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start:start + _CHUNK_ROWS]
            m = len(chunk)
            breaks, runs = _run_columns(bits[start:start + _CHUNK_ROWS])
            if not runs.any():
                f.write(plain * m % tuple(chunk.ravel().tolist()))
                continue
            cells = np.empty(chunk.shape, dtype=object)  # this chunk only
            cells[:, ~runs] = chunk[:, ~runs]
            for j in np.flatnonzero(runs):
                first = np.flatnonzero(np.concatenate(([True],
                                                       breaks[:, j])))
                text = ["%.17g" % v for v in chunk[first, j].tolist()]
                cells[:, j] = np.repeat(np.array(text, dtype=object),
                                        np.diff(first, append=m))
            row = ",".join("%s" if r else "%.17g" for r in runs) + "\n"
            f.write(row * m % tuple(cells.ravel().tolist()))


def emit_snapshot(W: ConservedState, grid: Grid1D, params: PhysicalParams,
                  path, gradient_order: int = 4) -> None:
    """Write one per-cell snapshot CSV (deterministic byte-for-byte)."""
    x = grid.cell_centers
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    dudx = ue_gradient(u_e, grid.dx, order=gradient_order) if x.size >= 5 \
        else np.zeros_like(u_e)
    lambda1 = delta1**2 * dudx
    H, f2 = closure_factors(params.closure, lambda1)
    tau_b = f2 * H * u_e / np.maximum(delta1, DELTA1_FLOOR)
    U = (1.0 - params.delta_bar * delta1 / W.h) * u_e
    _write_rows(path, _SNAPSHOT_HEADER,
                (x, grid.topo, W.h, u_e, delta1, tau_b, H, f2, lambda1, U))


def _write_metadata(config: ScenarioConfig, out_dir: Path, wall_time: float,
                    run: RunState) -> None:
    lines = [f"code_version={__version__}",
             f"wall_time_seconds={wall_time:.3f}"]
    lines += config_to_text(config).rstrip("\n").split("\n")
    lines += [f"t_final={run.t:.17g}", f"steps={run.step_count}"]
    (out_dir / "metadata.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def initial_state(config: ScenarioConfig) -> RunState:
    """The t = 0 state of either model: depth h0 and velocity u0 in every
    cell, with no viscous layer (ESW) or the same velocity in every layer
    (MlswCompare, whose W is an MlswState)."""
    n = config.n_cells
    if config.scenario == "MlswCompare":
        try:
            W = MlswState.uniform(LayerGrid(config.n_layers), n, config.h0,
                                  config.u0)
        except (MemoryError, OverflowError, ValueError) as exc:
            raise ConfigError(f"mlsw.n_layers too large: {exc}") from exc
    else:
        W = ConservedState(h=np.full(n, config.h0),
                           q=np.full(n, config.h0 * config.u0),
                           r=np.zeros(n))
    return RunState(t=0.0, step_count=0, W=W)


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunState:
    """Run one scenario: write final.csv, metadata.txt and the snapshot CSVs
    (ESW) or final_profiles.csv (MlswCompare, whose RunState.W is the final
    MlswState); returns the final RunState."""
    grid = config.grid()
    params = config.physical_params()
    boundaries = config.boundary_spec()
    run = initial_state(config)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if config.scenario == "MlswCompare":
        layers = LayerGrid(config.n_layers)

        def mlsw_take_step(run: RunState, dt_cap) -> RunState:
            dt = mlsw_compute_dt(run.W, params, grid.dx, dt_cap=dt_cap)
            W = mlsw_step(run.W, layers, dt, params, grid, boundaries.left)
            return RunState(t=run.t + dt, step_count=run.step_count + 1, W=W)

        run = march(run, config.t_end, mlsw_take_step)
        emit_mlsw_snapshot(run.W, layers, grid, params, out / "final.csv",
                           out / "final_profiles.csv")
    else:
        def snap(state: RunState):
            emit_snapshot(state.W, grid, params,
                          out / f"snapshot_t{state.t:.6f}.csv",
                          gradient_order=config.gradient_order)

        run = advance(run, config.t_end, grid, params, boundaries,
                      gradient_order=config.gradient_order,
                      snapshot_times=config.snapshot_times, on_snapshot=snap)
        emit_snapshot(run.W, grid, params, out / "final.csv",
                      gradient_order=config.gradient_order)
    _write_metadata(config, out, time.perf_counter() - t0, run)
    return run


def convergence_study(config: ScenarioConfig, dx_list,
                      out_dir=None) -> list:
    """BlasiusSteady mesh refinement to t_end; returns [(dx, error, seconds)].

    The L1 gap against the flat-plate reference excludes the first interior
    cell, where the leading-edge shear singularity is unresolvable.
    """
    if config.scenario != "BlasiusSteady":
        raise ConfigError("convergence study requires the BlasiusSteady "
                          "scenario")
    if config.snapshot_times:
        raise ConfigError("convergence study takes no run.snapshot_times")
    span = config.x_max - config.x_min
    # NaN fails too; a tiny dx overflows span/dx to inf
    if not all(0.0 < dx < np.inf and span / dx < np.inf for dx in dx_list):
        raise ConfigError("every dx must be finite and positive, with a "
                          "finite cell count")
    # every mesh is validated and allocated before the first one runs
    configs = [replace(config, n_cells=int(round(span / dx)))
               for dx in dx_list]
    grids = [cfg.grid() for cfg in configs]
    results = []
    for cfg, grid in zip(configs, grids):
        t0 = time.perf_counter()
        run = advance(initial_state(cfg), cfg.t_end, grid,
                      cfg.physical_params(), cfg.boundary_spec(),
                      gradient_order=cfg.gradient_order)
        seconds = time.perf_counter() - t0
        x = grid.cell_centers[1:]
        delta1 = recover_delta1(run.W.q, run.W.r, run.W.h)[1:]
        ref, _ = blasius_steady(x, u_e0=cfg.u0)
        err = l1_error(ReferenceCurve(x, delta1), ReferenceCurve(x, ref))
        results.append((grid.dx, err, seconds))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_rows(out / "convergence.csv", "dx,error,runtime_seconds",
                    np.reshape(results, (-1, 3)).T)
    return results


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
