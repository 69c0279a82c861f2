"""Scenario configuration, run orchestration and CSV emission."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analytic import ReferenceCurve, blasius_steady, gaussian_bump, l1_error
from .closures import (BLASIUS_F2, BLASIUS_H, DELTA1_FLOOR, ClosureLaw,
                       FalknerSkanFit, FixedProfile, Pohlhausen4,
                       closure_factors, ue_gradient)
from .errors import ConfigError, DomainError
from .mlsw import LayerGrid, MlswState, mlsw_diagnostics, mlsw_step
from .state import ConservedState, Grid1D, PhysicalParams, recover_delta1
from .timeloop import (BoundarySpec, RunState, SubcriticalInflow,
                       SupercriticalInflow, march, step)

SCENARIOS = ("BlasiusSteady", "ImpulsiveStart", "Bump", "MlswCompare")
_BED = ("Bump", "MlswCompare")          # the scenarios with a Gaussian bed
_SNAPSHOT_HEADER = "x,fb,h,u_e,delta1,tau_b,H,f2,Lambda1,U"
_CHUNK_ROWS = 4096  # rows formatted per write; bounds the string held
_CLOSURES = {
    "falkner-skan": lambda config: FalknerSkanFit(),
    "blasius": lambda config: FixedProfile(),
    "fixed": lambda config: FixedProfile(H=config.fixed_H, f2=config.fixed_f2),
    "pohlhausen4": lambda config: Pohlhausen4(),
}


def _snapshot_name(t: float) -> str:
    return f"snapshot_t{t + 0.0:.6f}.csv"   # -0.0 names the t = 0 file too


def _one_of(values):
    return "one of " + ", ".join(map(str, values)), values.__contains__


def _at_least(n):
    return f">= {n}", lambda v: v >= n


_FINITE = "finite", math.isfinite
_POSITIVE = "finite and > 0", lambda v: math.isfinite(v) and v > 0


def _key(key: str, default, domain=None, on=None, mlsw=None):
    """A ScenarioConfig field that is the one row of its configuration key:
    the dotted key, the default and the domain, a (text, test) pair, that
    the value must lie in within the scenarios on (None: every one). mlsw
    is a narrower domain for MlswCompare, which writes no snapshots and
    whose diagnostics need a viscous layer (delta_bar > 0) and two layers."""
    domains = [(*d, where) for d, where in ((domain, on),
                                            (mlsw, ("MlswCompare",))) if d]
    return field(default=default, metadata={"key": key, "domains": domains})


@dataclass(frozen=True)
class ScenarioConfig:
    """One field per configuration key, in metadata.txt order; the field's
    type (an annotation string) picks the key's converter in _PARSERS."""
    scenario: str = _key("scenario", "BlasiusSteady", _one_of(SCENARIOS))
    froude: float = _key(  # froude**2 is taken in the wave-speed bounds
        "physics.froude", 1.0, ("finite, > 0, with a finite nonzero square",
                                lambda v: v > 0 and 0 < v * v < math.inf))
    delta_bar: float = _key(
        "physics.delta_bar", 1e-3,
        ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
        mlsw=("> 0 with a finite square",  # nu = delta_bar**2 in mlsw_step
              lambda v: v > 0 and v * v < math.inf))
    closure: str = _key("physics.closure", "falkner-skan", _one_of(_CLOSURES))
    fixed_H: float = _key("physics.fixed_H", BLASIUS_H)
    fixed_f2: float = _key("physics.fixed_f2", BLASIUS_F2)
    x_min: float = _key("grid.x_min", 0.0)
    x_max: float = _key("grid.x_max", 0.1)
    n_cells: int = _key("grid.n_cells", 200, _at_least(10))
    h0: float = _key("init.h0", 2.0)
    u0: float = _key("init.u0", 1.0)
    bump_alpha: float = _key("bump.alpha", 0.01, _FINITE, on=_BED)
    bump_sigma: float = _key("bump.sigma", 0.1, _POSITIVE, on=_BED)
    bump_center: float = _key("bump.center", 1.0, _FINITE, on=_BED)
    t_end: float = _key("run.t_end", 1.0, _POSITIVE)
    snapshot_times: tuple = _key(
        "run.snapshot_times", (),
        ("times with distinct snapshot file names",
         lambda ts: len({_snapshot_name(t) for t in ts}) == len(ts)),
        mlsw=("empty", lambda ts: not ts))
    gradient_order: int = _key("run.gradient_order", 4, _one_of((2, 4)))
    n_layers: int = _key("mlsw.n_layers", 100, _at_least(1), mlsw=_at_least(2))
    out_dir: str = _key("output.dir", "out")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for text, test, on in f.metadata["domains"]:
                if (on is None or self.scenario in on) and not test(value):
                    where = "" if on is None else f" for {self.scenario}"
                    raise ConfigError(f"{f.metadata['key']} = {value!r} "
                                      f"must be {text}{where}")
        if any(not 0.0 <= t <= self.t_end for t in self.snapshot_times):
            raise ConfigError("run.snapshot_times must lie in [0, run.t_end]")
        # inf - inf is NaN, and an overflowing span gives dx = inf
        if not (self.x_max > self.x_min
                and math.isfinite(self.x_max - self.x_min)):
            raise ConfigError("grid.x_max must exceed grid.x_min by a "
                              "finite length")
        try:
            self.closure_law()
        except DomainError as exc:
            raise ConfigError(
                f"physics.fixed_H, physics.fixed_f2: {exc}") from exc

    def closure_law(self) -> ClosureLaw:
        return _CLOSURES[self.closure](self)

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(froude=self.froude, delta_bar=self.delta_bar,
                              closure=self.closure_law())

    def grid(self) -> Grid1D:
        topo = None
        if self.scenario in _BED:
            topo = lambda x: gaussian_bump(x, self.bump_alpha,
                                           self.bump_sigma, self.bump_center)
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
        left = SubcriticalInflow(u_in=self.u0)
        if self.froude * self.u0 / np.sqrt(self.h0) > 1.0:
            left = SupercriticalInflow(u_in=self.u0, h_in=self.h0)
        return BoundarySpec(left=left)


_PARSERS = {"str": str, "int": int, "float": float,
            "tuple": lambda s: tuple(float(v) for v in s.split())}


def parse_config(path=None, overrides: Sequence[str] = ()) -> ScenarioConfig:
    """Read a key=value config file, if any; overrides apply afterwards."""
    rows = {f.metadata["key"]: f for f in fields(ScenarioConfig)}
    lines = Path(path).read_text().splitlines() if path is not None else []
    pairs = [(f"{path}:{lineno}", line) for lineno, line in enumerate(lines, 1)
             if line.strip() and not line.lstrip().startswith("#")]
    values = {}
    for src, line in pairs + [("--set", ov) for ov in overrides]:
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{src}: expected key=value")
        if key not in rows:
            raise ConfigError(f"{src}: unknown key {key!r}")
        try:
            values[rows[key].name] = _PARSERS[rows[key].type](val)
        except ValueError as exc:
            raise ConfigError(f"{src}: bad value for {key}: {exc}") from exc
    return ScenarioConfig(**values)


def config_to_text(config: ScenarioConfig) -> str:
    out = []
    for row in fields(config):
        val = getattr(config, row.name)
        if isinstance(val, tuple):
            val = " ".join(f"{t:.17g}" for t in val)
        out.append(f"{row.metadata['key']}={val}")
    return "\n".join(out) + "\n"


def _run_columns(bits: np.ndarray):
    """Run breaks (bits[i] != bits[i-1] for rows 1..m-1) of an (m, k) chunk,
    and which columns have at most m/2 runs of equal neighbours."""
    breaks = bits[1:] != bits[:-1]
    return breaks, 2 * (1 + breaks.sum(axis=0)) <= len(bits)


def _segments(bits: np.ndarray):
    """The first rows of an (m, k) chunk's segments, the stretches where no
    run column breaks, and the run columns; none if segments outnumber m/4."""
    breaks, runs = _run_columns(bits)
    starts = np.flatnonzero(np.r_[True, breaks[:, runs].any(axis=1)])
    return (starts, runs) if 4 * starts.size <= len(bits) else \
        (starts[:1], np.zeros_like(runs))       # scattered runs: plain rows


def _write_rows(path, header: str, columns, x_text=None) -> None:
    """Write a CSV of equal-length columns, every value as "%.17g" (the
    bytes of f"{v:.17g}"), one template substitution per chunk of
    _CHUNK_ROWS rows so that no whole-file string is held. The template
    repeats each segment's row, with its run values formatted in once, over
    the segment; the other columns fill it. Bits, not values, define a run:
    -0.0 and 0.0 print differently, and NaNs merge only when equal. x_text
    (Grid1D.x_text), one str per row, fills the first column wherever it is
    not a run, which a grid's distinct x never is."""
    table = np.column_stack(columns)
    bits = table.view(f"u{table.itemsize}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start:start + _CHUNK_ROWS]
            starts, runs = _segments(bits[start:start + _CHUNK_ROWS])
            slots = ["%.17g" if r else "%%.17g" for r in runs]
            lead = None
            if x_text is not None and not runs[0]:
                slots[0] = "%%s"
                lead = x_text[start:start + len(chunk)]
            plain = chunk[:, ~runs] if runs.any() else chunk
            row = ",".join(slots) + "\n"
            f.write("".join(row % tuple(heads) * k for heads, k in zip(
                chunk[starts][:, runs].tolist(),
                np.diff(starts, append=len(chunk)).tolist()))
                % _row_values(plain, lead))


def _row_values(plain, lead):
    """The values of plain row by row, lead's text in its first column; the
    list is freed on return, before the write, as a temporary would be."""
    values = plain.ravel().tolist()
    if lead is not None:
        values[::plain.shape[1]] = lead
    return tuple(values)


def emit_snapshot(W: ConservedState, grid: Grid1D, params: PhysicalParams,
                  path, gradient_order: int = 4) -> None:
    """Write one per-cell snapshot CSV (deterministic byte-for-byte)."""
    x = grid.cell_centers
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    lambda1 = delta1**2 * ue_gradient(u_e, grid.dx, order=gradient_order)
    H, f2 = closure_factors(params.closure, lambda1)
    tau_b = f2 * H * u_e / np.maximum(delta1, DELTA1_FLOOR)
    U = (1.0 - params.delta_bar * delta1 / W.h) * u_e
    _write_rows(path, _SNAPSHOT_HEADER,
                (x, grid.topo, W.h, u_e, delta1, tau_b, H, f2, lambda1, U),
                x_text=grid.x_text)


def _write_metadata(config: ScenarioConfig, out_dir: Path, wall_time: float,
                    run: RunState) -> None:
    lines = [f"code_version={__version__}",
             f"wall_time_seconds={wall_time:.3f}"]
    lines += config_to_text(config).rstrip("\n").split("\n")
    lines += [f"t_final={run.t:.17g}", f"steps={run.step_count}"]
    (out_dir / "metadata.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def model(config: ScenarioConfig):
    """(grid, start, take_step, write) of the configured model: the t = 0
    RunState (h0, and u0 in every cell and MLSW layer; no ESW viscous
    layer), take_step(W, dt_cap) -> (W, dt) and write(W, path)."""
    grid, params = config.grid(), config.physical_params()
    boundaries = config.boundary_spec()
    n, order = config.n_cells, config.gradient_order
    if config.scenario == "MlswCompare":
        layers, left = LayerGrid(config.n_layers), boundaries.left
        try:
            W = MlswState.uniform(layers, n, config.h0, config.u0)
        except (MemoryError, OverflowError, ValueError) as exc:
            raise ConfigError(f"mlsw.n_layers too large: {exc}") from exc
        take_step = lambda W, dt_cap: mlsw_step(W, layers, params, grid,
                                                left, dt_cap)
        write = lambda W, path: emit_mlsw_snapshot(W, layers, grid, params,
                                                   path, order)
    else:
        W = ConservedState(h=np.full(n, config.h0),
                           q=np.full(n, config.h0 * config.u0), r=np.zeros(n))
        take_step = lambda W, dt_cap: step(W, grid, params, boundaries,
                                           order, dt_cap)
        write = lambda W, path: emit_snapshot(W, grid, params, path, order)
    return grid, RunState(t=0.0, step_count=0, W=W), take_step, write


def initial_state(config: ScenarioConfig) -> RunState:
    """The t = 0 state of the configured model (see model)."""
    return model(config)[1]


def run_scenario(config: ScenarioConfig, out_dir=None) -> RunState:
    """Run one scenario: write final.csv, metadata.txt and the snapshot CSVs
    (ESW) or final_profiles.csv (MlswCompare, whose RunState.W is the final
    MlswState); returns the final RunState."""
    _, run, take_step, write = model(config)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    run = march(run, config.t_end, take_step, config.snapshot_times,
                lambda state: write(state.W, out / _snapshot_name(state.t)))
    write(run.W, out / "final.csv")
    _write_metadata(config, out, time.perf_counter() - t0, run)
    return run


def convergence_study(config: ScenarioConfig, dx_list, out_dir=None) -> list:
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
    models = [model(cfg) for cfg in configs]
    results = []
    for cfg, (grid, start, take_step, _) in zip(configs, models):
        t0 = time.perf_counter()
        run = march(start, cfg.t_end, take_step)
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
                       params: PhysicalParams, path, gradient_order: int = 4):
    """Snapshot CSV in the common column layout, plus the per-layer profiles
    in <stem>_profiles.csv beside it."""
    delta1, _, H, f2, tau_bar = mlsw_diagnostics(state, layers, params)
    x = grid.cell_centers
    u_e = state.u[-1]
    U = np.sum(layers.fractions[:, None] * state.u, axis=0)
    lambda1 = delta1**2 * ue_gradient(u_e, grid.dx, order=gradient_order)
    _write_rows(path, _SNAPSHOT_HEADER, (x, grid.topo, state.h, u_e, delta1,
                                         tau_bar, H, f2, lambda1, U))
    z = layers.interfaces
    z_mid = 0.5 * (z[:-1] + z[1:])
    N = layers.n_layers      # one row per (cell, layer), layer fastest
    path = Path(path)
    _write_rows(path.with_name(f"{path.stem}_profiles.csv"),
                "x,layer_index,z_mid,u",
                (np.repeat(x, N), np.tile(np.arange(1, N + 1), x.size),
                 (z_mid[None, :] * state.h[:, None]).ravel(),
                 state.u.T.ravel()))
