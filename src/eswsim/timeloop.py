"""Time integration: splitting scheme, CFL control and boundary conditions.

Each step applies, in order: ghost-cell boundary conditions, velocity
gradient freeze, one evaluation of every cell (closure, wave-speed bounds,
flux) that the later phases share, CFL time-step selection, the Godunov
convection step and the semi-implicit friction step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .closures import ue_gradient
from .errors import (DryCell, NegativeDiscriminant, NonFiniteState,
                     NonpositiveTimeStep, StepFailure)
from .riemann import CellEval, evaluate_cells, solve_local_riemann
from .state import (ConservedState, Grid1D, H_DRY, PhysicalParams,
                    layer_fill_fraction, recover_delta1)

log = logging.getLogger(__name__)

N_GHOST = 2  # the order-4 gradient stencil needs two ghost cells per side


@dataclass(frozen=True)
class SubcriticalInflow:
    u_in: float


@dataclass(frozen=True)
class SupercriticalInflow:
    u_in: float
    h_in: float


@dataclass(frozen=True)
class FreeOutflow:
    pass


# not typing.Union, for the reason given at closures.ClosureLaw
InflowSpec = SubcriticalInflow | SupercriticalInflow


@dataclass(frozen=True)
class BoundarySpec:
    left: InflowSpec
    right: FreeOutflow = field(default_factory=FreeOutflow)


@dataclass(frozen=True)
class RunState:
    """Time, step counter, interior states and accumulated diagnostics."""

    t: float
    step_count: int
    W: ConservedState
    diagnostics: dict = field(default_factory=dict)


def apply_boundaries(W: ConservedState, spec: BoundarySpec,
                     params: PhysicalParams) -> ConservedState:
    """Return the state extended by two ghost cells per side.

    Inflow imposes the edge velocity with a flat profile (delta1 = 0); the
    subcritical variant recovers the ghost depth from the outgoing classical
    shallow-water Riemann invariant. Outflow copies the last interior cell.
    """
    h1, q1 = W.h[0], W.q[0]
    u1 = q1 / h1
    left = spec.left
    if isinstance(left, SupercriticalInflow):
        h_g = left.h_in
        u_g = left.u_in
    elif isinstance(left, SubcriticalInflow):
        u_g = left.u_in
        # outgoing characteristic u - 2*sqrt(h)/Fr extrapolated from the
        # first interior cell fixes the ghost depth once u_in is imposed
        sqrt_hg = np.sqrt(h1) + params.froude * (left.u_in - u1) / 2.0
        if sqrt_hg <= 0.0:
            log.warning("inflow invariant produced nonpositive depth; clamping")
            h_g = H_DRY
        else:
            h_g = sqrt_hg**2
    else:
        raise TypeError(f"unsupported left boundary: {left!r}")
    ghost_left = (np.full(N_GHOST, h_g), np.full(N_GHOST, h_g * u_g),
                  np.zeros(N_GHOST))
    ghost_right = (np.full(N_GHOST, W.h[-1]), np.full(N_GHOST, W.q[-1]),
                   np.full(N_GHOST, W.r[-1]))
    return ConservedState(
        h=np.concatenate([ghost_left[0], W.h, ghost_right[0]]),
        q=np.concatenate([ghost_left[1], W.q, ghost_right[1]]),
        r=np.concatenate([ghost_left[2], W.r, ghost_right[2]]))


def extended_topo(grid: Grid1D) -> np.ndarray:
    """Topography with flat extension into the ghost cells."""
    return np.concatenate([np.full(N_GHOST, grid.topo[0]), grid.topo,
                           np.full(N_GHOST, grid.topo[-1])])


def frozen_gradient(W_ext: ConservedState, dx, order=4) -> np.ndarray:
    """Velocity gradient over the extended state, frozen for the step."""
    u_e = W_ext.q / W_ext.h
    return ue_gradient(u_e, dx, order=order)


def compute_dt(cells: CellEval, dx, cfl_number=0.9, dt_max=np.inf,
               dt_cap: Optional[float] = None):
    """(dt, limiter) for an evaluated extended state: the CFL step from the
    Nickalls bounds, reduced by the reverse-flow cap, dt_max and dt_cap;
    limiter is "cfl", "reverse_flow", "dt_max" or "cap"."""
    if not 0.0 < cfl_number <= 1.0:
        raise ValueError("cfl_number must lie in (0, 1]")
    lam_max = np.maximum(np.abs(cells.lam_L), np.abs(cells.lam_R)).max()
    if not np.isfinite(lam_max):
        for name in ("h", "q", "r", "delta1", "H", "lam_L", "lam_R"):
            bad = np.flatnonzero(~np.isfinite(getattr(cells, name)))
            if bad.size:
                raise NonFiniteState(name, int(bad[0]) - N_GHOST)
    if lam_max <= 0.0:
        dt, limiter = dt_max, "dt_max"
    else:
        dt, limiter = cfl_number * dx / (2.0 * lam_max), "cfl"
    reverse = cells.f2 < 0.0
    if reverse.any():
        cap = (-cells.delta1[reverse] ** 2
               / (4.0 * (cells.f2 * cells.H)[reverse])).min()
        if cap < dt:
            dt, limiter = cap, "reverse_flow"
    for limit, name in ((dt_max, "dt_max"), (dt_cap, "cap")):
        if limit is not None and limit < dt:
            dt, limiter = limit, name
    if not dt > 0.0:
        raise NonpositiveTimeStep(f"nonpositive time step {float(dt)!r} "
                                  f"set by {limiter}")
    return float(dt), limiter


def convection_step(cells: CellEval, topo_ext, params: PhysicalParams, dx,
                    dt):
    """One Godunov update of the interior cells of an evaluated extended
    state; returns (interior ConservedState, interface RiemannFan)."""
    n_ext = cells.h.size
    sl = slice(N_GHOST - 1, n_ext - N_GHOST)      # left cells of interfaces
    sr = slice(N_GHOST, n_ext - N_GHOST + 1)      # right cells
    fan = solve_local_riemann(cells.at(sl), cells.at(sr),
                              topo_ext[sr] - topo_ext[sl], params)
    # interfaces 0..n surround the n interior cells
    lam = dt / dx
    h_new = cells.h[N_GHOST:-N_GHOST] - lam * (fan.F_left[0][1:] - fan.F_right[0][:-1])
    q_new = cells.q[N_GHOST:-N_GHOST] - lam * (fan.F_left[1][1:] - fan.F_right[1][:-1])
    r_new = cells.r[N_GHOST:-N_GHOST] - lam * (fan.F_left[2][1:] - fan.F_right[2][:-1])
    if np.any(h_new <= H_DRY):
        raise DryCell("depth fell below the dry threshold during convection")
    return ConservedState(h=h_new, q=q_new, r=r_new), fan


def friction_step(W: ConservedState, dt, params: PhysicalParams,
                  f2H) -> ConservedState:
    """Semi-implicit friction update of delta1; h and u_e are unchanged.

    f2H is the per-cell product (f2*H) evaluated at the pre-convection state.
    """
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    disc = delta1**2 + 4.0 * np.asarray(f2H, float) * dt
    if np.any(disc < 0.0):
        raise NegativeDiscriminant("friction discriminant negative; "
                                   "time-step selection is broken")
    delta1_new = 0.5 * (delta1 + np.sqrt(disc))
    return ConservedState(h=W.h.copy(), q=W.q.copy(), r=delta1_new * u_e)


def step(run: RunState, grid: Grid1D, params: PhysicalParams,
         boundaries: BoundarySpec, cfl_number=0.9, gradient_order=4,
         dt_max=np.inf, dt_cap: Optional[float] = None):
    """Advance one full split step; returns the new RunState."""
    W_ext = apply_boundaries(run.W, boundaries, params)
    dudx = frozen_gradient(W_ext, grid.dx, order=gradient_order)
    cells = evaluate_cells(W_ext, params, dudx)
    try:
        dt, limiter = compute_dt(cells, grid.dx, cfl_number=cfl_number,
                                 dt_max=dt_max, dt_cap=dt_cap)
    except StepFailure as exc:
        exc.step, exc.t = run.step_count, run.t
        raise
    W_half, fan = convection_step(cells, extended_topo(grid), params,
                                  grid.dx, dt)
    interior = slice(N_GHOST, -N_GHOST)
    W_new = friction_step(W_half, dt, params, (cells.f2 * cells.H)[interior])

    diag = dict(run.diagnostics)
    diag["last_dt"] = dt
    diag["dt_limiter"] = limiter
    diag["n_fallback"] = int(np.count_nonzero(fan.fallback))
    diag["min_f2"] = float(cells.f2.min())
    diag["max_abs_lambda"] = float(np.max(np.maximum(np.abs(fan.lam_L),
                                                     np.abs(fan.lam_R))))
    diag["n_thick_layer"] = int(np.count_nonzero(
        layer_fill_fraction(W_new, params) > 0.5))
    return RunState(t=run.t + dt, step_count=run.step_count + 1, W=W_new,
                    diagnostics=diag)


def advance(run: RunState, t_end, grid: Grid1D, params: PhysicalParams,
            boundaries: BoundarySpec, cfl_number=0.9, gradient_order=4,
            dt_max=np.inf, snapshot_times=(),
            on_snapshot: Optional[Callable] = None,
            log_every: int = 0) -> RunState:
    """Run the loop until t_end, clipping the last step to land exactly.

    Snapshot callbacks fire at end-of-step states, once per requested time,
    as soon as the run time reaches it.
    """
    pending = sorted(t for t in snapshot_times if t >= run.t)
    if run.t == 0.0 and pending and pending[0] == 0.0:
        if on_snapshot is not None:
            on_snapshot(run)
        pending.pop(0)
    while run.t < t_end - 1e-14 * max(1.0, t_end):
        next_stop = pending[0] if pending else t_end
        cap = min(next_stop, t_end) - run.t
        run = step(run, grid, params, boundaries, cfl_number=cfl_number,
                   gradient_order=gradient_order, dt_max=dt_max, dt_cap=cap)
        while pending and run.t >= pending[0] - 1e-14 * max(1.0, pending[0]):
            if on_snapshot is not None:
                on_snapshot(run)
            pending.pop(0)
        if log_every and run.step_count % log_every == 0:
            log.info("step=%d t=%.6g dt=%.3g thick_cells=%d",
                     run.step_count, run.t, run.diagnostics.get("last_dt", 0),
                     run.diagnostics.get("n_thick_layer", 0))
    return run
