"""Time integration: splitting scheme, CFL control and boundary conditions.

Each step applies, in order: ghost-cell boundary conditions, velocity
gradient freeze, one evaluation of every cell (closure, wave-speed bounds,
flux) that the later phases share, CFL time-step selection, the Godunov
convection step and the semi-implicit friction step.

The time loop and time-step rule of both models live here: the CFL number,
the cap at the next stop (output or end time), the test for having reached
a stop, and the stamping of a failed step with its step count and time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closures import ue_gradient
from .errors import (DryCell, NegativeDiscriminant, NonFiniteState,
                     NonpositiveTimeStep, StepFailure)
from .riemann import CellEval, evaluate_cells, solve_local_riemann
from .state import (ConservedState, Grid1D, H_DRY, PhysicalParams,
                    _delta1_from_ue)

log = logging.getLogger(__name__)

N_GHOST = 2  # the order-4 gradient stencil needs two ghost cells per side
CFL_NUMBER = 0.9


def reached(t, t_stop) -> bool:
    """Whether time t has reached t_stop, up to a rounding tolerance that
    scales with t_stop once it exceeds 1."""
    return t >= t_stop - 1e-14 * max(1.0, t_stop)


@dataclass(frozen=True)
class SubcriticalInflow:
    u_in: float


@dataclass(frozen=True)
class SupercriticalInflow:
    u_in: float
    h_in: float


# not typing.Union, for the reason given at closures.ClosureLaw
InflowSpec = SubcriticalInflow | SupercriticalInflow


@dataclass(frozen=True)
class BoundarySpec:
    left: InflowSpec


@dataclass(frozen=True)
class RunState:
    """Time, step counter, interior states and the last step's time step."""

    t: float
    step_count: int
    W: ConservedState
    dt: float = 0.0


def inflow_ghost(left: InflowSpec, h1, u1, froude):
    """(depth, velocity) of the inflow ghost cells for a first interior cell
    of depth h1 and velocity u1.

    The supercritical inflow imposes both. The subcritical one imposes
    u_in and recovers the depth from the outgoing classical shallow-water
    Riemann invariant, never below H_DRY.
    """
    if isinstance(left, SupercriticalInflow):
        return left.h_in, left.u_in
    if not isinstance(left, SubcriticalInflow):
        raise TypeError(f"unsupported left boundary: {left!r}")
    # outgoing characteristic u - 2*sqrt(h)/Fr extrapolated from the first
    # interior cell fixes the ghost depth once u_in is imposed
    sqrt_hg = np.sqrt(h1) + froude * (left.u_in - u1) / 2.0
    h_g = sqrt_hg**2
    if sqrt_hg <= 0.0 or h_g < H_DRY:
        log.warning("inflow invariant gave a depth below H_DRY; clamping")
        h_g = H_DRY
    return h_g, left.u_in


def with_ghosts(interior, left, n_ghost):
    """interior padded along its last axis: n_ghost copies of left before
    it and n_ghost copies of its last column after it."""
    out = np.empty(interior.shape[:-1] + (interior.shape[-1] + 2 * n_ghost,))
    out[..., :n_ghost] = left
    out[..., n_ghost:-n_ghost] = interior
    out[..., -n_ghost:] = interior[..., -1:]
    return out


def apply_boundaries(W: ConservedState, spec: BoundarySpec,
                     params: PhysicalParams) -> ConservedState:
    """Return the state extended by two ghost cells per side.

    Inflow imposes inflow_ghost's depth and velocity with a flat profile
    (delta1 = 0). Outflow copies the last interior cell.
    """
    h1, q1 = W.hqr[0, 0], W.hqr[1, 0]
    h_g, u_g = inflow_ghost(spec.left, h1, q1 / h1, params.froude)
    left = np.array([[h_g], [h_g * u_g], [0.0]])
    return ConservedState.wrap(with_ghosts(W.hqr, left, N_GHOST))


def frozen_gradient(u_e, dx, order=4) -> np.ndarray:
    """Gradient of the extended state's edge velocity, frozen for the step."""
    return ue_gradient(u_e, dx, order=order)


def compute_dt(cells: CellEval, dx, dt_cap=np.inf):
    """(dt, limiter) for an evaluated extended state: the CFL step from the
    Nickalls bounds, reduced by the reverse-flow cap and by dt_cap;
    limiter is "cfl", "reverse_flow" or "cap"."""
    # max(|lam_L|, |lam_R|) is max(-lam_L, lam_R) because lam_L <= lam_R
    lam_max = np.maximum(-cells.lam_L.min(), cells.lam_R.max())
    # a NaN in q or r alone can leave the bounds finite (the closure maps a
    # NaN Lambda1 to a finite H), but it always reaches delta1
    if not (np.isfinite(lam_max) and np.isfinite(cells.delta1.sum())):
        # the interior first: an inflow ghost inherits a NaN of cell 0
        n = cells.h.size - N_GHOST
        for lo, hi in ((N_GHOST, n), (0, N_GHOST), (n, n + N_GHOST)):
            for name in ("h", "q", "r", "delta1", "H", "lam_L", "lam_R"):
                bad = np.flatnonzero(~np.isfinite(getattr(cells, name)[lo:hi]))
                if bad.size:
                    raise NonFiniteState(name, int(bad[0]) + lo - N_GHOST)
    # with no wave speed the CFL bound is unlimited
    dt = CFL_NUMBER * dx / (2.0 * lam_max) if lam_max > 0.0 else np.inf
    limiter = "cfl"
    reverse = cells.f2 < 0.0
    if reverse.any():
        cap = (-cells.delta1[reverse] ** 2
               / (4.0 * (cells.f2 * cells.H)[reverse])).min()
        if cap < dt:
            dt, limiter = cap, "reverse_flow"
    if dt_cap < dt:
        dt, limiter = dt_cap, "cap"
    if not dt > 0.0:
        raise NonpositiveTimeStep(f"nonpositive time step {float(dt)!r} "
                                  f"set by {limiter}")
    return float(dt), limiter


def convection_step(cells: CellEval, jump_fb, params: PhysicalParams, dx,
                    dt, flat=False):
    """One Godunov update of the interior cells of an evaluated extended
    state, with jump_fb the bed jumps at its n + 1 interfaces (bed_jumps of
    the Grid1D) and flat whether all are zero (its flat_bed); returns
    (interior ConservedState, interface RiemannFan)."""
    n_ext = cells.h.size
    sl = slice(N_GHOST - 1, n_ext - N_GHOST)      # left cells of interfaces
    sr = slice(N_GHOST, n_ext - N_GHOST + 1)      # right cells
    L, R = [CellEval(cells.hqr[:, s], cells.F[:, s], cells.lam_L[s],
                     cells.lam_R[s]) for s in (sl, sr)]
    fan = solve_local_riemann(L, R, jump_fb, params, flat)
    # W - (dt/dx)*(F_left[1:] - F_right[:-1]), into a fresh (3, n) array
    new = np.subtract(fan.F_left[:, 1:], fan.F_right[:, :-1])
    new *= dt / dx
    np.subtract(cells.hqr[:, N_GHOST:-N_GHOST], new, out=new)
    if (new[0] <= H_DRY).any():
        raise DryCell(int(np.flatnonzero(new[0] <= H_DRY)[0]))
    return ConservedState.wrap(new), fan


def friction_step(W: ConservedState, dt, params: PhysicalParams,
                  f2H, u_e) -> ConservedState:
    """Semi-implicit friction update of delta1, written into W's r row;
    h and q do not change. Returns W.

    f2H is the per-cell product (f2*H) evaluated at the pre-convection state;
    u_e is W's edge velocity q/h.
    """
    delta1 = _delta1_from_ue(u_e, W.r)
    # disc = delta1^2 + 4*f2H*dt, then 0.5*(delta1 + sqrt(disc))*u_e
    r = np.multiply(4.0, f2H, out=W.r)
    r *= dt
    r += np.square(delta1)
    if (r < 0.0).any():
        raise NegativeDiscriminant("friction discriminant negative; "
                                   "time-step selection is broken")
    np.sqrt(r, out=r)
    r += delta1
    r *= 0.5
    r *= u_e
    return W


def step(run: RunState, grid: Grid1D, params: PhysicalParams,
         boundaries: BoundarySpec, gradient_order=4, dt_cap=np.inf):
    """Advance one full split step; returns the new RunState."""
    W_ext = apply_boundaries(run.W, boundaries, params)
    u_e = W_ext.q / W_ext.h
    dudx = frozen_gradient(u_e, grid.dx, order=gradient_order)
    cells = evaluate_cells(W_ext, params, dudx, u_e)
    dt, _ = compute_dt(cells, grid.dx, dt_cap=dt_cap)
    # f2H first: the fewer arrays allocated after the update's new state,
    # the less heap malloc trims and faults in again each step
    f2H = cells.f2[N_GHOST:-N_GHOST] * cells.H[N_GHOST:-N_GHOST]
    W, _ = convection_step(cells, grid.bed_jumps, params, grid.dx, dt,
                           grid.flat_bed)
    u_e = W.q / W.h   # friction keeps h and q as they are
    friction_step(W, dt, params, f2H, u_e)
    return RunState(t=run.t + dt, step_count=run.step_count + 1, W=W, dt=dt)


def march(run: RunState, t_end, take_step: Callable, snapshot_times=(),
          on_snapshot: Optional[Callable] = None) -> RunState:
    """The time loop of both models: take_step(run, dt_cap) -> RunState
    until t_end, each step capped to land exactly on the next stop.

    Snapshot callbacks fire at end-of-step states, once per requested time,
    as soon as the run time reaches it. A StepFailure leaves with the step
    count and time of the state that the failed step started from.
    """
    pending = sorted(t for t in snapshot_times if t >= run.t)
    if run.t == 0.0 and pending and pending[0] == 0.0:
        if on_snapshot is not None:
            on_snapshot(run)
        pending.pop(0)
    while not reached(run.t, t_end):
        next_stop = pending[0] if pending else t_end
        try:
            run = take_step(run, min(next_stop, t_end) - run.t)
        except StepFailure as exc:
            exc.step, exc.t = run.step_count, run.t
            raise
        while pending and reached(run.t, pending[0]):
            if on_snapshot is not None:
                on_snapshot(run)
            pending.pop(0)
    return run


def advance(run: RunState, t_end, grid: Grid1D, params: PhysicalParams,
            boundaries: BoundarySpec, gradient_order=4, snapshot_times=(),
            on_snapshot: Optional[Callable] = None) -> RunState:
    """march with the ESW split step."""
    return march(run, t_end,
                 lambda run, dt_cap: step(run, grid, params, boundaries,
                                          gradient_order, dt_cap),
                 snapshot_times, on_snapshot)
