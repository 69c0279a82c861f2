"""Time integration: splitting scheme, CFL control and boundary conditions.

Each step applies, in order: ghost-cell boundary conditions, velocity
gradient freeze, one evaluation of every cell (closure, wave-speed bounds,
flux) and of the interface speeds that the later phases share, CFL
time-step selection, the Godunov convection step and the friction step.

The time loop of both models lives here: their CFL number, the run's
clock, the cap at the next stop (output or end time), the test for having
reached a stop, and the stamping of a failed step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .closures import ue_gradient
from .errors import (DomainError, DryCell, NegativeDiscriminant,
                     NonFiniteState, NonpositiveTimeStep, StepFailure)
from .operands import FOUR, TWO, ZERO
from .riemann import CellEval, evaluate_cells, solve_local_riemann
from .state import (ConservedState, Grid1D, H_DRY, PhysicalParams,
                    _delta1_from_ue)

log = logging.getLogger(__name__)

N_GHOST = 2  # the order-4 gradient stencil needs two ghost cells per side
# the cells of an extended state left and right of its interior interfaces
_SIDES = slice(N_GHOST - 1, -N_GHOST), slice(N_GHOST, 1 - N_GHOST)
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


class RunState(NamedTuple):
    """Time, step count, state (an MlswState in MLSW runs) and last dt."""

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
        raise DomainError(f"unsupported left boundary: {left!r}")
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
                     params: PhysicalParams) -> np.ndarray:
    """Return W's (3, n) array extended by two ghost cells per side.

    Inflow imposes inflow_ghost's depth and velocity with a flat profile
    (delta1 = 0). Outflow copies the last interior cell.
    """
    h1, q1 = W.hqr[0, 0], W.hqr[1, 0]
    h_g, u_g = inflow_ghost(spec.left, h1, q1 / h1, params.froude)
    left = ((h_g,), (h_g * u_g,), (0.0,))
    return with_ghosts(W.hqr, left, N_GHOST)


def frozen_gradient(u_e, dx, order=4) -> np.ndarray:
    """Gradient of the extended state's edge velocity, frozen for the step."""
    return ue_gradient(u_e, dx, order)


def interface_speeds(cells: CellEval):
    """(lam_L, lam_R) at the interior interfaces of an evaluated extended
    state: min(lam_L, lam_L', 0) and max(lam_R, lam_R', 0) of its cells."""
    left, right = _SIDES
    lam_L = np.minimum(cells.lam_L[left], cells.lam_L[right])
    np.minimum(lam_L, ZERO, out=lam_L)
    lam_R = np.maximum(cells.lam_R[left], cells.lam_R[right])
    np.maximum(lam_R, ZERO, out=lam_R)
    return lam_L, lam_R


def compute_dt(cells: CellEval, lam_L, lam_R, dx, dt_cap=np.inf):
    """(dt, limiter) for an evaluated extended state and its interface
    speeds; limiter is "cfl", "reverse_flow" or "cap". The CFL step makes
    the largest dt/dx (|lam_L(i+1/2)| + lam_R(i-1/2)) CFL_NUMBER, so that
    each cell's update is a convex combination of the cell and its two
    adjacent star states; the reverse-flow cap and dt_cap may reduce it."""
    # a NaN in q or r alone can leave the bounds finite (the closure maps a
    # NaN Lambda1 to a finite H), but it always reaches delta1
    if not all(map(math.isfinite, (np.minimum.reduce(cells.lam_L),
                                   np.maximum.reduce(cells.lam_R),
                                   np.add.reduce(cells.delta1)))):
        # the interior first: an inflow ghost inherits a NaN of cell 0
        n = cells.hqr.shape[1] - N_GHOST
        for i, j in ((N_GHOST, n), (0, N_GHOST), (n, n + N_GHOST)):
            for name in ("h", "q", "r", "delta1", "H", "lam_L", "lam_R"):
                bad = np.flatnonzero(~np.isfinite(getattr(cells, name)[i:j]))
                if bad.size:
                    raise NonFiniteState(name, int(bad[0]) + i - N_GHOST)
    # with no wave speed the CFL bound is unlimited
    width = np.maximum.reduce(np.subtract(lam_R[:-1], lam_L[1:]))
    dt = CFL_NUMBER * dx / width if width > 0.0 else math.inf
    limiter = "cfl"
    # fmin.reduce skips NaN, as the comparisons of these guards do
    if np.fmin.reduce(cells.f2) < 0.0:
        reverse = cells.f2 < ZERO
        cap = (-cells.delta1[reverse] ** 2
               / (FOUR * (cells.f2 * cells.H)[reverse])).min()
        if cap < dt:
            dt, limiter = cap, "reverse_flow"
    if dt_cap < dt:
        dt, limiter = dt_cap, "cap"
    if not dt > 0.0:
        raise NonpositiveTimeStep(f"nonpositive time step {float(dt)!r} "
                                  f"set by {limiter}")
    return float(dt), limiter


def convection_step(cells: CellEval, lam_L, lam_R, jump_fb,
                    params: PhysicalParams, dx, dt, flat=False):
    """One Godunov update of the interior cells of an evaluated extended
    state at its interface speeds, with jump_fb the bed jumps at its n + 1
    interfaces (bed_jumps of the Grid1D) and flat whether all are zero (its
    flat_bed); returns (interior (3, n) array, interface RiemannFan)."""
    left, right = _SIDES
    fan = solve_local_riemann(cells.hqr[:, left], cells.F[:, left],
                              cells.hqr[:, right], cells.F[:, right],
                              lam_L, lam_R, jump_fb, params, flat)
    # W - (dt/dx)*(F_left[1:] - F_right[:-1]), into a fresh (3, n) array
    new = np.subtract(fan.F_left[:, 1:], fan.F_right[:, :-1])
    new *= dt / dx
    np.subtract(cells.hqr[:, N_GHOST:-N_GHOST], new, out=new)
    if np.fmin.reduce(new[0]) <= H_DRY:
        raise DryCell(int(np.flatnonzero(new[0] <= H_DRY)[0]))
    return new, fan


def friction_step(hqr, dt, f2H, u_e):
    """Exact update of delta1 under d(delta1^2)/dt = 2*f2H over dt, written
    into the r row of the (3, n) state hqr, which it returns; u_e is its q/h.
    f2H is the per-cell (f2*H) of the pre-convection state, frozen over dt;
    below the reverse-flow cap the radicand is at least delta1^2/2."""
    delta1 = _delta1_from_ue(u_e, hqr[2])
    # sqrt(delta1^2 + 2*f2H*dt)*u_e
    r = np.multiply(TWO, f2H, out=hqr[2])
    r *= dt
    r += np.square(delta1, out=delta1)
    if np.fmin.reduce(r) < 0.0:
        raise NegativeDiscriminant("friction radicand negative; "
                                   "time-step selection is broken")
    np.sqrt(r, out=r)
    r *= u_e
    return hqr


def step(W: ConservedState, grid: Grid1D, params: PhysicalParams,
         boundaries: BoundarySpec, gradient_order=4, dt_cap=np.inf):
    """One split step of at most dt_cap; returns (ConservedState, dt)."""
    ext = apply_boundaries(W, boundaries, params)
    u_e = np.divide(ext[1], ext[0])
    dudx = frozen_gradient(u_e, grid.dx, gradient_order)
    cells = evaluate_cells(ext, params, dudx, u_e)
    lam_L, lam_R = interface_speeds(cells)
    dt, _ = compute_dt(cells, lam_L, lam_R, grid.dx, dt_cap)
    # f2H first: the fewer arrays allocated after the update's new state,
    # the less heap malloc trims and faults in again each step
    f2H = cells.f2[N_GHOST:-N_GHOST] * cells.H[N_GHOST:-N_GHOST]
    hqr, _ = convection_step(cells, lam_L, lam_R, grid.bed_jumps, params,
                             grid.dx, dt, grid.flat_bed)
    u_e = np.divide(hqr[1], hqr[0])   # friction keeps h and q
    return ConservedState.wrap(friction_step(hqr, dt, f2H, u_e)), dt


def march(run: RunState, t_end, take_step: Callable, snapshot_times=(),
          on_snapshot: Optional[Callable] = None) -> RunState:
    """The time loop of both models: take_step(W, dt_cap) -> (W, dt) until
    t_end, each step capped to land exactly on the next stop.

    Snapshot callbacks fire once per requested time, as soon as the run
    time reaches it; those due at the start state, fresh or resumed, fire
    before the first step. A StepFailure leaves with the step count and
    time of the state that the failed step started from.
    """
    if not all(map(math.isfinite, (t_end, *snapshot_times))):
        raise DomainError("t_end and every snapshot time must be finite")
    pending = sorted(t for t in snapshot_times if t >= run.t)
    while True:
        while pending and reached(run.t, pending[0]):
            if on_snapshot is not None:
                on_snapshot(run)
            pending.pop(0)
        if reached(run.t, t_end):
            return run
        try:
            W, dt = take_step(run.W, min(pending[:1] + [t_end]) - run.t)
        except StepFailure as exc:
            exc.step, exc.t = run.step_count, run.t
            raise
        run = RunState(run.t + dt, run.step_count + 1, W, dt)


def advance(run: RunState, t_end, grid: Grid1D, params: PhysicalParams,
            boundaries: BoundarySpec, gradient_order=4, snapshot_times=(),
            on_snapshot: Optional[Callable] = None) -> RunState:
    """march with the ESW split step."""
    return march(run, t_end,
                 lambda W, dt_cap: step(W, grid, params, boundaries,
                                        gradient_order, dt_cap),
                 snapshot_times, on_snapshot)
