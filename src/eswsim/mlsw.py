"""Multilayer Saint-Venant reference solver.

Vertical discretization of the long-wave equations into N layers of fixed
depth fractions; horizontal transport uses a local Lax-Friedrichs flux per
layer (with the free-surface jump in the diffusion so that lake-at-rest
states stay exact), vertical momentum diffusion is solved implicitly per
cell. Used as a qualitative cross-check of the integrated model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateProfile, DomainError, DryCell, NonFiniteState,
                     NonpositiveTimeStep, TridiagonalFailure)
from .state import Grid1D, H_DRY, PhysicalParams, U_EPS
from .timeloop import CFL_NUMBER, InflowSpec, inflow_ghost, with_ghosts


@dataclass(frozen=True)
class LayerGrid:
    """Fixed layer fractions, exponentially refined towards the bottom."""

    n_layers: int = 100

    @cached_property
    def fractions(self) -> np.ndarray:
        """Relative layer depths, built once per grid and read-only."""
        ell = np.diff(self.interfaces)
        ell.flags.writeable = False
        return ell

    @property
    def interfaces(self) -> np.ndarray:
        """Relative heights z_alpha of the layer interfaces, 0 to 1."""
        N = self.n_layers
        alpha = np.arange(N + 1)
        return (np.exp(10.0 * alpha / N) - 1.0) / (np.exp(10.0) - 1.0)


@dataclass(frozen=True)
class MlswState:
    """Total depth per cell and per-layer velocities, shape (N, n_cells)."""

    h: np.ndarray
    u: np.ndarray

    @classmethod
    def uniform(cls, layers: LayerGrid, n_cells, h0, u0) -> "MlswState":
        return cls(h=np.full(n_cells, float(h0)),
                   u=np.full((layers.n_layers, n_cells), float(u0)))


def _ghosted(state: MlswState, left: InflowSpec, layers: LayerGrid,
             params: PhysicalParams):
    """One ghost cell per side: inflow_ghost's depth and velocity for the
    depth-averaged U of the first cell, with a flat profile; free outflow."""
    U1 = float(np.sum(layers.fractions * state.u[:, 0]))
    h_g, u_g = inflow_ghost(left, state.h[0], U1, params.froude)
    return with_ghosts(state.h, h_g, 1), with_ghosts(state.u, u_g, 1)


def mlsw_compute_dt(state: MlswState, params: PhysicalParams, dx,
                    dt_cap=np.inf) -> float:
    """CFL step from the fastest layer speed |u| + sqrt(h)/Fr, reduced by
    dt_cap."""
    lam = np.max(np.abs(state.u), axis=0) + np.sqrt(state.h) / params.froude
    lam_max = float(np.max(lam))
    if not np.isfinite(lam_max):
        cell = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise NonFiniteState("u" if np.isfinite(state.h[cell]) else "h", cell)
    dt = min(CFL_NUMBER * dx / (2.0 * lam_max), dt_cap)
    if not dt > 0.0:
        raise NonpositiveTimeStep(f"nonpositive time step {dt!r}")
    return dt


def _thomas(off, diag, rhs):
    """Batched symmetric Thomas solve, systems along axis 0, batches along
    axis 1; off[i] couples unknowns i and i + 1. Rows go into preallocated
    buffers; a zero pivot raises TridiagonalFailure, with no warning first."""
    n = diag.shape[0]
    pivot, c, d = np.empty_like(diag), np.empty_like(off), np.empty_like(rhs)
    # row views listed once: a list index is cheaper than an array index
    O, A, R, P, C, D = map(list, (off, diag, rhs, pivot, c, d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pivot[0] = diag[0]
        np.divide(off[:1], pivot[:1], out=c[:1])   # no row when n == 1
        np.divide(R[0], P[0], out=D[0])
        for i in range(1, n):
            p, di, o = P[i], D[i], O[i - 1]
            np.multiply(o, C[i - 1], out=p)
            np.subtract(A[i], p, out=p)
            if i < n - 1:
                np.divide(O[i], p, out=C[i])
            np.multiply(o, D[i - 1], out=di)
            np.subtract(R[i], di, out=di)
            np.divide(di, p, out=di)
        if (pivot == 0.0).any():
            raise TridiagonalFailure("zero pivot in vertical friction solve")
        # back substitution in place, with the spent pivot rows as scratch
        for i in range(n - 2, -1, -1):
            np.multiply(C[i], D[i + 1], out=P[i])
            np.subtract(D[i], P[i], out=D[i])
    return d


def _reuse(spent, rows, cols):
    """A C-contiguous (rows, cols) view on the front of a spent C-contiguous
    buffer, which is likely still in cache."""
    return spent.reshape(-1, copy=False)[:rows * cols].reshape(rows, cols)


def mlsw_step(state: MlswState, layers: LayerGrid, dt,
              params: PhysicalParams, grid: Grid1D,
              left: InflowSpec) -> MlswState:
    """One transport + exchange + implicit vertical friction step.

    Each quantity is computed once, mostly in place or into a buffer whose
    last use is above. The in-place updates keep the left-to-right order of
    the expression quoted above them, so every element gets its bits."""
    N, n = state.u.shape
    dx = grid.dx
    fr2 = params.froude**2
    ell = layers.fractions[:, None]
    h, u = _ghosted(state, left, layers, params)
    eta = h + with_ghosts(grid.topo, grid.topo[0], 1)
    ellh = ell * h                        # (N, n+2) layer depths
    hu = ellh * u
    abs_u = np.abs(u)

    # interface wave speed (local Lax-Friedrichs)
    cell_speed = np.max(abs_u, axis=0) + np.sqrt(h) / params.froude
    half_s = 0.5 * np.maximum(cell_speed[:-1], cell_speed[1:])   # (n+1,)
    huu = np.multiply(hu, u, out=abs_u)

    # flux_mass = 0.5*(hu_l + hu_r) - 0.5*s*ell*(eta_r - eta_l)
    flux_mass = np.add(hu[:, :-1], hu[:, 1:])
    flux_mass *= 0.5
    work = np.multiply(half_s, ell)       # (N, n+1)
    work *= eta[1:] - eta[:-1]
    flux_mass -= work
    # flux_mom = 0.5*(huu_l + huu_r) - 0.5*s*(hu_r - hu_l)
    flux_mom = np.add(huu[:, :-1], huu[:, 1:])
    flux_mom *= 0.5
    np.subtract(hu[:, 1:], hu[:, :-1], out=work)
    work *= half_s
    flux_mom -= work
    flux_total = np.sum(flux_mass, axis=0)

    # from here on u, hu, huu and work are spent
    div_mass = np.subtract(flux_mass[:, 1:], flux_mass[:, :-1],
                           out=_reuse(u, N, n))
    div_mass /= dx
    div_total = (flux_total[1:] - flux_total[:-1]) / dx          # (n,)
    div_mom = np.subtract(flux_mom[:, 1:], flux_mom[:, :-1],
                          out=_reuse(hu, N, n))
    div_mom /= dx

    h_new = state.h - dt * div_total
    if (h_new <= H_DRY).any():
        raise DryCell(int(np.flatnonzero(h_new <= H_DRY)[0]))

    # cumulative mass exchange G = cumsum(div_mass - ell*div_total) through
    # the N - 1 inner layer interfaces (through the top one it vanishes)
    G = np.multiply(ell[:-1], div_total, out=_reuse(huu, N - 1, n))
    np.subtract(div_mass[:-1], G, out=G)
    np.cumsum(G, axis=0, out=G)
    # m = u_up*G, the interface velocity upwinded by the sign of G (a
    # downward flux carries the upper layer's velocity)
    m = _reuse(work, N - 1, n)
    np.copyto(m, state.u[:-1])
    np.copyto(m, state.u[1:], where=G >= 0.0)
    m *= G
    # dm = m - (m one layer down), with m = 0 at the bed and the surface
    dm = div_mass
    dm[:-1] = m
    dm[-1] = 0.0
    dm[1:] -= m

    # hu_star = h_alpha*u - dt*div_mom - dt*h_alpha*deta_dx/fr2 + dt*dm,
    # with a central free-surface slope for the hydrostatic pressure term;
    # flux_mass and flux_mom are spent
    deta_dx = (eta[2:] - eta[:-2]) / (2.0 * dx)
    h_alpha = ellh[:, 1:-1]               # the interior is state.h
    hu_star = np.multiply(h_alpha, state.u, out=_reuse(flux_mass, N, n))
    div_mom *= dt
    hu_star -= div_mom
    pressure = np.multiply(dt, h_alpha, out=div_mom)
    pressure *= deta_dx
    pressure /= fr2
    hu_star -= pressure
    dm *= dt
    hu_star += dm

    # implicit vertical friction on the updated layer depths
    h_alpha_new = np.multiply(ell, h_new, out=_reuse(flux_mom, N, n))
    rhs = np.divide(hu_star, h_alpha_new, out=hu_star)    # u_star
    rhs *= h_alpha_new
    nu = params.delta_bar**2
    # symmetric matrix: off[a] = -(interface coupling of layers a, a+1)
    off = np.add(h_alpha_new[1:], h_alpha_new[:-1], out=G)
    np.divide(-2.0 * nu * dt, off, out=off)
    c_bot = 2.0 * nu * dt / h_alpha_new[0]
    diag = h_alpha_new                    # last use of h_alpha_new
    diag[0] += c_bot
    diag[:-1] -= off
    diag[1:] -= off
    return MlswState(h=h_new, u=_thomas(off, diag, rhs))


def mlsw_diagnostics(state: MlswState, layers: LayerGrid,
                     params: PhysicalParams):
    """(delta1, delta2, H, f2, tau_bar) per cell from the layer profiles."""
    if np.any(np.abs(state.u[-1]) <= U_EPS):
        raise DegenerateProfile("top-layer velocity vanishes")
    db = params.delta_bar
    if db <= 0.0:
        raise DomainError("diagnostics require delta_bar > 0")
    ell = layers.fractions[:, None]
    h_alpha = ell * state.h[None, :]
    u_e = state.u[-1]
    ratio = state.u / u_e[None, :]
    dd1 = np.sum((1.0 - ratio) * h_alpha, axis=0)
    dd2 = np.sum(ratio * (1.0 - ratio) * h_alpha, axis=0)
    if np.any(dd2 <= 0.0):
        raise DegenerateProfile("momentum thickness nonpositive")
    delta1 = dd1 / db
    delta2 = dd2 / db
    H = delta1 / delta2
    tau_bar = db * 2.0 * state.u[0] / h_alpha[0]
    f2 = tau_bar * delta1 / (H * u_e)
    return delta1, delta2, H, f2, tau_bar
