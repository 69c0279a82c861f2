"""Multilayer Saint-Venant reference solver.

Vertical discretization of the long-wave equations into N layers of fixed
depth fractions, with mass exchange between the layers (Audusse, Bristeau,
Perthame & Sainte-Marie 2011); horizontal transport uses a local
Lax-Friedrichs flux per layer (with the free-surface jump in the diffusion
so that lake-at-rest states stay exact). The upwinded momentum exchange and
the vertical momentum diffusion are solved implicitly per cell, in one
tridiagonal M-matrix system, so only the transport limits the time step.
Used as a qualitative cross-check of the integrated model.
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
             params: PhysicalParams, out=(None, None)):
    """One ghost cell per side, in out's (h, u) if given: inflow_ghost's
    depth and velocity for the first cell's depth-averaged U, with a flat
    profile; free outflow. mlsw_compute_dt names a non-finite U (inf - inf)."""
    with np.errstate(invalid="ignore", over="ignore"):
        U1 = float(np.sum(layers.fractions * state.u[:, 0]))
    h_g, u_g = inflow_ghost(left, state.h[0], U1, params.froude)
    return (with_ghosts(state.h, h_g, 1, out[0]),
            with_ghosts(state.u, u_g, 1, out[1]))


def mlsw_compute_dt(speed, h, dx, dt_cap=np.inf) -> float:
    """CFL step 0.9*dx/max(speed), reduced by dt_cap, over the speeds
    |u| + sqrt(h)/Fr of mlsw_step's n + 2 ghosted cells, of depths h: every
    cell's Rusanov sum dt*(s(i-1/2) + s(i+1/2))/(2 dx) stays within 0.9;
    the exchange, implicit, sets no limit. The ghosts are cells -1 and n."""
    lam_max = float(np.max(speed))
    if not np.isfinite(lam_max):
        # the interior first: an inflow ghost inherits a NaN of cell 0
        for j in (*range(1, speed.size - 1), 0, speed.size - 1):
            if not np.isfinite(speed[j]):
                if -np.inf < h[j] <= 0.0:
                    raise DryCell(j - 1)
                raise NonFiniteState("u" if np.isfinite(h[j]) else "h", j - 1)
    dt = min(CFL_NUMBER * dx / lam_max, dt_cap)
    if not dt > 0.0:
        raise NonpositiveTimeStep(f"nonpositive time step {dt!r}")
    return dt


def _thomas_rows(lower, diag, upper, rhs):
    """_thomas's pivot and row lists; a zero row after upper's last gives
    c a spare last row (0/pivot), so one loop runs every row but the first."""
    pivot, c = np.empty_like(diag), np.empty_like(diag)
    return (pivot, list(lower), list(upper) + [np.zeros_like(diag[0])],
            *map(list, (diag, rhs, pivot, c)))


def _thomas(lower, diag, upper, rhs, rows=None):
    """Batched Thomas solve, systems along axis 0, batches along axis 1:
    lower[i] is row i + 1's coefficient of unknown i, upper[i] row i's of
    unknown i + 1. There is no pivoting, which a matrix with nonpositive
    off-diagonals and positive column sums (an M-matrix, as mlsw_step
    assembles) never needs. Rows go into preallocated buffers; a zero pivot
    raises TridiagonalFailure, with no warning first.

    A row costs eight ufunc calls on short rows, so their overhead is most
    of the solve: the loops walk zipped lists of row views and call the
    ufuncs bound to locals, with out by position; a run keeps its rows.
    With lower is upper it is the symmetric solve, bit for bit."""
    mul, sub, div = np.multiply, np.subtract, np.divide
    pivot, L, U, A, R, P, C = rows or _thomas_rows(lower, diag, upper, rhs)
    D = list(d := np.empty_like(rhs))       # the one array a call makes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pivot[0] = diag[0]
        div(U[0], P[0], C[0])
        div(R[0], P[0], D[0])
        for lo, up_next, a, r, p, c_up, ci, d_up, di in zip(
                L, U[1:], A[1:], R[1:], P[1:], C, C[1:], D, D[1:]):
            mul(lo, c_up, p)
            sub(a, p, p)
            div(up_next, p, ci)
            mul(lo, d_up, di)
            sub(r, di, di)
            div(di, p, di)
        if (pivot == 0.0).any():
            raise TridiagonalFailure("zero pivot in the vertical solve")
        # back substitution in place, with a spent pivot row as scratch
        tmp = P[0]
        for ci, di, d_down in zip(C[-2::-1], D[-2::-1], D[::-1]):
            mul(ci, d_down, tmp)
            sub(di, tmp, di)
    return d


def _outer(col, row, out=None):
    """col[i] * row[j] at [i, j]: einsum makes the same products as the
    ufunc's broadcast, in about half the time."""
    return np.einsum("i,j->ij", col, row, out=out)


def _faces(op, cells, out):
    """op(right cell, left cell) in each interface's column of out, from
    the flat views; the last column of the last layer, which has no right
    cell, gets 0."""
    x, y = cells.reshape(-1, copy=False), out.reshape(-1, copy=False)
    op(x[1:], x[:-1], y[:-1])
    y[-1] = 0.0
    return out


def _cell_diff(faces, out):
    """right face - left face in each cell's column of out, from the flat
    views; the first column of the first layer, which has no left face,
    gets 0."""
    x, y = faces.reshape(-1, copy=False), out.reshape(-1, copy=False)
    np.subtract(x[1:], x[:-1], y[1:])
    y[0] = 0.0
    return out


class MlswWork:
    """mlsw_step's buffers and row lists, kept by a run (scenarios.model);
    with rows=False, as for a one-off step, _thomas builds its own rows."""

    def __init__(self, n_layers, n_cells, rows=True):
        self.h = np.empty(n_cells + 2)
        (self.u, self.abs_u, self.ellh, self.hu, self.flux_mass,
         self.scratch) = np.empty((6, n_layers, n_cells + 2))
        self.cumsum_rows = list(self.abs_u[:-1])
        # lower, diag, upper and rhs at the cells, where mlsw_step leaves them
        system = (self.abs_u[:-1, 1:-1], self.ellh[:, 1:-1],
                  self.u[:-1, 1:-1], self.hu[:, 1:-1])
        self.thomas_args = system + ((_thomas_rows(*system),) if rows else ())


def mlsw_step(state: MlswState, layers: LayerGrid, params: PhysicalParams,
              grid: Grid1D, left: InflowSpec, dt_cap=np.inf, work=None):
    """One step of mlsw_compute_dt's dt, at most dt_cap: explicit transport,
    then the exchange and the vertical friction in one implicit tridiagonal
    solve per cell. Returns (MlswState, dt).

    Every (N, .) array has the ghosted state's n + 2 columns: cell j and
    interface j + 1/2 both in column j. Neighbouring cells, interfaces and
    layers are then a fixed offset apart in the flat buffer, so each pass is
    one ufunc call on contiguous 1-D views; a column that holds no quantity
    holds finite values that no result reads. The fluxes are kept doubled,
    which the divergences' 1/(2 dx) halves exactly.

    Each quantity is computed once, in place or into a buffer of work (the
    run's MlswWork) whose last use is above; only the returned h and u are
    new. The in-place updates keep the left-to-right order of the quoted
    expressions, so every element gets its bits."""
    work = work or MlswWork(*state.u.shape, rows=False)
    dx2 = 2.0 * grid.dx
    fr2 = params.froude**2
    ell = layers.fractions
    with np.errstate(invalid="ignore"):   # sqrt(h < 0), named below
        h, u = _ghosted(state, left, layers, params, (work.h, work.u))
        # the speeds that dt and the fluxes read, before a product can warn
        abs_u = np.abs(u, out=work.abs_u)
        cell_speed = np.max(abs_u, axis=0) + np.sqrt(h) / params.froude
    dt = mlsw_compute_dt(cell_speed, h, grid.dx, dt_cap)
    eta = h + with_ghosts(grid.topo, grid.topo[0], 1)
    ellh = _outer(ell, h, out=work.ellh)  # layer depths
    hu = np.multiply(ellh, u, out=work.hu)

    # interface wave speed (local Lax-Friedrichs) and free-surface jump, 0
    # in the last column
    s, jump = np.zeros((2, work.h.size))
    np.maximum(cell_speed[:-1], cell_speed[1:], out=s[:-1])
    np.subtract(eta[1:], eta[:-1], out=jump[:-1])
    huu = np.multiply(hu, u, out=u)

    # flux_mass = (hu_l + hu_r) - s*ell*(eta_r - eta_l)
    flux_mass = _faces(np.add, hu, work.flux_mass)
    scratch = _outer(ell, s, out=work.scratch)
    scratch *= jump
    flux_mass -= scratch
    # flux_mom = (huu_l + huu_r) - s*(hu_r - hu_l), in the spent abs_u
    flux_mom = _faces(np.add, huu, abs_u)
    _faces(np.subtract, hu, scratch)
    scratch *= s
    flux_mom -= scratch
    flux_total = np.sum(flux_mass, axis=0)

    # from here on huu and scratch are spent
    div_mass = _cell_diff(flux_mass, huu)
    div_mass /= dx2
    div_total = (flux_total[1:-1] - flux_total[:-2]) / dx2       # (n,)
    div_mom = _cell_diff(flux_mom, flux_mass)
    div_mom /= dx2

    h_new = state.h - dt * div_total
    if (h_new <= H_DRY).any():
        raise DryCell(int(np.flatnonzero(h_new <= H_DRY)[0]))

    # cumulative mass exchange G = cumsum(div_mass - ell*div_total) through
    # the N - 1 inner layer interfaces (through the top one it vanishes),
    # in the spent flux_mom
    G = _outer(ell[:-1], with_ghosts(div_total, 0.0, 1), out=flux_mom[:-1])
    np.subtract(div_mass[:-1], G, out=G)
    for below, row in zip(work.cumsum_rows, work.cumsum_rows[1:]):
        np.add(below, row, row)

    # rhs = h_alpha*u - dt*div_mom - dt*h_alpha*deta_dx/fr2, with a central
    # free-surface slope for the hydrostatic pressure term; the interior of
    # ellh is h_alpha = ell*state.h, so hu holds h_alpha*u
    deta_dx = with_ghosts((eta[2:] - eta[:-2]) / dx2, 0.0, 1)
    rhs = hu
    div_mom *= dt
    rhs -= div_mom
    pressure = np.multiply(dt, ellh, out=div_mom)
    pressure *= deta_dx
    if fr2 != 1.0:        # a division by 1 would change no bit
        pressure /= fr2
    rhs -= pressure

    # implicit exchange and vertical friction on the updated layer depths
    # (positive also in the two columns that hold no cell, so that the
    # divisions stay finite there)
    h_alpha_new = _outer(ell, with_ghosts(h_new, 1.0, 1), out=ellh)
    nu = params.delta_bar**2
    # friction: off[a] = -(interface coupling of layers a, a+1)
    off = np.add(h_alpha_new[1:], h_alpha_new[:-1], out=scratch[:-1])
    np.divide(-2.0 * nu * dt, off, out=off)
    c_bot = 2.0 * nu * dt / h_alpha_new[0]
    diag = h_alpha_new                    # last use of h_alpha_new
    diag[0] += c_bot
    diag[:-1] -= off
    diag[1:] -= off
    # exchange: layer a gains dt*(m(a+1/2) - m(a-1/2)), m = G*u_up, with
    # u_up the new velocity upwinded by the sign of G (a downward flux,
    # G >= 0, carries the upper layer's). So dt*max(G, 0) multiplies u[a+1]
    # and dt*min(G, 0) u[a]: off-diagonals stay <= 0 and every column sums
    # to h_alpha_new (plus c_bot in the bed row), an M-matrix at any dt
    G *= dt
    g_down = np.maximum(G, 0.0, out=div_mass[:-1])
    g_up = np.minimum(G, 0.0, out=G)
    diag[:-1] -= g_up
    diag[1:] += g_down
    np.subtract(off, g_down, out=g_down)    # upper, in work.u
    np.add(off, g_up, out=g_up)             # lower, in work.abs_u
    return MlswState(h_new, _thomas(*work.thomas_args)), dt


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
