"""Grids, physical parameters and state vectors.

The solved unknowns per cell are W = (h, q, r) with q = h*u_e the
depth-discharge of the ideal fluid and r = delta1*u_e the viscous-layer
momentum. All containers are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .closures import ClosureLaw, FalknerSkanFit, closure_factors
from .errors import DomainError, DryCell

H_DRY = 1e-12
U_EPS = 1e-8


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless flow parameters.

    delta_bar is the viscous-layer scale 1/sqrt(Re_h); delta_bar = 0
    recovers the inviscid shallow water system.
    """

    froude: float
    delta_bar: float
    closure: ClosureLaw = field(default_factory=FalknerSkanFit)

    def __post_init__(self):
        if not self.froude > 0:
            raise DomainError("froude must be positive")
        if self.delta_bar < 0:
            raise DomainError("delta_bar must be nonnegative")


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered 1-D grid with bed elevation sampled at centers."""

    x_min: float
    x_max: float
    n_cells: int
    topo: np.ndarray

    @classmethod
    def uniform(cls, x_min, x_max, n_cells, topo_fn=None) -> "Grid1D":
        if n_cells < 1 or not x_max > x_min:
            raise DomainError("grid needs x_max > x_min and n_cells >= 1")
        dx = (x_max - x_min) / n_cells
        centers = x_min + (np.arange(n_cells) + 0.5) * dx
        topo = np.zeros(n_cells) if topo_fn is None else np.asarray(
            topo_fn(centers), dtype=float)
        if not np.all(np.isfinite(topo)):
            raise DomainError("topography must be finite")
        return cls(x_min, x_max, n_cells, topo)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class ConservedState:
    """Per-cell conserved vector (h, h*u_e, delta1*u_e)."""

    h: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name in ("h", "q", "r"):
            v = getattr(self, name)
            # the time loop passes float64 arrays, which asarray keeps as is
            if not (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim):
                object.__setattr__(self, name, np.atleast_1d(np.asarray(v, float)))

    @classmethod
    def from_primitive_fields(cls, h, u_e, delta1) -> "ConservedState":
        h = np.asarray(h, float)
        u_e = np.asarray(u_e, float)
        delta1 = np.asarray(delta1, float)
        return cls(h=h.copy(), q=h * u_e, r=delta1 * u_e)


@dataclass(frozen=True)
class PrimitiveState:
    """Primitive view of the state with diagnostic fields."""

    h: np.ndarray
    u_e: np.ndarray
    delta1: np.ndarray
    U: np.ndarray
    beta: np.ndarray
    H_eff: np.ndarray


def _check_wet(h):
    if np.any(h <= H_DRY):
        raise DryCell("water depth at or below the dry threshold")


def recover_delta1(q, r, h):
    """delta1 = r/u_e, defined as 0 at (near-)stagnation where u_e ~ 0."""
    u_e = q / h
    # with no (near-)stagnant or NaN cell the unmasked quotient is bitwise
    # the masked one; scalars and empty arrays take the masked path
    if type(u_e) is np.ndarray and u_e.size and np.abs(u_e).min() > U_EPS:
        return r / u_e
    return np.where(np.abs(u_e) > U_EPS, r / np.where(u_e == 0, 1.0, u_e), 0.0)


def to_primitive(W: ConservedState, params: PhysicalParams,
                 dudx: Optional[np.ndarray] = None) -> PrimitiveState:
    """Convert conserved to primitive variables.

    The Boussinesq coefficient uses the first-order form
    beta = 1 + (1 - 1/H)*delta_bar*delta1/h with H from the configured
    closure; dudx defaults to zero (Blasius value of H).
    """
    _check_wet(W.h)
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    db = params.delta_bar
    U = (1.0 - db * delta1 / W.h) * u_e
    if dudx is None:
        dudx = np.zeros_like(u_e)
    lambda1 = delta1**2 * np.asarray(dudx, float)
    H, _ = closure_factors(params.closure, lambda1)
    beta = 1.0 + (1.0 - 1.0 / H) * db * delta1 / W.h
    return PrimitiveState(h=W.h.copy(), u_e=u_e, delta1=delta1, U=U,
                          beta=beta, H_eff=W.h - db * delta1)


def from_primitive(P: PrimitiveState) -> ConservedState:
    """Reassemble the conserved vector from a primitive view."""
    return ConservedState.from_primitive_fields(P.h, P.u_e, P.delta1)


def layer_fill_fraction(W: ConservedState, params: PhysicalParams):
    """delta_bar*delta1/h; the model loses validity where this nears 1.

    Cells above 0.5 are flagged by the time loop diagnostics.
    """
    delta1 = recover_delta1(W.q, W.r, W.h)
    return params.delta_bar * delta1 / W.h


def apparent_topography_view(W: ConservedState, params: PhysicalParams,
                             topo=None):
    """(H_eff, u_e, apparent_bed): the ideal fluid over a thickened bed."""
    _check_wet(W.h)
    f_b = np.zeros_like(W.h) if topo is None else np.asarray(topo, float)
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    H_eff = W.h - params.delta_bar * delta1
    apparent_bed = f_b + params.delta_bar * delta1
    return H_eff, u_e, apparent_bed


def energy_density(W: ConservedState, params: PhysicalParams, f_b):
    """Mechanical energy and flux of the effective ideal fluid (diagnostic)."""
    _check_wet(W.h)
    f_b = np.asarray(f_b, float)
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    db = params.delta_bar
    Heff = W.h - db * delta1
    eta = Heff + f_b + db * delta1
    fr2 = params.froude**2
    energy = Heff * u_e**2 / 2.0 + eta**2 / (2.0 * fr2)
    energy_flux = u_e * (Heff * u_e**2 / 2.0 + Heff * eta**2 / (2.0 * fr2))
    return energy, energy_flux
