"""Grids, physical parameters and state vectors.

The solved unknowns per cell are W = (h, q, r) with q = h*u_e the
depth-discharge of the ideal fluid and r = delta1*u_e the viscous-layer
momentum. All containers are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .closures import ClosureLaw, FalknerSkanFit
from .errors import DomainError

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

    @cached_property
    def bed_jumps(self) -> np.ndarray:
        """Bed jump at each of the n_cells + 1 interfaces, 0 at both ends
        (ghost beds copy the end cells); built once per grid, read-only."""
        jumps = np.diff(self.topo, prepend=self.topo[0], append=self.topo[-1])
        jumps.flags.writeable = False
        return jumps

    @cached_property
    def flat_bed(self) -> bool:
        """Whether every bed jump is zero, decided once per grid."""
        return not self.bed_jumps.any()

    @cached_property
    def x_text(self) -> tuple:
        """The cell centers as "%.17g" text, one str per cell; built at the
        grid's first snapshot write (one substitution, then a split)."""
        return tuple(("%.17g " * self.n_cells
                      % tuple(self.cell_centers.tolist())).split())


@dataclass(frozen=True, init=False)
class ConservedState:
    """Per-cell conserved vector (h, h*u_e, delta1*u_e): h, q and r are the
    rows of one C-contiguous (3, n) float64 array hqr."""

    hqr: np.ndarray

    def __init__(self, h, q, r):
        rows = [np.atleast_1d(np.asarray(v, float)) for v in (h, q, r)]
        if rows[0].ndim != 1 or {v.shape for v in rows} != {rows[0].shape}:
            raise DomainError("h, q and r must be 1-D and of one length")
        object.__setattr__(self, "hqr", np.stack(rows))

    @classmethod
    def wrap(cls, hqr: np.ndarray) -> "ConservedState":
        """The state of a C-contiguous (3, n) float64 array, not copied."""
        state = object.__new__(cls)
        object.__setattr__(state, "hqr", hqr)
        return state

    h, q, r = (property(lambda self, k=k: self.hqr[k]) for k in range(3))


def recover_delta1(q, r, h):
    """delta1 = r/u_e, defined as 0 at (near-)stagnation where u_e ~ 0."""
    return _delta1_from_ue(q / h, r)


def _delta1_from_ue(u_e, r):
    """recover_delta1 for an edge velocity u_e = q/h already at hand."""
    # with no (near-)stagnant or NaN cell the unmasked quotient is bitwise
    # the masked one; scalars, empty arrays and mixed signs take the mask
    if type(u_e) is np.ndarray and u_e.size and (
            u_e.min() > U_EPS or u_e.max() < -U_EPS):
        return r / u_e
    return np.where(np.abs(u_e) > U_EPS, r / np.where(u_e == 0, 1.0, u_e), 0.0)

