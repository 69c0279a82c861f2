"""Three-wave well-balanced approximate Riemann solver.

Each interface carries two outer waves with speeds lam_L <= 0 <= lam_R and a
stationary contact at speed 0 associated with the topography jump. The star
discharges q* and r* come from the integral consistency relations combined
with the contact invariants; the star depths solve the linear depth relation
together with the Bernoulli relation across the contact.

All functions are vectorized over interfaces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .closures import closure_factors
from .hyperbolicity import jacobian_coeffs, nickalls_bounds
from .state import ConservedState, PhysicalParams, recover_delta1

log = logging.getLogger(__name__)

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class CellEval:
    """Per-cell closure, Nickalls bounds and physical flux of one state,
    evaluated once per step and read by every phase of it."""

    h: np.ndarray
    q: np.ndarray
    r: np.ndarray
    delta1: np.ndarray
    H: np.ndarray
    f2: np.ndarray
    lam_L: np.ndarray
    lam_R: np.ndarray
    F: tuple    # (h, q, r) components of the physical flux

    def at(self, idx) -> "CellEval":
        """The evaluation of the cells selected by idx."""
        return CellEval(self.h[idx], self.q[idx], self.r[idx],
                        self.delta1[idx], self.H[idx], self.f2[idx],
                        self.lam_L[idx], self.lam_R[idx],
                        tuple(f[idx] for f in self.F))


@dataclass(frozen=True)
class RiemannFan:
    """Interface wave speeds, star states and the two numerical fluxes."""

    lam_L: np.ndarray
    lam_R: np.ndarray
    q_star: np.ndarray
    r_star: np.ndarray
    h_L_star: np.ndarray
    h_R_star: np.ndarray
    F_left: tuple    # (h, q, r) components
    F_right: tuple
    fallback: np.ndarray  # bool mask of interfaces using the HLL fallback


def physical_flux(h, q, r, H, params: PhysicalParams):
    """F(W) = (h*u_e - delta_bar*r, h*u_e^2 + h^2/(2Fr^2), (1+1/H)*r*u_e)."""
    u_e = q / h
    F0 = q - params.delta_bar * r
    F1 = q * u_e + h**2 / (2.0 * params.froude**2)
    F2 = (1.0 + 1.0 / H) * r * u_e
    return F0, F1, F2


def source_averages(W_L, W_R, jump_fb, froude):
    """Vol'pert averages of the two non-conservative source terms."""
    topo_src = (W_L.h + W_R.h) / (2.0 * froude**2) * np.asarray(jump_fb, float)
    exchange_src = (W_L.q + W_R.q) / (W_L.h + W_R.h) * (W_R.r - W_L.r)
    return topo_src, exchange_src


def evaluate_cells(W: ConservedState, params: PhysicalParams,
                   dudx=0.0) -> CellEval:
    """Evaluate every cell of W at its frozen velocity gradient dudx."""
    u_e = W.q / W.h
    delta1 = recover_delta1(W.q, W.r, W.h)
    lambda1 = delta1**2 * dudx
    H, f2 = closure_factors(params.closure, lambda1)
    _, b = jacobian_coeffs(u_e, W.r, lambda1, H, params.closure)
    lam_L, lam_R = nickalls_bounds(u_e, b, W.h, params.froude)
    return CellEval(W.h, W.q, W.r, delta1, H, f2, lam_L, lam_R,
                    physical_flux(W.h, W.q, W.r, H, params))


def _star_depths(h_L, h_R, q_star, C, jump_fb, lam_L, lam_R, froude):
    """Solve the 2x2 star-depth system by Newton on h_R*.

    The linear consistency relation eliminates h_L*; the fallback mask marks
    interfaces where the Newton branch degenerates (non-convergence or a
    nonpositive depth), which then use equal HLL star depths.
    """
    fr2 = froude**2
    span = lam_R - lam_L
    h_hll = C / span
    fallback = np.zeros_like(h_L, dtype=bool)

    active = (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    hR = h_hll.copy()
    hL = h_hll.copy()

    if active.any():
        idx = np.nonzero(active)[0]
        hr = h_hll[idx].copy()
        lamL = lam_L[idx]
        lamR = lam_R[idx]
        Ci = C[idx]
        qi = q_star[idx]
        jfb = jump_fb[idx]
        ok = np.ones(idx.size, dtype=bool)
        # loop invariants of the Newton iteration: q*^2/2 and dh_L*/dh_R*
        q2h = qi**2 / 2.0
        dhl = lamR / lamL
        two_dhl = 2.0 * dhl
        dg_lin = (1.0 - dhl) / fr2
        for _ in range(_NEWTON_MAX_ITER):
            hl = (lamR * hr - Ci) / lamL
            bad = (hr <= 0.0) | (hl <= 0.0)
            ok &= ~bad
            hr_s = np.where(bad, 1.0, hr)
            hl_s = np.where(bad, 1.0, hl)
            g = (q2h * (1.0 / hr_s**2 - 1.0 / hl_s**2)
                 + (hr_s - hl_s + jfb) / fr2)
            dg = q2h * (-2.0 / hr_s**3 + two_dhl / hl_s**3) + dg_lin
            if log.isEnabledFor(logging.DEBUG):
                near = int(np.count_nonzero((np.abs(dg) < 1e-8) & ok))
                if near:
                    log.debug("near-critical star-depth solve at %d "
                              "interfaces", near)
            step = np.where(np.abs(dg) > 1e-300, g / np.where(dg == 0, 1.0, dg),
                            0.0)
            hr = hr - np.where(ok, step, 0.0)
            if not ok.any() or (np.abs(step[ok])
                                <= _NEWTON_TOL * np.maximum(1.0, hr[ok])).all():
                break
        hl = (lamR * hr - Ci) / lamL
        ok &= (hr > 0.0) & (hl > 0.0)
        hR[idx] = np.where(ok, hr, h_hll[idx])
        hL[idx] = np.where(ok, hl, h_hll[idx])
        fallback[idx] = ~ok

    # degenerate outer speeds: zero-width star region on that side
    left_degenerate = lam_L >= 0.0
    right_degenerate = lam_R <= 0.0
    hL = np.where(left_degenerate, h_L, hL)
    hR = np.where(right_degenerate, h_R, hR)
    # with one side degenerate the linear relation fixes the other depth
    one_sided_L = left_degenerate & ~right_degenerate & (jump_fb != 0.0)
    one_sided_R = right_degenerate & ~left_degenerate & (jump_fb != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hR = np.where(one_sided_L, (C + lam_L * h_L) / np.where(lam_R == 0, 1.0, lam_R), hR)
        hL = np.where(one_sided_R, (lam_R * h_R - C) / np.where(lam_L == 0, -1.0, lam_L), hL)
    return hL, hR, fallback


def solve_local_riemann(L: CellEval, R: CellEval, jump_fb,
                        params: PhysicalParams) -> RiemannFan:
    """Star states and left/right numerical fluxes at each interface.

    L and R evaluate the cells left and right of each interface.
    """
    fr = params.froude
    db = params.delta_bar

    lam_L = np.minimum(np.minimum(L.lam_L, R.lam_L), 0.0)
    lam_R = np.maximum(np.maximum(L.lam_R, R.lam_R), 0.0)
    span = lam_R - lam_L

    F_L, F_R = L.F, R.F
    topo_src, exchange_src = source_averages(L, R, jump_fb, fr)

    r_star = (lam_R * R.r - lam_L * L.r - (F_R[2] - F_L[2])
              + exchange_src) / span
    q_star = (lam_R * R.q - lam_L * L.q - (F_R[1] - F_L[1])
              - topo_src + db * exchange_src) / span
    C = lam_R * R.h - lam_L * L.h - (F_R[0] - F_L[0])
    h_L_star, h_R_star, fallback = _star_depths(
        L.h, R.h, q_star, C, jump_fb, lam_L, lam_R, fr)

    FL0 = F_L[0] + lam_L * (h_L_star - L.h)
    FL1 = F_L[1] + lam_L * (q_star - L.q)
    FL2 = F_L[2] + lam_L * (r_star - L.r)
    FR0 = F_R[0] - lam_R * (R.h - h_R_star)
    FR1 = F_R[1] - lam_R * (R.q - q_star)
    FR2 = F_R[2] - lam_R * (R.r - r_star)

    return RiemannFan(lam_L=lam_L, lam_R=lam_R, q_star=q_star, r_star=r_star,
                      h_L_star=h_L_star, h_R_star=h_R_star,
                      F_left=(FL0, FL1, FL2), F_right=(FR0, FR1, FR2),
                      fallback=fallback)
