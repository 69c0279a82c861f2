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
from typing import NamedTuple, Optional

import numpy as np

from .closures import closure_factors
from .hyperbolicity import jacobian_coeffs, nickalls_bounds
from .state import ConservedState, PhysicalParams, _delta1_from_ue

log = logging.getLogger(__name__)

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 50


class CellEval(NamedTuple):
    """Per-cell state and flux ((3, n) arrays, rows h, q, r), Nickalls bounds
    and closure of one state, evaluated once per step; the cells on one side
    of the interfaces, all that solve_local_riemann reads, have no closure."""

    hqr: np.ndarray
    F: np.ndarray
    lam_L: np.ndarray
    lam_R: np.ndarray
    delta1: Optional[np.ndarray] = None
    H: Optional[np.ndarray] = None
    f2: Optional[np.ndarray] = None

    h, q, r = (property(lambda self, k=k: self.hqr[k]) for k in range(3))


class RiemannFan(NamedTuple):
    """Interface wave speeds, star states and the two numerical fluxes
    (on a flat bed h_L_star and h_R_star may be one and the same array);
    F_left and F_right are (3, n + 1) arrays with rows h, q, r."""

    lam_L: np.ndarray
    lam_R: np.ndarray
    q_star: np.ndarray
    r_star: np.ndarray
    h_L_star: np.ndarray
    h_R_star: np.ndarray
    F_left: np.ndarray
    F_right: np.ndarray
    fallback: np.ndarray  # bool mask of interfaces using the HLL fallback


def physical_flux(h, q, r, H, params: PhysicalParams, u_e, out=None):
    """(q - delta_bar*r, q*u_e + h^2/(2Fr^2), (1+1/H)*r*u_e) for u_e = q/h,
    written into the rows of out, a (3, n) array, if given."""
    F0, F1, F2 = (None, None, np.empty(np.broadcast(H, r, u_e).shape)) \
        if out is None else (out[0], out[1], out[2])
    F0 = np.subtract(q, params.delta_bar * r, out=F0)
    F1 = np.multiply(q, u_e, out=F1)
    h2 = np.square(h)
    h2 /= 2.0 * params.froude**2
    F1 += h2
    np.divide(1.0, H, out=F2)
    F2 += 1.0
    F2 *= r
    F2 *= u_e
    return F0, F1, F2


def source_averages(W_L, W_R, jump_fb, froude):
    """Vol'pert averages of the two non-conservative source terms."""
    L, R = W_L.hqr, W_R.hqr    # row indexing: cheaper than unpacking
    h_sum = L[0] + R[0]
    topo_src = h_sum / (2.0 * froude**2)
    topo_src *= jump_fb
    exchange_src = L[1] + R[1]
    exchange_src /= h_sum
    exchange_src *= np.subtract(R[2], L[2], out=h_sum)
    return topo_src, exchange_src


def evaluate_cells(W: ConservedState, params: PhysicalParams,
                   dudx=0.0, u_e=None) -> CellEval:
    """Evaluate each cell of W at frozen gradient dudx; u_e = q/h if None."""
    h, q, r = W.hqr[0], W.hqr[1], W.hqr[2]
    u_e = q / h if u_e is None else u_e
    delta1 = _delta1_from_ue(u_e, r)
    lambda1 = np.square(delta1)
    lambda1 *= dudx
    H, f2 = closure_factors(params.closure, lambda1)
    _, b = jacobian_coeffs(u_e, r, lambda1, H, params.closure)
    lam_L, lam_R = nickalls_bounds(u_e, b, h, params.froude)
    F = np.empty_like(W.hqr)
    physical_flux(h, q, r, H, params, u_e, out=F)
    return CellEval(W.hqr, F, lam_L, lam_R, delta1, H, f2)


def _star_depths(h_L, h_R, q_star, C, jump_fb, lam_L, lam_R, froude, span):
    """Solve the 2x2 star-depth system by Newton on h_R*, span = lam_R - lam_L.

    The linear consistency relation eliminates h_L*; the fallback mask marks
    interfaces where the Newton branch degenerates (non-convergence or a
    nonpositive depth), which then use equal HLL star depths.
    """
    fr2 = froude**2
    h_hll = C / span
    fallback = np.zeros(h_L.shape, dtype=bool)

    # a flat bed has no Newton-active or one-sided interface to mask or copy
    has_jump = jump_fb.any()
    hL = hR = h_hll
    active = has_jump and (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    if has_jump and active.any():
        idx = np.flatnonzero(active)
        hR = h_hll.copy()
        hL = h_hll.copy()
        hr = hr0 = h_hll[idx]
        lamL = lam_L[idx]
        lamR = lam_R[idx]
        Ci = C[idx]
        qi = q_star[idx]
        jfb = jump_fb[idx]
        # a non-finite q* gives no usable Newton depth, and a NaN one would
        # pass as converged (g and dg NaN, masked step 0): HLL from the start
        ok = np.isfinite(qi)
        # while every iterate is ok, each guard below is one reduction and
        # the unmasked expressions give the bits of the masked ones
        all_ok = bool(ok.all())
        # loop invariants of the Newton iteration: q*^2/2 and dh_L*/dh_R*
        q2h = qi**2 / 2.0
        dhl = lamR / lamL
        two_dhl = 2.0 * dhl
        dg_lin = (1.0 - dhl) / fr2
        for _ in range(_NEWTON_MAX_ITER):
            hl = (lamR * hr - Ci) / lamL
            if all_ok and hr.min() > 0.0 and hl.min() > 0.0:
                hr_s, hl_s = hr, hl
            else:
                bad = (hr <= 0.0) | (hl <= 0.0)
                ok &= ~bad
                all_ok = bool(ok.all())
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
            if all_ok and np.abs(dg).min() > 1e-300:
                step = g / dg
                hr = hr - step
                converged = (np.abs(step)
                             <= _NEWTON_TOL * np.maximum(1.0, hr)).all()
            else:
                step = np.where(np.abs(dg) > 1e-300,
                                g / np.where(dg == 0, 1.0, dg), 0.0)
                hr = hr - np.where(ok, step, 0.0)
                converged = not ok.any() or (
                    np.abs(step[ok])
                    <= _NEWTON_TOL * np.maximum(1.0, hr[ok])).all()
            if converged:
                break
        hl = (lamR * hr - Ci) / lamL
        if all_ok and hr.min() > 0.0 and hl.min() > 0.0:
            hR[idx] = hr
            hL[idx] = hl
        else:
            ok &= (hr > 0.0) & (hl > 0.0)
            hR[idx] = np.where(ok, hr, hr0)
            hL[idx] = np.where(ok, hl, hr0)
            fallback[idx] = ~ok

    # degenerate outer speeds: zero-width star region on that side
    if lam_L.max() < 0.0 and lam_R.min() > 0.0:
        return hL, hR, fallback
    left_degenerate = lam_L >= 0.0
    right_degenerate = lam_R <= 0.0
    hL = np.where(left_degenerate, h_L, hL)
    hR = np.where(right_degenerate, h_R, hR)
    if not has_jump:
        return hL, hR, fallback
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
    lam_L = np.minimum(L.lam_L, R.lam_L)
    np.minimum(lam_L, 0.0, out=lam_L)
    lam_R = np.maximum(L.lam_R, R.lam_R)
    np.maximum(lam_R, 0.0, out=lam_R)
    span = lam_R - lam_L
    topo_src, exchange_src = source_averages(L, R, jump_fb, params.froude)

    # rows C, q*, r* of lam_R*W_R - lam_L*W_L - (F_R - F_L), then
    # r* = (... + exchange) / span and q* = (... - topo + db*exchange) / span
    star = np.multiply(lam_R, R.hqr)
    work = np.multiply(lam_L, L.hqr)
    star -= work
    star -= np.subtract(R.F, L.F, out=work)
    C, q_star, r_star = star[0], star[1], star[2]
    r_star += exchange_src
    r_star /= span
    q_star -= topo_src
    exchange_src *= params.delta_bar
    q_star += exchange_src
    q_star /= span
    h_L_star, h_R_star, fallback = _star_depths(
        L.h, R.h, q_star, C, jump_fb, lam_L, lam_R, params.froude, span)

    # F_L + lam_L*(star_L - W_L) and F_R - lam_R*(W_R - star_R): the star
    # rows are (h_L*, q*, r*) and (h_R*, q*, r*), so row C is overwritten
    star[0] = h_L_star
    F_left = np.subtract(star, L.hqr, out=work)
    F_left *= lam_L
    F_left += L.F
    star[0] = h_R_star
    F_right = np.subtract(R.hqr, star)
    F_right *= lam_R
    np.subtract(R.F, F_right, out=F_right)

    return RiemannFan(lam_L=lam_L, lam_R=lam_R, q_star=q_star, r_star=r_star,
                      h_L_star=h_L_star, h_R_star=h_R_star,
                      F_left=F_left, F_right=F_right, fallback=fallback)
