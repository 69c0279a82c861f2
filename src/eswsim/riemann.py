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
from .state import ConservedState, PhysicalParams, _delta1_from_ue

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
    """Interface wave speeds, star states and the two numerical fluxes
    (on a flat bed h_L_star and h_R_star may be one and the same array)."""

    lam_L: np.ndarray
    lam_R: np.ndarray
    q_star: np.ndarray
    r_star: np.ndarray
    h_L_star: np.ndarray
    h_R_star: np.ndarray
    F_left: tuple    # (h, q, r) components
    F_right: tuple
    fallback: np.ndarray  # bool mask of interfaces using the HLL fallback


def physical_flux(h, q, r, H, params: PhysicalParams, u_e):
    """(q - delta_bar*r, q*u_e + h^2/(2Fr^2), (1+1/H)*r*u_e) for u_e = q/h."""
    F0 = q - params.delta_bar * r
    F1 = q * u_e
    h2 = np.square(h)
    h2 /= 2.0 * params.froude**2
    F1 += h2
    F2 = np.divide(1.0, H, out=np.empty(np.broadcast(H, r, u_e).shape))
    F2 += 1.0
    F2 *= r
    F2 *= u_e
    return F0, F1, F2


def source_averages(W_L, W_R, jump_fb, froude):
    """Vol'pert averages of the two non-conservative source terms."""
    h_sum = W_L.h + W_R.h
    topo_src = h_sum / (2.0 * froude**2)
    topo_src *= jump_fb
    exchange_src = W_L.q + W_R.q
    exchange_src /= h_sum
    exchange_src *= np.subtract(W_R.r, W_L.r, out=h_sum)
    return topo_src, exchange_src


def evaluate_cells(W: ConservedState, params: PhysicalParams,
                   dudx=0.0, u_e=None) -> CellEval:
    """Evaluate each cell of W at frozen gradient dudx; u_e = q/h if None."""
    u_e = W.q / W.h if u_e is None else u_e
    delta1 = _delta1_from_ue(u_e, W.r)
    lambda1 = np.square(delta1)
    lambda1 *= dudx
    H, f2 = closure_factors(params.closure, lambda1)
    _, b = jacobian_coeffs(u_e, W.r, lambda1, H, params.closure)
    lam_L, lam_R = nickalls_bounds(u_e, b, W.h, params.froude)
    return CellEval(W.h, W.q, W.r, delta1, H, f2, lam_L, lam_R,
                    physical_flux(W.h, W.q, W.r, H, params, u_e))


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

    # a flat bed has no Newton-active or one-sided interface to mask or copy
    has_jump = jump_fb.any()
    hL = hR = h_hll
    active = has_jump and (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    if np.any(active):
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

    # r* = (lam_R*r_R - lam_L*r_L - (F_R - F_L) + exchange) / span
    # q* = (lam_R*q_R - lam_L*q_L - (F_R - F_L) - topo + db*exchange) / span
    # C  =  lam_R*h_R - lam_L*h_L - (F_R - F_L)
    work = np.empty_like(span)
    sums = []
    for k, W_L, W_R in ((2, L.r, R.r), (1, L.q, R.q), (0, L.h, R.h)):
        total = lam_R * W_R
        total -= np.multiply(lam_L, W_L, out=work)
        total -= np.subtract(R.F[k], L.F[k], out=work)
        sums.append(total)
    r_star, q_star, C = sums
    r_star += exchange_src
    r_star /= span
    q_star -= topo_src
    exchange_src *= params.delta_bar
    q_star += exchange_src
    q_star /= span
    h_L_star, h_R_star, fallback = _star_depths(
        L.h, R.h, q_star, C, jump_fb, lam_L, lam_R, params.froude)

    # F_L + lam_L*(star - W_L), F_R - lam_R*(W_R - star); C must stay as is
    F_left, F_right = [], []
    for k, W_L, W_R, star_L, star_R, buf_L, buf_R in (
            (0, L.h, R.h, h_L_star, h_R_star, span, work),
            (1, L.q, R.q, q_star, q_star, topo_src, exchange_src),
            (2, L.r, R.r, r_star, r_star, None, None)):
        flux = np.subtract(star_L, W_L, out=buf_L)
        flux *= lam_L
        flux += L.F[k]
        F_left.append(flux)
        flux = np.subtract(W_R, star_R, out=buf_R)
        flux *= lam_R
        F_right.append(np.subtract(R.F[k], flux, out=flux))

    return RiemannFan(lam_L=lam_L, lam_R=lam_R, q_star=q_star, r_star=r_star,
                      h_L_star=h_L_star, h_R_star=h_R_star,
                      F_left=tuple(F_left), F_right=tuple(F_right),
                      fallback=fallback)
