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
from .hyperbolicity import jacobian_b, nickalls_bounds
from .state import ConservedState, PhysicalParams, _delta1_from_ue

log = logging.getLogger(__name__)

_NEWTON_TOL = 1e-15
_HALLEY_TOL = 4e-7
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
    (with no Newton-active interface h_L_star and h_R_star are one array);
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


def physical_flux(h, q, r, H, params: PhysicalParams, u_e, out):
    """(q - delta_bar*r, q*u_e + h^2/(2Fr^2), (1+1/H)*r*u_e) for u_e = q/h,
    written into the rows of out, a (3, n) array; returns the rows."""
    F0, F1, F2 = out[0], out[1], out[2]   # indexing: cheaper than unpacking
    np.subtract(q, params.delta_bar * r, out=F0)
    np.multiply(q, u_e, out=F1)
    h2 = np.square(h)
    h2 /= 2.0 * params.froude**2
    F1 += h2
    np.divide(1.0, H, out=F2)
    F2 += 1.0
    F2 *= r
    F2 *= u_e
    return F0, F1, F2


def source_averages(W_L, W_R, jump_fb, froude):
    """Vol'pert averages of the two non-conservative source terms; the
    topography one is None for a flat bed, jump_fb None."""
    L, R = W_L.hqr, W_R.hqr    # row indexing: cheaper than unpacking
    h_sum = L[0] + R[0]
    topo_src = None
    if jump_fb is not None:
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
    b, _ = jacobian_b(u_e, lambda1, H, params.closure)
    lam_L, lam_R = nickalls_bounds(u_e, b, h, params.froude)
    F = np.empty_like(W.hqr)
    physical_flux(h, q, r, H, params, u_e, F)
    return CellEval(W.hqr, F, lam_L, lam_R, delta1, H, f2)


def _star_depths(h_L, h_R, q_star, C, jump_fb, lam_L, lam_R, froude, span,
                 flat=False):
    """Solve the 2x2 star-depth system for h = h_R*; span = lam_R - lam_L.

    The linear relation gives h_L* = (lam_R*h - C)/lam_L, and the Bernoulli
    relation across the contact leaves, on the bracket h in (0, C/lam_R)
    where both depths are positive,
        g(h) = q*^2/2 (1/h^2 - 1/h_L*^2) + (h - h_L* + [f_b]) / Fr^2 = 0.
    One Newton step from the HLL depth C/span comes first, then Halley
    steps h - d / (1 - d g''/(2g')), with d = g/g' and
    g'' = q*^2/2 (6/h^4 - 6 (lam_R/lam_L)^2/h_L*^4). The loop stops once
    every |d| / max(1, h) is at most _NEWTON_TOL after the Newton step, or
    _HALLEY_TOL after a Halley step.

    The Halley stop: in the bracket g', g'' and
    g''' = -12 q*^2 (1/h^5 + |lam_R/lam_L|^3/h_L*^5) are finite, so near a
    simple root a Halley step from the error e (d to first order) leaves
    K e^3, with K = |c2^2 - c3| <= c2^2 + |c3|, c2 = g''/(2g') and
    c3 = g'''/(6g') taken between the iterate and the root: relative to
    max(1, h), the accepted depth is off by at most K max(1, h)^2 tol^3.
    On the benchmark's bump ensemble (seeds 1-4), (c2^2 + |c3|) max(1, h)^2
    stays below 1.3e4, so tol = 4e-7 bounds the error by 8e-16, under the
    Newton stop's 1e-15 (5e-7 would allow 1.6e-15); d after the Newton step
    is at most 2.3e-7 there, so every solve takes two iterations. K grows
    as g' nears zero, where two roots of g merge (critical star flow).

    The fallback mask marks the interfaces whose iteration fails (a
    non-finite q*, a nonpositive or non-finite iterate, which a zero g'
    gives, or no convergence by _NEWTON_MAX_ITER); they take equal HLL
    star depths.

    Only interfaces with a bed jump and lam_L < 0 < lam_R iterate; the
    others keep the HLL depth. A side with a zero outer speed has a star
    region of zero width: no flux reads its depth, which solve_local_riemann
    multiplies by that zero speed. On a flat bed none iterates. h_R is
    unused and h_L only shapes the fallback mask; both keep in place the
    args[4:7] that perfbench reads.
    """
    fr2 = froude**2
    h_hll = C / span
    fallback = np.zeros(h_L.shape, dtype=bool)

    hL = hR = h_hll
    active = not flat and (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    if not flat and active.any():
        # every active interface falls back unless its iteration converges
        fallback = active
        hR = h_hll.copy()
        hL = h_hll.copy()
        idx = np.flatnonzero(active)
        hr = h_hll[idx]
        lamL, lamR, Ci, jfb = lam_L[idx], lam_R[idx], C[idx], jump_fb[idx]
        # a zero g' or a non-finite q* makes an infinite or NaN iterate,
        # which the next positivity check (or the last one) drops
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q2h = q_star[idx]**2 / 2.0
            dhl = lamR / lamL
            two_dhl = 2.0 * dhl
            dg_lin = (1.0 - dhl) / fr2
            three_dhl2 = 3.0 * dhl**2
            for it in range(_NEWTON_MAX_ITER):
                hl = (lamR * hr - Ci) / lamL
                # a NaN iterate makes min NaN; with none left it is inf
                if not (hr.min(initial=np.inf) > 0.0
                        and hl.min(initial=np.inf) > 0.0):
                    keep = (hr > 0.0) & (hl > 0.0)
                    idx, hr, hl, lamL, lamR, Ci, jfb, q2h, two_dhl, \
                        dg_lin, three_dhl2 = (a[keep] for a in (
                            idx, hr, hl, lamL, lamR, Ci, jfb, q2h, two_dhl,
                            dg_lin, three_dhl2))
                inv_hr2 = 1.0 / hr**2
                inv_hl2 = 1.0 / hl**2
                g = q2h * (inv_hr2 - inv_hl2) + (hr - hl + jfb) / fr2
                dg = q2h * (-2.0 / hr**3 + two_dhl / hl**3) + dg_lin
                if log.isEnabledFor(logging.DEBUG):
                    near = int(np.count_nonzero(np.abs(dg) < 1e-8))
                    if near:
                        log.debug("near-critical star-depth solve at %d "
                                  "interfaces", near)
                newton = g / dg
                if it == 0:
                    hr = hr - newton
                    tol = _NEWTON_TOL
                else:
                    half_d2g = q2h * (3.0 * inv_hr2 * inv_hr2
                                      - three_dhl2 * inv_hl2 * inv_hl2)
                    hr = hr - newton / (1.0 - newton * half_d2g / dg)
                    tol = _HALLEY_TOL
                rel_step = np.abs(newton) / np.maximum(1.0, hr)
                converged = rel_step.max(initial=0.0) <= tol
                if converged:
                    break
            hl = (lamR * hr - Ci) / lamL
            if not (converged and hr.min(initial=np.inf) > 0.0
                    and hl.min(initial=np.inf) > 0.0):
                done = (rel_step <= tol) & (hr > 0.0) & (hl > 0.0)
                idx, hr, hl = idx[done], hr[done], hl[done]
        hR[idx] = hr
        hL[idx] = hl
        fallback[idx] = False

    return hL, hR, fallback


def solve_local_riemann(L: CellEval, R: CellEval, jump_fb,
                        params: PhysicalParams, flat=False) -> RiemannFan:
    """Star states and left/right numerical fluxes at each interface.

    L and R evaluate the cells left and right of each interface; on a flat
    bed (Grid1D.flat_bed) the zero topography source is skipped.
    """
    lam_L = np.minimum(L.lam_L, R.lam_L)
    np.minimum(lam_L, 0.0, out=lam_L)
    lam_R = np.maximum(L.lam_R, R.lam_R)
    np.maximum(lam_R, 0.0, out=lam_R)
    span = lam_R - lam_L
    topo_src, exchange_src = source_averages(
        L, R, None if flat else jump_fb, params.froude)

    # rows C, q*, r* of lam_R*W_R - lam_L*W_L - (F_R - F_L), then
    # r* = (... + exchange) / span and q* = (... - topo + db*exchange) / span
    star = np.multiply(lam_R, R.hqr)
    work = np.multiply(lam_L, L.hqr)
    star -= work
    star -= np.subtract(R.F, L.F, out=work)
    C, q_star, r_star = star[0], star[1], star[2]
    r_star += exchange_src
    r_star /= span
    if topo_src is not None:
        q_star -= topo_src
    exchange_src *= params.delta_bar
    q_star += exchange_src
    q_star /= span
    h_L_star, h_R_star, fallback = _star_depths(
        L.h, R.h, q_star, C, jump_fb, lam_L, lam_R, params.froude, span, flat)

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
