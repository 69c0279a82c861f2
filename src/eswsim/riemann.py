"""Three-wave well-balanced approximate Riemann solver.

Each interface carries two outer waves with speeds lam_L <= 0 <= lam_R and a
stationary contact at speed 0 associated with the topography jump. The star
discharges q* and r* come from the integral consistency relations combined
with the contact invariants; the star depths solve the linear depth relation
together with the Bernoulli relation across the contact.

All functions are vectorized over interfaces.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .closures import closure_factors
from .hyperbolicity import jacobian_b, nickalls_bounds
from .operands import HALF, ONE, THREE, ZERO
from .state import PhysicalParams, _delta1_from_ue

_NEWTON_TOL = 1e-15
_HALLEY_TOL = 4e-7
_NEWTON_MAX_ITER = 50


class CellEval(NamedTuple):
    """Per-cell state and flux ((3, n) arrays, rows h, q, r), Nickalls bounds
    and closure of one state, evaluated once per step."""

    hqr: np.ndarray
    F: np.ndarray
    lam_L: np.ndarray
    lam_R: np.ndarray
    delta1: np.ndarray
    H: np.ndarray
    f2: np.ndarray

    h, q, r = (property(lambda self, k=k: self.hqr[k]) for k in range(3))


class RiemannFan(NamedTuple):
    """Interface star states and the two numerical fluxes (with no
    Newton-active interface h_L_star and h_R_star are one array); F_left
    and F_right are (3, n + 1) arrays with rows h, q, r."""

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
    np.divide(ONE, H, out=F2)
    F2 += ONE
    F2 *= r
    F2 *= u_e
    return F0, F1, F2


def source_averages(W_L, W_R, jump_fb, froude):
    """Vol'pert averages of the two non-conservative source terms between
    the (3, n) states W_L and W_R; the topography one is None if jump_fb is."""
    h_sum = W_L[0] + W_R[0]
    topo_src = None
    if jump_fb is not None:
        topo_src = h_sum / (2.0 * froude**2)
        topo_src *= jump_fb
    exchange_src = W_L[1] + W_R[1]
    exchange_src /= h_sum
    exchange_src *= np.subtract(W_R[2], W_L[2], out=h_sum)
    return topo_src, exchange_src


def evaluate_cells(hqr, params: PhysicalParams, dudx=0.0,
                   u_e=None) -> CellEval:
    """Evaluate each cell of the (3, n) state hqr at frozen gradient dudx;
    u_e = q/h if None."""
    h, q, r = hqr[0], hqr[1], hqr[2]
    u_e = q / h if u_e is None else u_e
    delta1 = _delta1_from_ue(u_e, r)
    lambda1 = np.square(delta1)
    lambda1 *= dudx
    H, f2 = closure_factors(params.closure, lambda1)
    b, _ = jacobian_b(u_e, lambda1, H, params.closure)
    lam_L, lam_R = nickalls_bounds(u_e, b, h, params.froude)
    F = np.empty(hqr.shape)
    physical_flux(h, q, r, H, params, u_e, F)
    return CellEval(hqr, F, lam_L, lam_R, delta1, H, f2)


def _star_depths(q_star, C, span, froude, jump_fb, lam_L, lam_R, flat=False):
    """Solve the 2x2 star-depth system for h = h_R*; span = lam_R - lam_L.

    The linear relation gives h_L* = (lam_R*h - C)/lam_L, and the Bernoulli
    relation across the contact leaves, on the bracket h in (0, C/lam_R)
    where both depths are positive,
        g(h) = q*^2/2 (1/h^2 - 1/h_L*^2) + (h - h_L* + [f_b]) / Fr^2 = 0.
    One Newton step from the HLL depth C/span comes first. There h_L* = h
    exactly, so g = [f_b]/Fr^2 and g' = (1 - lam_R/lam_L)(1/Fr^2 - q*^2/h^3),
    and the step is [f_b] / ((1 - lam_R/lam_L)(1 - Fr^2 q*^2/h^3)): the
    generic g/g' in exact arithmetic, so the iteration stays on the HLL
    depth's branch. Halley steps h - d / (1 - d g''/(2g')) follow, with
    d = g/g' and g'' = q*^2/2 (6/h^4 - 6 (lam_R/lam_L)^2/h_L*^4), each power
    a product of 1/h and 1/h_L*. Each interface stops on its own, once its
    |d| / max(1, h) is at most _NEWTON_TOL after the Newton step, or after
    a Halley step at most both _HALLEY_TOL and _NEWTON_TOL / (c2 d)^2, with
    c2 = g''/(2g'). The loop runs on every interface and a stopped one keeps
    its depth, so no depth depends on the other interfaces of the call.

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
    as g' nears zero, where two roots of g merge (critical star flow), and
    then c2^2 dominates it: the second bound keeps c2^2 d^3 under
    _NEWTON_TOL. On the steep bumps of tests/fallback_counts.py c2 reaches
    thousands, and the first bound alone would leave up to 1.8e-15. The
    ensemble's (c2 d)^2 |d| stays below 6e-19, so the second bound never
    acts there. Near a double root, g's rounding alone spreads its computed
    zero over more than 1e-15 of h, and no iteration on it can promise that.

    The fallback mask marks the interfaces whose iteration fails (a
    nonpositive HLL depth, a non-finite q*, a nonpositive or non-finite
    iterate, which a zero g' gives, or no stop by _NEWTON_MAX_ITER); they
    take equal HLL star depths.

    Only interfaces with a bed jump and lam_L < 0 < lam_R iterate; the
    others keep the HLL depth. A side with a zero outer speed has a star
    region of zero width: no flux reads its depth, which solve_local_riemann
    multiplies by that zero speed. On a flat bed none iterates. Callers
    pass every argument by position: perfbench's tracer counts the active
    interfaces from (jump_fb, lam_L, lam_R) = args[4:7].
    """
    h = C / span
    active = not flat and (jump_fb != ZERO) & (lam_L < ZERO) & (lam_R > ZERO)
    if flat or not np.count_nonzero(active):
        return h, h, np.zeros(h.shape, dtype=bool)

    fr2 = froude**2
    # every interface computes, and a guard only masks it: a zero g' or a
    # non-finite q* makes an infinite or NaN iterate, and C <= 0 (a
    # nonpositive HLL depth) leaves no h where both depths are positive, so
    # each fails the positivity check after the Newton step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dhl = lam_R / lam_L                 # dh_L*/dh
        one_dhl = ONE - dhl
        q2 = np.square(q_star)
        inv_h = ONE / h
        # the Newton step [f_b] / ((1 - dhl)(1 - Fr^2 q*^2/h^3))
        d = jump_fb / ((ONE - q2 * inv_h * inv_h * inv_h * fr2) * one_dhl)
        hr = h - d
        q2h, dhl2, dg_lin = HALF * q2, np.square(dhl), one_dhl / fr2
        three_q2h = THREE * q2h
        live, tol = active, _NEWTON_TOL
        for it in range(_NEWTON_MAX_ITER):
            if it:
                # Halley from 1/h and 1/h_L* and their products
                inv_hr, inv_hl = ONE / hr, ONE / hl
                inv_hr2, inv_hl2 = np.square(inv_hr), np.square(inv_hl)
                g = hr - hl
                g += jump_fb
                g /= fr2
                g += q2h * (inv_hr2 - inv_hl2)
                # g' = q*^2 (dhl/h_L*^3 - 1/h^3) + (1 - dhl)/Fr^2
                dg = dhl * inv_hl2
                dg *= inv_hl
                dg -= np.multiply(inv_hr2, inv_hr, out=inv_hr)
                dg *= q2
                dg += dg_lin
                # g''/2 = 3 q*^2/2 (1/h^4 - dhl^2/h_L*^4)
                half_d2g = np.square(inv_hr2, out=inv_hr2)
                half_d2g -= dhl2 * np.square(inv_hl2, out=inv_hl2)
                half_d2g *= three_q2h
                d = np.divide(g, dg, out=g)
                c2d = d * half_d2g
                c2d /= dg
                # the step leaves about c2^2 d^3: a large c2 (critical star
                # flow) tightens the stop to |d| (c2 d)^2 <= _NEWTON_TOL
                tol = np.square(c2d)
                np.divide(_NEWTON_TOL, tol, out=tol)
                np.minimum(tol, _HALLEY_TOL, out=tol)
                halley = np.subtract(ONE, c2d, out=c2d)
                np.divide(d, halley, out=halley)
                hr = np.where(live, hr - halley, hr)
            hl = lam_R * hr
            hl -= C
            hl /= lam_L
            ok = np.minimum(hr, hl) > ZERO
            live = live & ok
            rel_step = np.abs(d)
            rel_step /= np.maximum(ONE, hr)
            live &= rel_step > tol
            if not np.count_nonzero(live):
                break
        # the interfaces still live, all of them ok, did not stop by the cap
        done = ok & active
        done ^= live
    return np.where(done, hl, h), np.where(done, hr, h), active ^ done


def solve_local_riemann(W_L, F_L, W_R, F_R, lam_L, lam_R, jump_fb,
                        params: PhysicalParams, flat=False) -> RiemannFan:
    """Star states and left/right numerical fluxes at each interface.

    W_L, F_L and W_R, F_R are the (3, n) states and physical fluxes of the
    cells left and right of each interface, whose outer wave speeds are
    lam_L <= 0 <= lam_R (timeloop.interface_speeds); on a flat bed
    (Grid1D.flat_bed) the zero topography source is skipped.
    """
    span = lam_R - lam_L
    topo_src, exchange_src = source_averages(
        W_L, W_R, None if flat else jump_fb, params.froude)

    # rows C, q*, r* of lam_R*W_R - lam_L*W_L - (F_R - F_L), then
    # r* = (... + exchange) / span and q* = (... - topo + db*exchange) / span
    star = np.multiply(lam_R, W_R)
    work = np.multiply(lam_L, W_L)
    star -= work
    star -= np.subtract(F_R, F_L, out=work)
    C, q_star, r_star = star[0], star[1], star[2]
    r_star += exchange_src
    if topo_src is not None:
        q_star -= topo_src
    exchange_src *= params.delta_bar
    q_star += exchange_src
    star[1:] /= span
    h_L_star, h_R_star, fallback = _star_depths(
        q_star, C, span, params.froude, jump_fb, lam_L, lam_R, flat)

    # F_L + lam_L*(star_L - W_L) and F_R - lam_R*(W_R - star_R): the star
    # rows are (h_L*, q*, r*) and (h_R*, q*, r*), so row C is overwritten
    star[0] = h_L_star
    F_left = np.subtract(star, W_L, out=work)
    F_left *= lam_L
    F_left += F_L
    star[0] = h_R_star
    F_right = np.subtract(W_R, star)
    F_right *= lam_R
    np.subtract(F_R, F_right, out=F_right)

    return RiemannFan(q_star, r_star, h_L_star, h_R_star, F_left, F_right,
                      fallback)
