"""Wave speeds and conditional hyperbolicity of the quasi-linear system.

The characteristic polynomial factors as P(lambda) = -P_SW(lambda) + d with

    P_SW(lambda) = (b - u_e - lambda)*((u_e - lambda)^2 - h/Fr^2),
    d = delta_bar*a/Fr^2,

where a, b are the partial derivatives of the viscous-layer flux
(1 + 1/H)*r*u_e with respect to u_e and r, taken with the velocity gradient
treated as a frozen external field.
"""

from __future__ import annotations

import numpy as np

from .closures import (FS_CUT, FS_LO, FS_SLOPE, ClosureLaw, FalknerSkanFit,
                       FixedProfile, Pohlhausen4)
from .errors import DomainError
from .operands import ONE, THREE, TWO, ZERO


def jacobian_coeffs(u_e, r, lambda1, H, law: ClosureLaw = FalknerSkanFit()):
    """Partial derivatives (a, b) of the flux (1 + 1/H)*r*u_e.

    With the Falkner-Skan fit on its exponential branch the chain rule
    through H(Lambda1) contributes the 0.74*Lambda1 terms; constant-H laws,
    the saturated branch Lambda1 >= 0.6 and the clamped H below
    LAMBDA1_CLAMP[0] lose them.
    """
    b, slope = jacobian_b(u_e, lambda1, H, law)
    a = np.subtract(ONE, slope, out=np.empty(np.broadcast(r, slope, H).shape))
    a /= H
    a += ONE
    a *= r
    return a, b


def jacobian_b(u_e, lambda1, H, law: ClosureLaw = FalknerSkanFit()):
    """(b, slope): the b of jacobian_coeffs alone, all that the step reads,
    and the slope 0.74*Lambda1 (or 0) that b and a carry as 1 +- slope."""
    lambda1 = np.asarray(lambda1, float)
    if isinstance(law, FalknerSkanFit):
        active = (lambda1 >= FS_LO) & (lambda1 < FS_CUT)
        slope = np.where(active, FS_SLOPE * lambda1, ZERO)
    elif isinstance(law, (FixedProfile, Pohlhausen4)):
        # Pohlhausen4 treated as frozen-H for wave-speed estimates
        slope = 0.0
    else:
        raise DomainError(f"unknown closure law: {law!r}")
    b = np.add(ONE, slope, out=np.empty(np.broadcast(u_e, slope, H).shape))
    b /= H
    b += ONE
    b *= u_e
    return b, slope


def decoupled_speeds(h, u_e, b, froude):
    """(lam1_0, lam2_0, lam3_0): shallow-water pair and viscous-layer speed."""
    c = np.sqrt(np.asarray(h, float)) / froude
    return u_e - c, u_e + c, b - u_e


def nickalls_bounds(u_e, b, h, froude):
    """Closed-form interval containing all real characteristic roots."""
    shape = np.broadcast(u_e, b, h).shape
    # radius = sqrt(3*h/Fr^2 + (2*u_e - b)^2), then (u_e + b -+ 2*radius)/3
    radius = np.multiply(THREE, h, out=np.empty(shape))
    radius /= froude**2
    lam_R = np.multiply(TWO, u_e, out=np.empty(shape))
    lam_R -= b
    radius += np.square(lam_R, out=lam_R)
    np.sqrt(radius, out=radius)
    radius *= TWO
    np.add(u_e, b, out=lam_R)
    lam_L = lam_R - radius
    lam_R += radius
    lam_L /= THREE
    lam_R /= THREE
    return lam_L, lam_R


def _p_sw(lam, u_e, b, c2):
    return (b - u_e - lam) * ((u_e - lam) ** 2 - c2)


def characteristic_roots(h, u_e, a, b, froude, delta_bar):
    """Solve P_SW(lambda) = d for the full wave speeds of broadcast states.

    Closed-form roots (trigonometric for margin >= 0, Cardano otherwise),
    polished by one Newton step. Returns (roots, margin): roots
    has shape (3,) + the broadcast shape, ascending along axis 0, with NaN
    in the two upper slots where only one root is real; margin is the
    signed distance of d to the admissible interval (P_SW(lam-),
    P_SW(lam+)). A state is hyperbolic, with three real roots, exactly when
    margin > 0; a non-hyperbolic state is flagged, not fatal.
    """
    h, u_e, a, b = (np.asarray(v, float) for v in (h, u_e, a, b))
    c2 = h / froude**2
    d = delta_bar * a / froude**2

    # monic form: lambda^3 - p*lambda^2 + q*lambda - s + d = 0
    B = b - u_e
    p = B + 2.0 * u_e
    q = 2.0 * u_e * B + u_e**2 - c2
    s = B * (u_e**2 - c2)

    # critical points of P_SW; the radicand (B - u_e)^2 + 3*c2 is positive
    disc = np.sqrt((B - u_e) ** 2 + 3.0 * c2)
    margin = np.minimum(d - _p_sw((p - disc) / 3.0, u_e, b, c2),
                        _p_sw((p + disc) / 3.0, u_e, b, c2) - d)

    # depressed cubic t^3 + pt*t + qt with lambda = t + p/3; each branch is
    # evaluated everywhere and kept only where it applies
    shift = p / 3.0
    pt = q - p**2 / 3.0
    qt = -s + d + p * q / 3.0 - 2.0 * p**3 / 27.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # three real roots (trigonometric form); pt < 0 there
        m = 2.0 * np.sqrt(np.maximum(-pt, 0.0) / 3.0)
        arg = np.where((pt != 0.0) & (m != 0.0), 3.0 * qt / (pt * m), 0.0)
        theta = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
        k = np.arange(3.0).reshape((3,) + (1,) * theta.ndim)
        trig = m * np.cos(theta - 2.0 * np.pi * k / 3.0) + shift
        # single real root (Cardano); its radicand is negative elsewhere
        sq = np.sqrt((qt / 2.0) ** 2 + (pt / 3.0) ** 3)
        single = np.full(trig.shape, np.nan)
        single[0] = np.cbrt(-qt / 2.0 + sq) + np.cbrt(-qt / 2.0 - sq) + shift
    roots = np.where(margin >= 0.0, trig, single)

    # one Newton step on g = P_SW - d, none where g' vanishes
    g = _p_sw(roots, u_e, b, c2) - d
    dg = -((u_e - roots) ** 2 - c2) - 2.0 * (b - u_e - roots) * (u_e - roots)
    roots -= np.divide(g, dg, out=np.zeros(roots.shape), where=dg != 0.0)
    roots.sort(axis=0)
    return roots, margin
