"""Wave speeds and conditional hyperbolicity of the quasi-linear system.

The characteristic polynomial factors as P(lambda) = -P_SW(lambda) + d with

    P_SW(lambda) = (b - u_e - lambda)*((u_e - lambda)^2 - h/Fr^2),
    d = delta_bar*a/Fr^2,

where a, b are the partial derivatives of the viscous-layer flux
(1 + 1/H)*r*u_e with respect to u_e and r, taken with the velocity gradient
treated as a frozen external field.
"""

from __future__ import annotations

import math

import numpy as np

from .closures import (BlasiusConstant, ClosureLaw, FalknerSkanFit,
                       FixedProfile, Pohlhausen4)


def jacobian_coeffs(u_e, r, lambda1, H, law: ClosureLaw = FalknerSkanFit()):
    """Partial derivatives (a, b) of the flux (1 + 1/H)*r*u_e.

    With the Falkner-Skan fit on its exponential branch the chain rule
    through H(Lambda1) contributes the 0.74*Lambda1 terms; constant-H laws
    (and the saturated branch Lambda1 >= 0.6) lose them.
    """
    lambda1 = np.asarray(lambda1, float)
    if isinstance(law, FalknerSkanFit):
        # a and b carry 1 -+ 0.74*Lambda1 on the active branch, 1 beyond it
        slope = np.where(lambda1 < 0.6, 0.74 * lambda1, 0.0)
    elif isinstance(law, (BlasiusConstant, FixedProfile, Pohlhausen4)):
        # Pohlhausen4 treated as frozen-H for wave-speed estimates
        slope = 0.0
    else:
        raise TypeError(f"unknown closure law: {law!r}")
    a = np.subtract(1.0, slope, out=np.empty(np.broadcast(r, slope, H).shape))
    b = np.add(1.0, slope, out=np.empty(np.broadcast(u_e, slope, H).shape))
    a /= H
    b /= H
    a += 1.0
    a *= r
    b += 1.0
    b *= u_e
    return a, b


def decoupled_speeds(h, u_e, b, froude):
    """(lam1_0, lam2_0, lam3_0): shallow-water pair and viscous-layer speed."""
    c = np.sqrt(np.asarray(h, float)) / froude
    return u_e - c, u_e + c, b - u_e


def nickalls_bounds(u_e, b, h, froude):
    """Closed-form interval containing all real characteristic roots."""
    shape = np.broadcast(u_e, b, h).shape
    # radius = sqrt((2*u_e - b)^2 + 3*h/Fr^2), then (u_e + b -+ 2*radius)/3
    radius = np.multiply(2.0, u_e, out=np.empty(shape))
    radius -= b
    np.square(radius, out=radius)
    radius += 3.0 * np.asarray(h, float) / froude**2
    np.sqrt(radius, out=radius)
    radius *= 2.0
    lam_R = np.add(u_e, b, out=np.empty(shape))
    lam_L = lam_R - radius
    lam_R += radius
    lam_L /= 3.0
    lam_R /= 3.0
    return lam_L, lam_R


def _p_sw(lam, u_e, b, c2):
    return (b - u_e - lam) * ((u_e - lam) ** 2 - c2)


def characteristic_roots(h, u_e, a, b, froude, delta_bar):
    """Solve P_SW(lambda) = d for the full wave speeds of one state.

    Closed-form trigonometric solution polished by one Newton step per root.
    Returns (roots, margin): the real roots in ascending order and the
    signed distance of d to the admissible interval (P_SW(lam-),
    P_SW(lam+)). The state is hyperbolic, with three real roots, exactly
    when margin > 0; a non-hyperbolic state is flagged, not fatal.
    """
    h = float(h)
    u_e = float(u_e)
    a = float(a)
    b = float(b)
    c2 = h / froude**2
    d = delta_bar * a / froude**2

    # monic form: lambda^3 - p*lambda^2 + q*lambda - s + d = 0
    B = b - u_e
    p = B + 2.0 * u_e
    q = 2.0 * u_e * B + u_e**2 - c2
    s = B * (u_e**2 - c2)

    # critical points of P_SW; the radicand (B - u_e)^2 + 3*c2 is positive
    disc = math.sqrt((B - u_e) ** 2 + 3.0 * c2)
    lam_minus = (p - disc) / 3.0
    lam_plus = (p + disc) / 3.0
    p_min = _p_sw(lam_minus, u_e, b, c2)
    p_max = _p_sw(lam_plus, u_e, b, c2)
    margin = min(d - p_min, p_max - d)

    # depressed cubic t^3 + pt*t + qt with lambda = t + p/3
    shift = p / 3.0
    pt = q - p**2 / 3.0
    qt = -s + d + p * q / 3.0 - 2.0 * p**3 / 27.0
    roots = []
    if margin >= 0.0:
        # three real roots (trigonometric form); pt < 0 here
        m = 2.0 * math.sqrt(max(-pt, 0.0) / 3.0)
        arg = 3.0 * qt / (pt * m) if pt != 0.0 and m != 0.0 else 0.0
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        for k in range(3):
            roots.append(m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift)
    else:
        # single real root (Cardano)
        half_q = qt / 2.0
        delta = half_q**2 + (pt / 3.0) ** 3
        sq = math.sqrt(delta)
        u_c = math.copysign(abs(-half_q + sq) ** (1.0 / 3.0), -half_q + sq)
        v_c = math.copysign(abs(-half_q - sq) ** (1.0 / 3.0), -half_q - sq)
        roots.append(u_c + v_c + shift)

    # Newton polish on g = P_SW - d
    polished = []
    for lam in roots:
        for _ in range(3):
            g = _p_sw(lam, u_e, b, c2) - d
            dg = -((u_e - lam) ** 2 - c2) - 2.0 * (b - u_e - lam) * (u_e - lam)
            if dg == 0.0:
                break
            lam -= g / dg
        polished.append(lam)
    polished.sort()

    return tuple(polished), float(margin)
