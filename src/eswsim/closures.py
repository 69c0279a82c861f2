"""Viscous-layer closure laws.

A closure law turns the local state of the viscous layer (displacement
thickness ``delta1``, edge velocity ``u_e`` and its gradient) into the shape
factor H, the friction factor f2 and the rescaled wall shear
``tau_bar = f2*H*u_e/delta1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .operands import EIGHT, FOUR, ONE

# Physically meaningful pressure-gradient range is roughly [-6, 0.6]; the
# clamp only guards the exponential against transient spikes.
LAMBDA1_CLAMP = (-20.0, 10.0)
FS_LO, FS_HI, FS_CUT, FS_EXP, FS_H, FS_SAT, FS_F2, FS_SLOPE = (np.broadcast_to(
    v, ()) for v in (*LAMBDA1_CLAMP, 0.6, -0.37, 2.59, 2.074, 1.05, 0.74))
DELTA1_FLOOR = 1e-12
# shape and friction factors of the Blasius flat-plate profile
BLASIUS_H = 2.59
BLASIUS_F2 = 0.22


@dataclass(frozen=True)
class FalknerSkanFit:
    """Fitted closure to the Falkner-Skan similarity solutions."""


@dataclass(frozen=True)
class FixedProfile:
    """Constant shape and friction factors, independent of the pressure
    gradient; the Blasius values by default."""

    H: float = BLASIUS_H
    f2: float = BLASIUS_F2

    def __post_init__(self):
        if not (1.0 <= self.H < np.inf and 0.0 <= self.f2 < np.inf):
            raise DomainError("FixedProfile requires a finite H >= 1 and a "
                              "finite f2 >= 0")


@dataclass(frozen=True)
class Pohlhausen4:
    """Fourth-order polynomial profile with free parameter Lambda."""


# an X | Y union, not typing.Union: typing's cache would keep every
# re-imported copy of the package alive
ClosureLaw = FalknerSkanFit | FixedProfile | Pohlhausen4


def shape_factor_fs(lambda1):
    """Shape factor of the Falkner-Skan fit.

    H = 2.59*exp(-0.37*Lambda1) below Lambda1 = 0.6 and the constant 2.074
    beyond (continuous at the junction to fit accuracy).
    """
    lam = np.asarray(lambda1, dtype=float)
    # np.clip in two ufunc calls; out= from np.empty keeps 0-d input writable
    H = np.maximum(lam, FS_LO, out=np.empty(lam.shape))
    np.minimum(H, FS_HI, out=H)
    saturated = ~(H < FS_CUT)
    H *= FS_EXP
    np.exp(H, out=H)
    H *= FS_H
    np.copyto(H, FS_SAT, where=saturated)
    return H


def friction_factor_fs(H):
    """Friction factor f2 = 1.05*(4/H^2 - 1/H); negative beyond H = 4."""
    H = np.asarray(H, dtype=float)
    f2 = np.square(H, out=np.empty(H.shape))
    np.divide(FOUR, f2, out=f2)
    f2 -= ONE / H
    f2 *= FS_F2
    return f2


def pohlhausen4_profile(Lambda, xi):
    """Quartic velocity profile phi(xi) on the rescaled layer coordinate."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0) or np.any(xi > 1.0):
        raise DomainError("profile coordinate must lie in [0, 1]")
    return (2 * xi - 2 * xi**3 + xi**4) + (Lambda / 6.0) * xi * (1 - xi) ** 3


def pohlhausen4_factors(Lambda):
    """(Lambda1, H, f2) of the quartic profile.

    The alpha1, alpha2 polynomials below are the closed forms of the
    profile-deficit integrals; test_closures checks them against numerical
    quadrature of the profile.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    if np.any(Lambda > 12.0):
        raise DomainError("Pohlhausen parameter must satisfy Lambda <= 12")
    alpha1 = 3.0 / 10.0 - Lambda / 120.0
    alpha2 = 37.0 / 315.0 - Lambda / 945.0 - Lambda**2 / 9072.0
    lambda1 = ((36.0 - Lambda) / 120.0) ** 2 * Lambda
    H = alpha1 / alpha2
    f2 = alpha2 * (2.0 + Lambda / 6.0)  # alpha1*phi'(0)/H
    return lambda1, H, f2


def _pohlhausen4_lambda_from_lambda1(lambda1):
    """Invert the monotone map Lambda -> Lambda1 on Lambda in [-24, 12].

    With Lambda = 24 + y the map is the depressed cubic
    y^3 - 432*y + 3456 - 14400*Lambda1 = 0; with c = 25*Lambda1/6 - 1 its
    root on the branch through Lambda = 0 is 24*cos((acos(c) + 2*pi)/3)
    for c in [-1, 1] and -24*cosh(acosh(-c)/3) below. Values of Lambda1
    outside the attainable range [-6, 0.48] are clamped.
    """
    lam1 = np.clip(np.asarray(lambda1, dtype=float), -6.0, 0.48)
    c = 25.0 * lam1 / 6.0 - 1.0
    y = np.where(c >= -1.0,
                 24.0 * np.cos((np.arccos(np.clip(c, -1.0, 1.0))
                                + 2.0 * np.pi) / 3.0),
                 -24.0 * np.cosh(np.arccosh(np.maximum(-c, 1.0)) / 3.0))
    # at Lambda1 = 0.48 the rounded root can exceed 12 by a few ulp
    return np.clip(24.0 + y, -24.0, 12.0)


def ue_gradient(u_e, dx, order=4):
    """Finite-difference gradient of the edge velocity field.

    Interior cells use the centered stencil of the requested order; the two
    cells adjacent to each end fall back to one-sided second-order
    differences.
    """
    u = np.asarray(u_e, dtype=float)
    if order not in (2, 4):
        raise DomainError("gradient order must be 2 or 4")
    if u.size <= order:
        raise DomainError(f"order-{order} needs at least {order + 1} cells")
    g = np.empty(u.shape)
    # the end cells in Python floats, which round as float64 does
    (u0, u1, u2), (v2, v1, v0) = u[:3].tolist(), u[-3:].tolist()
    if order == 2:
        inner = np.subtract(u[2:], u[:-2], out=g[1:-1])
        inner /= 2.0 * dx
    else:
        # (u[:-4] - 8*u[1:-3] + 8*u[3:-1] - u[4:]) / (12*dx)
        inner = np.multiply(EIGHT, u[1:-3], out=g[2:-2])
        np.subtract(u[:-4], inner, out=inner)
        inner += EIGHT * u[3:-1]
        inner -= u[4:]
        inner /= 12.0 * dx
        g[1] = (u2 - u0) / (2.0 * dx)
        g[-2] = (v0 - v2) / (2.0 * dx)
    # one-sided second order at the ends
    g[0] = (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * dx)
    g[-1] = (3.0 * v0 - 4.0 * v1 + v2) / (2.0 * dx)
    return g


def closure_factors(law: ClosureLaw, lambda1):
    """(H, f2) per the selected law at the given pressure-gradient parameter."""
    lam1 = np.asarray(lambda1, dtype=float)
    if isinstance(law, FalknerSkanFit):
        H = shape_factor_fs(lam1)
        f2 = friction_factor_fs(H)
    elif isinstance(law, FixedProfile):
        H = np.full_like(lam1, law.H, dtype=float)
        f2 = np.full_like(lam1, law.f2, dtype=float)
    elif isinstance(law, Pohlhausen4):
        Lam = _pohlhausen4_lambda_from_lambda1(lam1)
        _, H, f2 = pohlhausen4_factors(Lam)
    else:
        raise DomainError(f"unknown closure law: {law!r}")
    return H, f2
