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

# Physically meaningful pressure-gradient range is roughly [-6, 0.6]; the
# clamp only guards the exponential against transient spikes.
LAMBDA1_CLAMP = (-20.0, 10.0)
DELTA1_FLOOR = 1e-12


@dataclass(frozen=True)
class FalknerSkanFit:
    """Fitted closure to the Falkner-Skan similarity solutions."""


@dataclass(frozen=True)
class BlasiusConstant:
    """Constant Blasius values, independent of the pressure gradient."""

    H: float = 2.59
    f2: float = 0.22


@dataclass(frozen=True)
class FixedProfile:
    """User-chosen constant shape and friction factors."""

    H: float
    f2: float

    def __post_init__(self):
        if not (self.H >= 1.0 and np.isfinite(self.f2)):
            raise DomainError("FixedProfile requires H >= 1 and finite f2")


@dataclass(frozen=True)
class Pohlhausen4:
    """Fourth-order polynomial profile with free parameter Lambda."""


# an X | Y union, not typing.Union: typing's cache would keep every
# re-imported copy of the package alive
ClosureLaw = FalknerSkanFit | BlasiusConstant | FixedProfile | Pohlhausen4


@dataclass(frozen=True)
class ClosureEvaluation:
    """Bundle (Lambda1, H, f2, tau_bar) at one cell or per cell array."""

    lambda1: np.ndarray
    H: np.ndarray
    f2: np.ndarray
    tau_bar: np.ndarray


def shape_factor_fs(lambda1):
    """Shape factor of the Falkner-Skan fit.

    H = 2.59*exp(-0.37*Lambda1) below Lambda1 = 0.6 and the constant 2.074
    beyond (continuous at the junction to fit accuracy).
    """
    lam = np.clip(np.asarray(lambda1, dtype=float), *LAMBDA1_CLAMP)
    return np.where(lam < 0.6, 2.59 * np.exp(-0.37 * lam), 2.074)


def friction_factor_fs(H):
    """Friction factor f2 = 1.05*(4/H^2 - 1/H); negative beyond H = 4."""
    H = np.asarray(H, dtype=float)
    return 1.05 * (4.0 / H**2 - 1.0 / H)


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

    Values of Lambda1 outside the attainable range [-6, 0.48] are clamped.
    """
    lam1 = np.clip(np.asarray(lambda1, dtype=float), -6.0, 0.48)
    # linear initial guess through the endpoints of each branch
    Lam = np.where(lam1 >= 0, 12.0 * lam1 / 0.48, 24.0 * lam1 / 6.0)
    Lam = np.clip(Lam, -24.0, 12.0)
    for _ in range(60):
        g = ((36.0 - Lam) / 120.0) ** 2 * Lam - lam1
        dg = ((36.0 - Lam) ** 2 - 2.0 * Lam * (36.0 - Lam)) / 120.0**2
        step = np.where(np.abs(dg) > 1e-14, g / np.where(dg == 0, 1.0, dg), 0.0)
        Lam = np.clip(Lam - step, -24.0, 12.0)
        if np.all(np.abs(step) < 1e-13):
            break
    return Lam


def ue_gradient(u_e, dx, order=4):
    """Finite-difference gradient of the edge velocity field.

    Interior cells use the centered stencil of the requested order; the two
    cells adjacent to each end fall back to one-sided second-order
    differences.
    """
    u = np.asarray(u_e, dtype=float)
    n = u.size
    if order not in (2, 4):
        raise DomainError("gradient order must be 2 or 4")
    if order == 4 and n < 5:
        raise DomainError("order-4 stencil needs at least 5 cells")
    g = np.empty_like(u)
    if order == 2:
        g[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    else:
        g[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * dx)
        g[1] = (u[2] - u[0]) / (2.0 * dx)
        g[-2] = (u[-1] - u[-3]) / (2.0 * dx)
    # one-sided second order at the ends
    g[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
    g[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
    return g


def closure_factors(law: ClosureLaw, lambda1):
    """(H, f2) per the selected law at the given pressure-gradient parameter."""
    lam1 = np.asarray(lambda1, dtype=float)
    if isinstance(law, FalknerSkanFit):
        H = shape_factor_fs(lam1)
        f2 = friction_factor_fs(H)
    elif isinstance(law, (BlasiusConstant, FixedProfile)):
        H = np.full_like(lam1, law.H, dtype=float)
        f2 = np.full_like(lam1, law.f2, dtype=float)
    elif isinstance(law, Pohlhausen4):
        Lam = _pohlhausen4_lambda_from_lambda1(lam1)
        _, H, f2 = pohlhausen4_factors(Lam)
        H = np.broadcast_to(H, lam1.shape).astype(float)
        f2 = np.broadcast_to(f2, lam1.shape).astype(float)
    else:
        raise DomainError(f"unknown closure law: {law!r}")
    return H, f2


def evaluate_closure(law: ClosureLaw, delta1, u_e, dudx) -> ClosureEvaluation:
    """Evaluate a closure law at one state (scalars or per-cell arrays)."""
    delta1 = np.asarray(delta1, dtype=float)
    u_e = np.asarray(u_e, dtype=float)
    dudx = np.asarray(dudx, dtype=float)
    lambda1 = delta1**2 * dudx
    H, f2 = closure_factors(law, lambda1)
    tau_bar = f2 * H * u_e / np.maximum(delta1, DELTA1_FLOOR)
    return ClosureEvaluation(lambda1=lambda1, H=H, f2=f2, tau_bar=tau_bar)
