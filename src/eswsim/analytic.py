"""Closed-form reference solutions and error norms for validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closures import BLASIUS_F2, BLASIUS_H
from .errors import CriticalFlow, DomainError, MismatchedGrids


@dataclass(frozen=True)
class ReferenceCurve:
    """Sampled reference curve on strictly increasing abscissae."""

    abscissae: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for k in ("abscissae", "values"):
            object.__setattr__(self, k, np.asarray(getattr(self, k), float))
        if np.any(np.diff(self.abscissae) <= 0):
            raise DomainError("abscissae must be strictly increasing")


def blasius_steady(x, u_e0=1.0, f2H=BLASIUS_F2 * BLASIUS_H, H=BLASIUS_H):
    """Steady flat-plate layer: delta1 ~ sqrt(x), shear ~ 1/sqrt(x)."""
    x = np.asarray(x, float)
    if np.any(x <= 0.0):
        raise DomainError("the flat-plate solution is singular at x <= 0")
    delta1_0 = np.sqrt(2.0 * f2H * H * x / u_e0)
    tau_0 = f2H * u_e0 / delta1_0
    return delta1_0, tau_0


def blasius_perturbed_steady(x, h0, ue0, froude, delta_bar,
                             f2H=BLASIUS_F2 * BLASIUS_H, H=BLASIUS_H):
    """First-order steady correction of (h, u_e) induced by layer growth,
    from Bernoulli and q - delta_bar*r = h0*ue0 linearised about Fr0 != 1."""
    fr0_sq = (froude * ue0) ** 2 / h0
    if abs(fr0_sq - 1.0) < 1e-6:
        raise CriticalFlow("linearized solution undefined at Fr0 = 1")
    delta1_0, _ = blasius_steady(x, ue0, f2H, H)
    h = h0 + delta_bar * fr0_sq / (fr0_sq - 1.0) * delta1_0
    u_e = ue0 + ue0 / h0 * delta_bar * delta1_0 / (1.0 - fr0_sq)
    return h, u_e


def stewartson_fixed_profile(x, t, u_e=1.0, H=BLASIUS_H, f2=BLASIUS_F2):
    """Characteristic solution of the fixed-profile layer equation.

    Steady branch for x <= u_e*t/H, time-growing branch beyond; continuous
    across the transition abscissa.
    """
    x = np.asarray(x, float)
    if t <= 0.0 or u_e <= 0.0 or np.any(x < 0.0):
        raise DomainError("need x >= 0, t > 0, u_e > 0")
    f2H = f2 * H
    steady = x <= u_e * t / H
    with np.errstate(divide="ignore"):
        delta1 = np.where(steady, np.sqrt(2.0 * f2H * H * x / u_e),
                          math.sqrt(2.0 * f2H * t))
        tau = np.where(steady,
                       np.sqrt(f2 * u_e**3 / (2.0 * np.maximum(x, 1e-300))),
                       math.sqrt(f2 * H * u_e**2 / (2.0 * t)))
    return delta1, tau


def linearized_bump(f_b_values, h0, U0, froude, beta=1.0):
    """Linearized classical steady solution over a small bed perturbation.

    The depth-averaged velocity is exactly in phase with the bed; used as
    the zero-phase-lag contrast baseline.
    """
    f_b = np.asarray(f_b_values, float)
    fr0_sq = beta * U0**2 * froude**2 / h0
    if abs(fr0_sq - 1.0) < 1e-6:
        raise CriticalFlow("linearized solution undefined at Fr0 = 1")
    h = h0 + f_b / (fr0_sq - 1.0)
    U = U0 + (U0 / h0) * f_b / (1.0 - fr0_sq)
    return h, U


def gaussian_bump(x, alpha, sigma, center=1.0):
    """Gaussian bed perturbation of height alpha and width sigma."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    x = np.asarray(x, float)
    with np.errstate(over="ignore"):    # -inf, as exp underflows, gives 0
        return alpha * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))


def l1_error(numeric: ReferenceCurve, reference: ReferenceCurve) -> float:
    """Grid L1 norm dx*sum|numeric - reference| on a common uniform grid."""
    if numeric.abscissae.shape != reference.abscissae.shape or \
            not np.allclose(numeric.abscissae, reference.abscissae,
                            rtol=0, atol=1e-12):
        raise MismatchedGrids("curves must share their abscissae")
    dx = float(np.mean(np.diff(numeric.abscissae)))
    return float(dx * np.sum(np.abs(numeric.values - reference.values)))
