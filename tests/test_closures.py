"""Closure laws: fit constants, Pohlhausen quadrature oracle, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eswsim.closures import (FalknerSkanFit, FixedProfile, Pohlhausen4,
                             _pohlhausen4_lambda_from_lambda1,
                             closure_factors, pohlhausen4_factors,
                             pohlhausen4_profile, ue_gradient)
from eswsim.errors import DomainError


def quad_factors(Lam, n=200_001):
    """Quadrature oracle for the quartic-profile integrals (Simpson)."""
    from scipy.integrate import simpson
    xi = np.linspace(0.0, 1.0, n)
    phi = pohlhausen4_profile(Lam, xi)
    a1 = simpson(1.0 - phi, x=xi)
    a2 = simpson(phi * (1.0 - phi), x=xi)
    dphi0 = (2.0 + Lam / 6.0)  # profile slope at the wall
    return a1, a2, dphi0 * a2


def newton_lambda_from_lambda1(lambda1):
    """Oracle for the closed-form inverse: the Newton iteration it replaced."""
    lam1 = np.clip(np.asarray(lambda1, dtype=float), -6.0, 0.48)
    # linear initial guess through the endpoints of each branch
    Lam = np.where(lam1 >= 0, 12.0 * lam1 / 0.48, 24.0 * lam1 / 6.0)
    Lam = np.clip(Lam, -24.0, 12.0)
    for _ in range(60):
        g = ((36.0 - Lam) / 120.0) ** 2 * Lam - lam1
        dg = ((36.0 - Lam) ** 2 - 2.0 * Lam * (36.0 - Lam)) / 120.0**2
        step = np.where(np.abs(dg) > 1e-14, g / np.where(dg == 0, 1.0, dg),
                        0.0)
        Lam = np.clip(Lam - step, -24.0, 12.0)
        if np.all(np.abs(step) < 1e-13):
            break
    return Lam


class TestFalknerSkanFit:
    def test_blasius_point(self):
        H, f2 = closure_factors(FalknerSkanFit(), np.array([0.0]))
        assert H[0] == 2.59
        # 1.05*(4/2.59^2 - 1/2.59) frozen by direct evaluation
        assert f2[0] == pytest.approx(0.22070332881143698, abs=1e-15)

    def test_plateau_above_threshold(self):
        lam1 = np.array([0.6, 1.0, 5.0])
        H, _ = closure_factors(FalknerSkanFit(), lam1)
        assert np.all(H == 2.074)

    def test_continuity_at_threshold(self):
        below = closure_factors(FalknerSkanFit(), np.array([0.6 - 1e-12]))[0]
        above = closure_factors(FalknerSkanFit(), np.array([0.6]))[0]
        # 2.59*exp(-0.37*0.6) = 2.0740... matches the plateau constant
        assert abs(below[0] - above[0]) < 1e-3

    def test_decelerated_flow_raises_H(self):
        H_dec, f2_dec = closure_factors(FalknerSkanFit(), np.array([-1.0]))
        H_acc, f2_acc = closure_factors(FalknerSkanFit(), np.array([0.3]))
        assert H_dec[0] > 2.59 > H_acc[0]
        assert f2_dec[0] < 0.2207 < f2_acc[0]

    def test_separation_H4(self):
        # f2(H=4) = 1.05*(4/16 - 1/4) = 0: separation point of the fit
        lam1 = np.log(2.59 / 4.0) / 0.37  # H(lam1) = 4
        _, f2 = closure_factors(FalknerSkanFit(), np.array([lam1]))
        assert abs(f2[0]) < 1e-14


class TestPohlhausen4:
    # printed table rows: (Lambda, Lambda1, H, f2)
    TABLE = [(12.0, 0.48, 2.25, 0.356), (0.0, 0.0, 2.554, 0.235),
             (-12.0, -1.92, 3.5, 0.0)]

    @pytest.mark.parametrize("Lam,lam1,H,f2", TABLE)
    def test_printed_rows(self, Lam, lam1, H, f2):
        got_lam1, got_H, got_f2 = pohlhausen4_factors(Lam)
        assert got_lam1 == pytest.approx(lam1, abs=5e-3)
        assert got_H == pytest.approx(H, abs=5e-3)
        assert got_f2 == pytest.approx(f2, abs=5e-4)

    @pytest.mark.parametrize("Lam", [-24.0, -12.0, -5.0, 0.0, 7.0, 12.0])
    def test_quadrature_oracle(self, Lam):
        a1, a2, f2 = quad_factors(Lam)
        lam1, H, got_f2 = pohlhausen4_factors(Lam)
        assert H == pytest.approx(a1 / a2, abs=1e-10)
        assert got_f2 == pytest.approx(f2, abs=1e-10)
        assert lam1 == pytest.approx(((36.0 - Lam) / 120.0) ** 2 * Lam,
                                     abs=1e-12)

    def test_lambda1_consistency(self):
        # Lambda1 = (delta1/delta)^2 * Lambda = alpha1^2 * Lambda
        for Lam in (-20.0, -3.0, 4.0, 12.0):
            a1, _, _ = quad_factors(Lam)
            lam1, _, _ = pohlhausen4_factors(Lam)
            assert lam1 == pytest.approx(a1**2 * Lam, abs=1e-10)

    def test_closure_factors_inverts_lambda1(self):
        law = Pohlhausen4()
        for Lam in (-20.0, -6.0, 0.0, 5.0, 12.0):
            lam1, H, f2 = pohlhausen4_factors(Lam)
            H2, f22 = closure_factors(law, np.array([lam1]))
            assert H2[0] == pytest.approx(H, rel=1e-10)
            assert f22[0] == pytest.approx(f2, rel=1e-10, abs=1e-12)

    def test_closed_form_inverse_matches_newton(self):
        lam1 = np.concatenate([np.linspace(-7.0, 0.5, 100_001),
                               [0.0, -0.0, 1e-300, -1e-300, 0.48]])
        Lam = _pohlhausen4_lambda_from_lambda1(lam1)
        ref = newton_lambda_from_lambda1(lam1)
        assert np.all((-24.0 <= Lam) & (Lam <= 12.0))
        _, H, f2 = pohlhausen4_factors(Lam)
        _, H_ref, f2_ref = pohlhausen4_factors(ref)
        assert np.max(np.abs(H - H_ref) / H_ref) <= 2e-15
        assert np.max(np.abs(f2 - f2_ref)) <= 3e-16
        # away from the fold at Lambda1 = 0.48, where Lambda is
        # ill-conditioned in Lambda1
        away = lam1 <= 0.475
        assert np.max(np.abs(Lam - ref)[away]) <= 3e-14

    def test_closed_form_inverse_near_the_fold(self):
        lam1 = 0.48 - np.logspace(-17.0, -3.0, 2000)
        Lam = _pohlhausen4_lambda_from_lambda1(lam1)
        _, H, f2 = pohlhausen4_factors(Lam)
        _, H_ref, f2_ref = pohlhausen4_factors(
            newton_lambda_from_lambda1(lam1))
        assert np.all(Lam <= 12.0)
        assert np.max(np.abs(H - H_ref) / H_ref) <= 1e-13
        assert np.max(np.abs(f2 - f2_ref)) <= 1e-13

    def test_profile_endpoints(self):
        for Lam in (-12.0, 0.0, 12.0):
            assert pohlhausen4_profile(Lam, np.array([0.0]))[0] == 0.0
            assert pohlhausen4_profile(Lam, np.array([1.0]))[0] == 1.0
        with pytest.raises(DomainError):
            pohlhausen4_profile(0.0, np.array([0.5, 1.5]))

    def test_lambda_above_12_rejected(self):
        with pytest.raises(DomainError):
            pohlhausen4_factors(np.array([0.0, 12.5]))


class TestFixedProfile:
    def test_validation(self):
        with pytest.raises(DomainError):
            FixedProfile(H=0.5, f2=0.2)
        with pytest.raises(DomainError):
            FixedProfile(H=2.0, f2=float("nan"))
        with pytest.raises(DomainError):
            FixedProfile(H=float("inf"))
        # a negative f2 would set a zero reverse-flow step at delta1 = 0,
        # where every run starts
        with pytest.raises(DomainError):
            FixedProfile(H=2.0, f2=-0.1)
        FixedProfile(H=2.0, f2=0.0)

    def test_constant(self):
        law = FixedProfile(H=3.0, f2=0.1)
        H, f2 = closure_factors(law, np.array([-5.0, 0.0, 5.0]))
        assert np.all(H == 3.0) and np.all(f2 == 0.1)

    def test_blasius_constant(self):
        H, f2 = closure_factors(FixedProfile(), np.array([1.0]))
        assert H[0] == 2.59 and f2[0] == 0.22


class TestGradient:
    def test_exact_on_cubic(self):
        # the 5-point stencil is exact through degree 4 in the interior
        x = np.linspace(0.0, 1.0, 41)
        dx = x[1] - x[0]
        u = 1.0 + x + 0.5 * x**3
        du = ue_gradient(u, dx, order=4)
        assert np.allclose(du[2:-2], 1.0 + 1.5 * x[2:-2] ** 2, atol=1e-12)

    @pytest.mark.parametrize("order,rate", [(2, 2.0), (4, 4.0)])
    def test_richardson_order(self, order, rate):
        errs = []
        for n in (40, 80):
            x = np.linspace(0.2, 1.2, n + 1)
            dx = x[1] - x[0]
            u = np.sin(3.0 * x)
            du = ue_gradient(u, dx, order=order)
            errs.append(np.max(np.abs(du - 3.0 * np.cos(3.0 * x))[2:-2]))
        observed = np.log2(errs[0] / errs[1])
        assert observed > rate - 0.3

    def test_constant_field(self):
        du = ue_gradient(np.full(10, 2.5), 0.1, order=4)
        assert np.all(du == 0.0)

    def test_domain(self):
        with pytest.raises(DomainError, match="order must be 2 or 4"):
            ue_gradient(np.full(10, 2.5), 0.1, order=3)
        # also what emit_snapshot raises for a grid of fewer than 5 cells
        ue_gradient(np.full(5, 2.5), 0.1, order=4)
        with pytest.raises(DomainError, match="at least 5 cells"):
            ue_gradient(np.full(4, 2.5), 0.1, order=4)
        ue_gradient(np.full(3, 2.5), 0.1, order=2)
        with pytest.raises(DomainError, match="order-2 .* at least 3 cells"):
            ue_gradient(np.full(2, 2.5), 0.1, order=2)


class TestClosureFactors:
    def test_H_at_least_one(self):
        rng = np.random.default_rng(7)
        lam1 = rng.uniform(-20.0, 10.0, 500)
        for law in (FalknerSkanFit(), Pohlhausen4(), FixedProfile()):
            H, _ = closure_factors(law, lam1)
            assert np.all(H >= 1.0)

    def test_unknown_law_rejected(self):
        with pytest.raises(DomainError, match="unknown closure law"):
            closure_factors(object(), np.array([0.0]))

    @given(st.floats(-20.0, 0.599), st.floats(-20.0, 0.599))
    @settings(max_examples=200, deadline=None)
    def test_fs_H_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        H_lo, _ = closure_factors(FalknerSkanFit(), np.array([lo]))
        H_hi, _ = closure_factors(FalknerSkanFit(), np.array([hi]))
        assert H_lo[0] >= H_hi[0]
