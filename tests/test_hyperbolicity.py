"""Wave speeds: jacobian coefficients, cubic roots, Nickalls bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eswsim.closures import (BlasiusConstant, FalknerSkanFit, closure_factors)
from eswsim.hyperbolicity import (characteristic_roots, decoupled_speeds,
                                  jacobian_coeffs, nickalls_bounds, _p_sw)


def fs_coeffs(u_e, delta1, lam1):
    H, _ = closure_factors(FalknerSkanFit(), np.asarray([lam1]))
    a, b = jacobian_coeffs(np.asarray([u_e]), np.asarray([delta1 * u_e]),
                           np.asarray([lam1]), H)
    return float(a[0]), float(b[0]), float(H[0])


class TestJacobianCoeffs:
    def test_blasius_b(self):
        _, b, _ = fs_coeffs(1.0, 0.5, 0.0)
        assert b == pytest.approx(1.0 + 1.0 / 2.59, abs=1e-12)

    def test_empty_layer_a(self):
        a, _, _ = fs_coeffs(1.0, 0.0, 0.0)
        assert a == 0.0

    def test_decelerated_example(self):
        # Lambda1 = -1: H = 2.59*exp(0.37), b = 1 + 0.26/H
        _, b, H = fs_coeffs(1.0, 0.5, -1.0)
        assert H == pytest.approx(2.59 * np.exp(0.37), rel=1e-12)
        assert b == pytest.approx(1.0 + 0.26 / H, abs=1e-10)

    def test_chain_rule_against_finite_difference(self):
        # flux G(u_e, r) = (1 + 1/H(r^2/u_e^2 * du))*r*u_e with du frozen
        du = 0.4
        u0, r0 = 1.3, 0.35

        def G(u_e, r):
            lam1 = (r / u_e) ** 2 * du
            H, _ = closure_factors(FalknerSkanFit(), np.array([lam1]))
            return float((1.0 + 1.0 / H[0]) * r * u_e)

        eps = 1e-6
        dGdu = (G(u0 + eps, r0) - G(u0 - eps, r0)) / (2 * eps)
        dGdr = (G(u0, r0 + eps) - G(u0, r0 - eps)) / (2 * eps)
        lam1 = (r0 / u0) ** 2 * du
        H, _ = closure_factors(FalknerSkanFit(), np.array([lam1]))
        a, b = jacobian_coeffs(np.array([u0]), np.array([r0]),
                               np.array([lam1]), H)
        # a = dG/du_e at fixed r... mapping: dG/dr -> b, dG/du_e relates to a
        assert b[0] == pytest.approx(dGdr, rel=1e-6)

    def test_constant_H_law(self):
        a, b = jacobian_coeffs(np.array([2.0]), np.array([0.6]),
                               np.array([-3.0]), np.array([2.59]),
                               BlasiusConstant())
        assert a[0] == pytest.approx((1 + 1 / 2.59) * 0.6)
        assert b[0] == pytest.approx((1 + 1 / 2.59) * 2.0)

    def test_saturated_branch_loses_derivative_terms(self):
        H = np.array([2.074])
        a, b = jacobian_coeffs(np.array([1.0]), np.array([0.5]),
                               np.array([0.7]), H)
        assert a[0] == pytest.approx((1 + 1 / 2.074) * 0.5)
        assert b[0] == pytest.approx((1 + 1 / 2.074) * 1.0)


class TestDecoupledSpeeds:
    def test_subcritical_regime(self):
        l1, l2, l3 = decoupled_speeds(2.0, 1.0, 1.3861, 1.0)
        assert l1 == pytest.approx(1 - np.sqrt(2), abs=1e-4)
        assert l2 == pytest.approx(1 + np.sqrt(2), abs=1e-4)
        assert l3 == pytest.approx(0.3861, abs=1e-4)

    def test_supercritical_regime(self):
        l1, _, _ = decoupled_speeds(0.5, 1.0, 1.3861, 1.0)
        assert l1 == pytest.approx(1 - np.sqrt(0.5), abs=1e-4)
        assert l1 > 0

    def test_rest_symmetry(self):
        l1, l2, _ = decoupled_speeds(1.7, 0.0, 0.0, 1.0)
        assert l1 == -l2


class TestNickallsBounds:
    def test_reference_values(self):
        lam_L, lam_R = nickalls_bounds(1.0, 1.3861, 2.0, 1.0)
        assert lam_L == pytest.approx(-0.8881, abs=2e-4)
        assert lam_R == pytest.approx(2.4789, abs=2e-4)

    def test_rest_symmetry(self):
        lam_L, lam_R = nickalls_bounds(0.0, 0.0, 3.0, 1.0)
        assert lam_L == pytest.approx(-2.0 / 3.0 * np.sqrt(9.0))
        assert lam_R == -lam_L

    def test_contains_decoupled_speeds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h = rng.uniform(0.1, 3.0)
            u = rng.uniform(-2.0, 2.0)
            b = u * (1 + rng.uniform(0.2, 0.8))
            lam_L, lam_R = nickalls_bounds(u, b, h, 1.0)
            for lam in decoupled_speeds(h, u, b, 1.0):
                assert lam_L - 1e-12 <= lam <= lam_R + 1e-12


class TestCharacteristicRoots:
    def test_inviscid_exact(self):
        roots, margin = characteristic_roots(2.0, 1.0, 1.0, 1.3861, 1.0, 0.0)
        expected = sorted(decoupled_speeds(2.0, 1.0, 1.3861, 1.0))
        assert margin > 0.0
        for got, ref in zip(roots, expected):
            assert got == pytest.approx(ref, abs=1e-12)

    def test_small_delta_bar_perturbation(self):
        roots, margin = characteristic_roots(2.0, 1.0, 1.0, 1.3861, 1.0,
                                             1e-3)
        expected = sorted(decoupled_speeds(2.0, 1.0, 1.3861, 1.0))
        assert margin > 0.0
        for got, ref in zip(roots, expected):
            assert abs(got - ref) < 5e-3

    def test_root_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            h = rng.uniform(0.1, 3.0)
            u = rng.uniform(0.1, 2.0)
            d1 = rng.uniform(0.0, 1.0)
            lam1 = rng.uniform(-2.0, 0.5)
            H, _ = closure_factors(FalknerSkanFit(), np.array([lam1]))
            a, b = jacobian_coeffs(np.array([u]), np.array([d1 * u]),
                                   np.array([lam1]), H)
            roots, _ = characteristic_roots(h, u, float(a[0]), float(b[0]),
                                            1.0, 1e-3)
            c2 = h
            d = 1e-3 * float(a[0])
            scale = max(1.0, abs(u) ** 3, c2 ** 1.5)
            for lam in roots:
                assert abs(_p_sw(lam, u, float(b[0]), c2) - d) <= 1e-10 * scale

    def test_bounds_contain_roots(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            h = rng.uniform(0.1, 3.0)
            u = rng.uniform(0.1, 2.0)
            d1 = rng.uniform(0.0, 1.0)
            lam1 = rng.uniform(-2.0, 0.5)
            H, _ = closure_factors(FalknerSkanFit(), np.array([lam1]))
            a, b = jacobian_coeffs(np.array([u]), np.array([d1 * u]),
                                   np.array([lam1]), H)
            roots, margin = characteristic_roots(h, u, float(a[0]),
                                                 float(b[0]), 1.0, 1e-3)
            if margin > 0.0:
                lam_L, lam_R = nickalls_bounds(u, float(b[0]), h, 1.0)
                assert lam_L - 1e-10 <= min(roots)
                assert max(roots) <= lam_R + 1e-10

    def test_nonhyperbolic_by_inflating_a(self):
        # push d past P_SW(lam_+) by making the exchange coefficient huge
        roots, margin = characteristic_roots(2.0, 1.0, 1e4, 1.3861, 1.0, 1e-3)
        assert margin < 0.0
        assert len(roots) == 1

    def test_margin_sign_change_at_collision(self):
        # sweep a along a 1-parameter family crossing the threshold; the
        # margin changes sign exactly where two real roots collide
        h, u, b, fr, db = 2.0, 1.0, 1.3861, 1.0, 1e-3
        a_vals = np.linspace(1.0, 2e4, 400)
        margins = [characteristic_roots(h, u, a, b, fr, db)[1]
                   for a in a_vals]
        signs = np.sign(margins)
        flips = np.nonzero(np.diff(signs))[0]
        assert flips.size == 1
        lo, hi = a_vals[flips[0]], a_vals[flips[0] + 1]
        n_lo = len(characteristic_roots(h, u, lo, b, fr, db)[0])
        n_hi = len(characteristic_roots(h, u, hi, b, fr, db)[0])
        assert n_lo == 3 and n_hi == 1

    @given(st.floats(0.1, 3.0), st.floats(0.1, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_inviscid_matches_decoupled(self, h, u, d1):
        b = (1 + 1 / 2.59) * u
        roots, _ = characteristic_roots(h, u, (1 + 1 / 2.59) * d1 * u, b,
                                        1.0, 0.0)
        expected = sorted(decoupled_speeds(h, u, b, 1.0))
        for got, ref in zip(roots, expected):
            assert got == pytest.approx(ref, abs=1e-10)
