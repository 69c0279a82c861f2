"""Wave speeds: jacobian coefficients, cubic roots, Nickalls bounds."""

import numpy as np
import pytest
from conftest import cubic_roots_oracle
from hypothesis import given, settings, strategies as st

from eswsim.closures import FalknerSkanFit, FixedProfile, closure_factors
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
        # flux G(u_e, r) = (1 + 1/H(r^2/u_e^2 * du))*r*u_e with du frozen:
        # a = dG/du_e and b = dG/dr, against central differences
        for du, u0, r0 in ((0.4, 1.3, 0.35),     # exponential, Lambda1 = 0.029
                           (-4.0, 1.0, 0.5),     # exponential, Lambda1 = -1
                           (10.0, 1.0, 0.5),     # plateau, Lambda1 = 2.5
                           (-100.0, 1.0, 0.6)):  # below clamp, Lambda1 = -36
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
            assert a[0] == pytest.approx(dGdu, rel=1e-9), lam1
            assert b[0] == pytest.approx(dGdr, rel=1e-9), lam1

    def test_constant_H_law(self):
        a, b = jacobian_coeffs(np.array([2.0]), np.array([0.6]),
                               np.array([-3.0]), np.array([2.59]),
                               FixedProfile())
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


def fs_states(seed, n):
    """n Falkner-Skan states (h, u, a, b): h, u, delta1 and Lambda1 drawn in
    that order per state."""
    rng = np.random.default_rng(seed)
    h, u, d1, lam1 = rng.uniform([0.1, 0.1, 0.0, -2.0], [3.0, 2.0, 1.0, 0.5],
                                 size=(n, 4)).T
    H, _ = closure_factors(FalknerSkanFit(), lam1)
    a, b = jacobian_coeffs(u, d1 * u, lam1, H)
    return h, u, a, b


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
        h, u, a, b = fs_states(23, 300)
        roots, _ = characteristic_roots(h, u, a, b, 1.0, 1e-3)
        assert np.isfinite(roots[0]).all()
        c2 = h
        d = 1e-3 * a
        scale = np.maximum(1.0, np.maximum(np.abs(u) ** 3, c2 ** 1.5))
        res = np.abs(_p_sw(roots, u, b, c2) - d)
        assert np.all((res <= 1e-10 * scale) | np.isnan(roots))

    def test_bounds_contain_roots(self):
        h, u, a, b = fs_states(31, 300)
        roots, margin = characteristic_roots(h, u, a, b, 1.0, 1e-3)
        lam_L, lam_R = nickalls_bounds(u, b, h, 1.0)
        hyp = margin > 0.0
        assert np.all(lam_L[hyp] - 1e-10 <= roots[0, hyp])
        assert np.all(roots[2, hyp] <= lam_R[hyp] + 1e-10)

    def test_matches_brute_force_cubic(self):
        # Falkner-Skan states and arbitrary ones with a up to 2e4, so that
        # both branches are taken
        rng = np.random.default_rng(41)
        h, u, b, a = rng.uniform([0.1, -2.0, -2.0, 0.0], [3.0, 2.0, 3.0, 2e4],
                                 size=(2000, 4)).T
        states = [np.concatenate(v) for v in zip(fs_states(23, 300),
                                                  (h, u, a, b))]
        roots, margin = characteristic_roots(*states, 1.0, 1e-3)
        ref = cubic_roots_oracle(*states, 1.0, 1e-3)
        assert 0 < np.count_nonzero(margin > 0.0) < margin.size
        assert np.array_equal(np.isnan(roots), np.isnan(ref))
        assert np.array_equal(np.isfinite(roots[2]), margin > 0.0)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.nanmax(np.abs(roots - ref) / scale) <= 1e-12

    def test_one_newton_step_reaches_double_precision(self):
        # criterion 9's 1000 states against the brute-force roots refined
        # by two Newton steps in extended precision: the closed form alone
        # is off by up to 1.2e-14, after its Newton step by 2.3e-16
        rng = np.random.default_rng(0)
        h, u, lam1, d1 = rng.uniform([0.1, 0.1, -2.0, 0.0],
                                     [3.0, 2.0, 0.5, 2.0], size=(1000, 4)).T
        H, _ = closure_factors(FalknerSkanFit(), lam1)
        a, b = jacobian_coeffs(u, d1 * u, lam1, H)
        roots, _ = characteristic_roots(h, u, a, b, 1.0, 1e-3)
        ref = cubic_roots_oracle(h, u, a, b, 1.0, 1e-3).astype(np.longdouble)
        h, u, a, b = (v.astype(np.longdouble) for v in (h, u, a, b))
        d = np.longdouble(1e-3) * a     # Fr = 1: c2 = h, d = delta_bar*a
        for _ in range(2):
            ref -= ((_p_sw(ref, u, b, h) - d)
                    / (-((u - ref) ** 2 - h) - 2.0 * (b - u - ref) * (u - ref)))
        assert np.nanmax(np.abs(roots - ref) / np.maximum(1.0, np.abs(ref))) \
            <= 1e-15

    def test_broadcast_shapes(self):
        h = np.array([[1.0], [2.0]])
        u = np.array([0.5, 1.0, 1.5])
        roots, margin = characteristic_roots(h, u, 1.0, 1.3861, 1.0, 1e-3)
        assert roots.shape == (3, 2, 3) and margin.shape == (2, 3)
        assert np.all(np.diff(roots, axis=0) > 0.0)
        # the same six states as 1-D inputs
        flat, flat_margin = characteristic_roots(
            np.repeat(h.ravel(), 3), np.tile(u, 2), 1.0, 1.3861, 1.0, 1e-3)
        np.testing.assert_allclose(roots.reshape(3, 6), flat, rtol=1e-15,
                                   atol=1e-15)
        np.testing.assert_allclose(margin.ravel(), flat_margin, rtol=1e-15,
                                   atol=1e-15)

    def test_nonhyperbolic_by_inflating_a(self):
        # push d past P_SW(lam_+) by making the exchange coefficient huge
        roots, margin = characteristic_roots(2.0, 1.0, 1e4, 1.3861, 1.0, 1e-3)
        assert margin < 0.0
        assert roots.shape == (3,)
        assert np.isfinite(roots[0]) and np.isnan(roots[1:]).all()

    def test_margin_sign_change_at_collision(self):
        # sweep a along a 1-parameter family crossing the threshold; the
        # margin changes sign exactly where two real roots collide
        h, u, b, fr, db = 2.0, 1.0, 1.3861, 1.0, 1e-3
        a_vals = np.linspace(1.0, 2e4, 400)
        roots, margins = characteristic_roots(h, u, a_vals, b, fr, db)
        signs = np.sign(margins)
        flips = np.nonzero(np.diff(signs))[0]
        assert flips.size == 1
        n_real = np.count_nonzero(np.isfinite(roots), axis=0)
        assert n_real[flips[0]] == 3 and n_real[flips[0] + 1] == 1

    @given(st.floats(0.1, 3.0), st.floats(0.1, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_inviscid_matches_decoupled(self, h, u, d1):
        b = (1 + 1 / 2.59) * u
        roots, _ = characteristic_roots(h, u, (1 + 1 / 2.59) * d1 * u, b,
                                        1.0, 0.0)
        expected = sorted(decoupled_speeds(h, u, b, 1.0))
        for got, ref in zip(roots, expected):
            assert got == pytest.approx(ref, abs=1e-10)
