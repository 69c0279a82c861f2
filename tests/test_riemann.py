"""Interface solver: consistency, well-balancedness, HLL oracle."""

import numpy as np
import pytest

from eswsim import ConservedState, PhysicalParams
from eswsim.riemann import (evaluate_cells, physical_flux,
                            solve_local_riemann, source_averages)


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


def riemann(W_L, W_R, jump_fb, p):
    """Interface fan of two states, each evaluated at zero velocity gradient."""
    return solve_local_riemann(evaluate_cells(W_L, p), evaluate_cells(W_R, p),
                               jump_fb, p)


def plain_hll_flux(h_L, q_L, h_R, q_R, lam_L, lam_R, fr):
    """Independent two-wave HLL oracle for plain shallow water."""
    def flux(h, q):
        return np.array([q, q**2 / h + h**2 / (2.0 * fr**2)])
    FL = flux(h_L, q_L)
    FR = flux(h_R, q_R)
    if lam_L >= 0.0:
        return FL
    if lam_R <= 0.0:
        return FR
    return (lam_R * FL - lam_L * FR
            + lam_L * lam_R * (np.array([h_R, q_R]) - np.array([h_L, q_L]))) \
        / (lam_R - lam_L)


class TestSourceAverages:
    def test_zero_jumps(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.1])
        t, e = source_averages(W, W, np.array([0.0]), 1.0)
        assert t[0] == 0.0 and e[0] == 0.0

    def test_topo_average(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        t, _ = source_averages(W, W, np.array([0.01]), 1.0)
        assert t[0] == pytest.approx(0.02)

    def test_exchange_average(self):
        W_L = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        W_R = ConservedState(h=[2.0], q=[2.0], r=[0.1])
        _, e = source_averages(W_L, W_R, np.array([0.0]), 1.0)
        assert e[0] == pytest.approx(0.1)


class TestConsistency:
    def test_equal_states_give_physical_flux(self):
        W = ConservedState(h=[2.0], q=[2.2], r=[0.3])
        fan = riemann(W, W, np.array([0.0]), params())
        F = physical_flux(W.h, W.q, W.r, np.array([2.59]), params())
        # H here comes from lambda1=0 since dudx defaults to 0
        for k in range(3):
            assert fan.F_left[k][0] == pytest.approx(F[k][0], rel=1e-12)
            assert fan.F_right[k][0] == pytest.approx(F[k][0], rel=1e-12)
        assert fan.h_L_star[0] == pytest.approx(2.0, rel=1e-12)
        assert fan.h_R_star[0] == pytest.approx(2.0, rel=1e-12)

    def test_flux_conservative_without_topography(self):
        rng = np.random.default_rng(17)
        n = 200
        W_L = ConservedState.from_primitive_fields(
            rng.uniform(0.5, 3.0, n), rng.uniform(0.1, 2.0, n),
            rng.uniform(0.0, 1.0, n))
        W_R = ConservedState.from_primitive_fields(
            rng.uniform(0.5, 3.0, n), rng.uniform(0.1, 2.0, n),
            rng.uniform(0.0, 1.0, n))
        fan = riemann(W_L, W_R, np.zeros(n), params())
        # mass component is always single-valued at an interface
        assert np.allclose(fan.F_left[0], fan.F_right[0], rtol=1e-12,
                           atol=1e-13)
        # with [delta1*u_e] = 0 as well the whole flux is conservative
        W_R2 = ConservedState(W_R.h, W_R.q, W_L.r.copy())
        fan2 = riemann(W_L, W_R2, np.zeros(n), params())
        for k in range(3):
            assert np.allclose(fan2.F_left[k], fan2.F_right[k], rtol=1e-11,
                               atol=1e-12)

    def test_star_speeds_bracket_zero(self):
        rng = np.random.default_rng(19)
        n = 100
        W_L = ConservedState.from_primitive_fields(
            rng.uniform(0.2, 3.0, n), rng.uniform(-2.0, 2.0, n),
            rng.uniform(0.0, 1.0, n))
        W_R = ConservedState.from_primitive_fields(
            rng.uniform(0.2, 3.0, n), rng.uniform(-2.0, 2.0, n),
            rng.uniform(0.0, 1.0, n))
        fan = riemann(W_L, W_R, rng.normal(0, 0.01, n), params())
        assert np.all(fan.lam_L <= 0.0)
        assert np.all(fan.lam_R >= 0.0)


class TestWellBalanced:
    def test_lake_at_rest_star_states(self):
        h_L, h_R = 1.5, 1.2
        jump_fb = h_L - h_R  # [h] + [f_b] = 0
        W_L = ConservedState(h=[h_L], q=[0.0], r=[0.0])
        W_R = ConservedState(h=[h_R], q=[0.0], r=[0.0])
        fan = riemann(W_L, W_R, np.array([jump_fb]), params())
        assert fan.q_star[0] == pytest.approx(0.0, abs=1e-14)
        assert fan.r_star[0] == pytest.approx(0.0, abs=1e-14)
        assert fan.h_L_star[0] == pytest.approx(h_L, rel=1e-12)
        assert fan.h_R_star[0] == pytest.approx(h_R, rel=1e-12)
        # star depths equal the cell depths, so each one-sided flux reduces
        # to the physical flux of its own cell and every cell update cancels
        # against the matching flux at its other interface
        FL = physical_flux(W_L.h, W_L.q, W_L.r, np.array([2.59]), params())
        FR = physical_flux(W_R.h, W_R.q, W_R.r, np.array([2.59]), params())
        for k in range(3):
            assert fan.F_left[k][0] == pytest.approx(FL[k][0], abs=1e-13)
            assert fan.F_right[k][0] == pytest.approx(FR[k][0], abs=1e-13)


class TestHllOracle:
    def test_dam_break_matches_plain_hll(self):
        # delta_bar = 0 and r = 0: the (h, q) flux must equal a standard
        # two-wave HLL solver fed the same outer speeds
        p = params(db=0.0)
        cases = [(2.0, 0.0, 1.0, 0.0), (1.0, 1.0, 0.5, -0.2),
                 (3.0, -1.0, 0.3, 1.0)]
        for h_L, u_L, h_R, u_R in cases:
            W_L = ConservedState(h=[h_L], q=[h_L * u_L], r=[0.0])
            W_R = ConservedState(h=[h_R], q=[h_R * u_R], r=[0.0])
            fan = riemann(W_L, W_R, np.array([0.0]), p)
            oracle = plain_hll_flux(h_L, h_L * u_L, h_R, h_R * u_R,
                                    float(fan.lam_L[0]), float(fan.lam_R[0]),
                                    1.0)
            assert fan.F_left[0][0] == pytest.approx(oracle[0], abs=1e-12)
            assert fan.F_left[1][0] == pytest.approx(oracle[1], abs=1e-12)

    def test_star_depth_positive_on_dam_breaks(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            h_L, h_R = rng.uniform(0.1, 3.0, 2)
            u_L, u_R = rng.uniform(-1.0, 1.0, 2)
            W_L = ConservedState(h=[h_L], q=[h_L * u_L], r=[0.0])
            W_R = ConservedState(h=[h_R], q=[h_R * u_R], r=[0.0])
            fan = riemann(W_L, W_R, np.array([rng.normal(0, 0.05)]),
                          params())
            assert fan.h_L_star[0] > 0.0
            assert fan.h_R_star[0] > 0.0


class TestStarDepthTopography:
    def test_small_topo_jump_newton_branch(self):
        # smooth subcritical flow over a small step: Newton branch must
        # activate and return depths close to, but distinct from, h_HLL
        W_L = ConservedState(h=[2.0], q=[2.0], r=[0.2])
        W_R = ConservedState(h=[1.99], q=[2.0], r=[0.2])
        fan = riemann(W_L, W_R, np.array([0.01]), params())
        assert not fan.fallback[0]
        assert fan.h_L_star[0] != fan.h_R_star[0]
        # Bernoulli residual of the returned star depths is tiny
        q, hl, hr = fan.q_star[0], fan.h_L_star[0], fan.h_R_star[0]
        res = q**2 / 2.0 * (1.0 / hr**2 - 1.0 / hl**2) + (hr - hl + 0.01)
        assert abs(res) < 1e-10
