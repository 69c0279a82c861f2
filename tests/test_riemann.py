"""Interface solver: consistency, well-balancedness, HLL oracle."""

import numpy as np
import pytest

from eswsim import (BoundarySpec, ConservedState, Grid1D, PhysicalParams,
                    RunState, SubcriticalInflow, advance, riemann as rm)
from eswsim.analytic import gaussian_bump
from eswsim.riemann import (_NEWTON_MAX_ITER, _NEWTON_TOL, _star_depths,
                            evaluate_cells, physical_flux,
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


def masked_star_depths(h_L, h_R, q_star, C, jump_fb, lam_L, lam_R, froude):
    """Reference: _star_depths with every guard a mask on every element."""
    fr2 = froude**2
    span = lam_R - lam_L
    h_hll = C / span
    fallback = np.zeros_like(h_L, dtype=bool)
    active = (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    hR = h_hll.copy()
    hL = h_hll.copy()
    if active.any():
        idx = np.nonzero(active)[0]
        hr = h_hll[idx].copy()
        lamL, lamR, Ci = lam_L[idx], lam_R[idx], C[idx]
        qi, jfb = q_star[idx], jump_fb[idx]
        ok = np.ones(idx.size, dtype=bool)
        q2h = qi**2 / 2.0
        dhl = lamR / lamL
        two_dhl = 2.0 * dhl
        dg_lin = (1.0 - dhl) / fr2
        for _ in range(_NEWTON_MAX_ITER):
            hl = (lamR * hr - Ci) / lamL
            bad = (hr <= 0.0) | (hl <= 0.0)
            ok &= ~bad
            hr_s = np.where(bad, 1.0, hr)
            hl_s = np.where(bad, 1.0, hl)
            g = (q2h * (1.0 / hr_s**2 - 1.0 / hl_s**2)
                 + (hr_s - hl_s + jfb) / fr2)
            dg = q2h * (-2.0 / hr_s**3 + two_dhl / hl_s**3) + dg_lin
            step = np.where(np.abs(dg) > 1e-300,
                            g / np.where(dg == 0, 1.0, dg), 0.0)
            hr = hr - np.where(ok, step, 0.0)
            if not ok.any() or (np.abs(step[ok])
                                <= _NEWTON_TOL * np.maximum(1.0, hr[ok])).all():
                break
        hl = (lamR * hr - Ci) / lamL
        ok &= (hr > 0.0) & (hl > 0.0)
        hR[idx] = np.where(ok, hr, h_hll[idx])
        hL[idx] = np.where(ok, hl, h_hll[idx])
        fallback[idx] = ~ok
    left_degenerate = lam_L >= 0.0
    right_degenerate = lam_R <= 0.0
    hL = np.where(left_degenerate, h_L, hL)
    hR = np.where(right_degenerate, h_R, hR)
    one_sided_L = left_degenerate & ~right_degenerate & (jump_fb != 0.0)
    one_sided_R = right_degenerate & ~left_degenerate & (jump_fb != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hR = np.where(one_sided_L, (C + lam_L * h_L)
                      / np.where(lam_R == 0, 1.0, lam_R), hR)
        hL = np.where(one_sided_R, (lam_R * h_R - C)
                      / np.where(lam_L == 0, -1.0, lam_L), hL)
    return hL, hR, fallback


@pytest.fixture(scope="module")
def bump_interfaces():
    """_star_depths arguments of the last step of a short subcritical run
    over a Gaussian bump: every interface but the two ends has a jump."""
    calls = []
    original = rm._star_depths

    def record(*args):
        calls.append(args)
        return original(*args)

    n = 60
    grid = Grid1D.uniform(0.0, 2.0, n,
                          lambda x: gaussian_bump(x, 0.03, 0.1, 1.0))
    W = ConservedState(h=np.full(n, 2.0), q=np.full(n, 2.0), r=np.zeros(n))
    rm._star_depths = record
    try:
        advance(RunState(0.0, 0, W), 0.05, grid, PhysicalParams(1.0, 1e-3),
                BoundarySpec(left=SubcriticalInflow(u_in=1.0)))
    finally:
        rm._star_depths = original
    return [np.array(a, dtype=float) for a in calls[-1][:7]] + [1.0]


class TestStarDepthsMatchMasked:
    """The guarded _star_depths gives the masked reference's bits."""

    def check(self, args, quiet=False):
        with np.errstate(all="ignore" if quiet else "raise"):
            got = _star_depths(*args)
            want = masked_star_depths(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
        return got

    def with_values(self, base, **changes):
        """Copy of the argument list with {name: {interface: value}}."""
        names = ("h_L", "h_R", "q_star", "C", "jump_fb", "lam_L", "lam_R")
        args = [a.copy() for a in base[:7]] + [base[7]]
        for name, values in changes.items():
            for i, v in values.items():
                args[names.index(name)][i] = v
        return args

    def test_all_positive_newton(self, bump_interfaces):
        args = bump_interfaces
        assert np.count_nonzero(args[4]) == args[4].size - 2
        _, _, fallback = self.check(args)
        assert not fallback.any()

    def test_seeded_jumps(self, bump_interfaces):
        rng = np.random.default_rng(11)
        for _ in range(20):
            args = self.with_values(bump_interfaces)
            args[4] = rng.normal(0.0, 0.02, args[4].size)
            args[2] *= rng.uniform(0.5, 1.5, args[2].size)
            self.check(args, quiet=True)

    def test_iterates_go_nonpositive(self, bump_interfaces):
        # the first iterate h_hll is positive, so the loop starts unmasked;
        # a large jump makes a Newton step overshoot below zero
        args = self.with_values(bump_interfaces,
                                jump_fb={30: 5.0, 31: -5.0})
        assert (args[3] / (args[6] - args[5]))[[30, 31]].min() > 0.0
        _, _, fallback = self.check(args, quiet=True)
        assert np.flatnonzero(fallback).tolist() == [30, 31]

    def test_first_iterate_nonpositive(self, bump_interfaces):
        args = self.with_values(bump_interfaces, C={12: -1.0})
        _, _, fallback = self.check(args, quiet=True)
        assert np.flatnonzero(fallback).tolist() == [12]

    def test_nan_inputs(self, bump_interfaces):
        for changes in ({"q_star": {20: np.nan}}, {"C": {20: np.nan}},
                        {"q_star": {3: np.nan}, "C": {40: np.nan}}):
            self.check(self.with_values(bump_interfaces, **changes),
                       quiet=True)

    def test_zero_newton_derivative(self):
        # lam = -1, 1, h_hll = 1 and q* = 1 at Fr = 1: dg is exactly 0 at
        # the first iterate, so the masked step is 0 there for good
        n = 5
        ones = np.ones(n)
        args = [ones, ones, np.array([1.0, 0.5, 1.0, 0.8, 1.0]),
                2.0 * ones, np.full(n, 0.01), -ones, ones, 1.0]
        hL, hR, _ = self.check(args, quiet=True)
        assert hR[0] == hR[2] == hR[4] == 1.0

    def test_tiny_newton_derivative(self):
        # q* = 0 and Fr = 1e154 give dg = 2/Fr^2 = 2e-308, below 1e-300
        n = 4
        ones = np.ones(n)
        args = [ones, ones, np.array([0.0, 1.0, 0.0, 1.0]), 2.0 * ones,
                np.full(n, 0.01), -ones, ones, 1e154]
        self.check(args, quiet=True)

    def test_degenerate_outer_speeds(self, bump_interfaces):
        for changes in (
                {"lam_L": {5: 0.0, 9: 0.3}},                # left only
                {"lam_R": {7: 0.0, 11: -0.2}},              # right only
                {"lam_L": {5: 0.0}, "lam_R": {5: 0.0}},     # two-sided
                {"lam_L": {5: 0.0, 8: 0.1}, "lam_R": {8: -0.1, 21: 0.0}},
                {"lam_L": {0: 0.0, 6: np.nan}},             # NaN beside 0
                {"lam_R": {0: 0.0, 6: np.nan}}):
            self.check(self.with_values(bump_interfaces, **changes),
                       quiet=True)
        # one-sided with a jump: the linear relation sets the other depth
        args = self.with_values(bump_interfaces, lam_L={5: 0.0})
        hL, hR, _ = self.check(args, quiet=True)
        assert hL[5] == args[0][5]
        assert hR[5] == (args[3][5] + 0.0 * args[0][5]) / args[6][5]

    def test_no_active_interface(self, bump_interfaces):
        flat = self.with_values(bump_interfaces)
        flat[4] = np.zeros_like(flat[4])
        hL, hR, fallback = self.check(flat)
        assert np.array_equal(hL, hR) and not fallback.any()
        supercritical = self.with_values(bump_interfaces)
        supercritical[5] = np.zeros_like(supercritical[5])
        self.check(supercritical, quiet=True)
