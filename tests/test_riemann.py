"""Interface solver: consistency, well-balancedness, HLL oracle."""

import numpy as np
import pytest
from conftest import from_primitive_fields

from eswsim import (BoundarySpec, ConservedState, Grid1D, PhysicalParams,
                    RunState, SubcriticalInflow, SupercriticalInflow, advance,
                    riemann as rm)
from eswsim.analytic import gaussian_bump
from eswsim.riemann import (_HALLEY_TOL, _NEWTON_MAX_ITER, _NEWTON_TOL,
                            _star_depths, evaluate_cells, physical_flux,
                            solve_local_riemann, source_averages)
from eswsim.timeloop import _SIDES, interface_speeds


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


def outer_speeds(L, R):
    """min(lam_L, lam_L', 0) and max(lam_R, lam_R', 0) of two evaluated
    states."""
    return (np.minimum(np.minimum(L.lam_L, R.lam_L), 0.0),
            np.maximum(np.maximum(L.lam_R, R.lam_R), 0.0))


def fan_of(L, R, jump_fb, p, flat=False):
    """solve_local_riemann of two evaluated states, at their outer_speeds."""
    return solve_local_riemann(L.hqr, L.F, R.hqr, R.F, *outer_speeds(L, R),
                               jump_fb, p, flat)


def riemann(W_L, W_R, jump_fb, p):
    """Interface fan of two states, each evaluated at zero velocity gradient."""
    return fan_of(evaluate_cells(W_L.hqr, p), evaluate_cells(W_R.hqr, p),
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
        t, e = source_averages(W.hqr, W.hqr, np.array([0.0]), 1.0)
        assert t[0] == 0.0 and e[0] == 0.0

    def test_topo_average(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        t, _ = source_averages(W.hqr, W.hqr, np.array([0.01]), 1.0)
        assert t[0] == pytest.approx(0.02)

    def test_exchange_average(self):
        W_L = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        W_R = ConservedState(h=[2.0], q=[2.0], r=[0.1])
        _, e = source_averages(W_L.hqr, W_R.hqr, np.array([0.0]), 1.0)
        assert e[0] == pytest.approx(0.1)


class TestConsistency:
    def test_equal_states_give_physical_flux(self):
        W = ConservedState(h=[2.0], q=[2.2], r=[0.3])
        fan = riemann(W, W, np.array([0.0]), params())
        F = physical_flux(W.h, W.q, W.r, np.array([2.59]), params(),
                          W.q / W.h, np.empty((3, 1)))
        # H here comes from lambda1=0 since dudx defaults to 0
        for k in range(3):
            assert fan.F_left[k][0] == pytest.approx(F[k][0], rel=1e-12)
            assert fan.F_right[k][0] == pytest.approx(F[k][0], rel=1e-12)
        assert fan.h_L_star[0] == pytest.approx(2.0, rel=1e-12)
        assert fan.h_R_star[0] == pytest.approx(2.0, rel=1e-12)

    def test_flux_conservative_without_topography(self):
        rng = np.random.default_rng(17)
        n = 200
        W_L = from_primitive_fields(
            rng.uniform(0.5, 3.0, n), rng.uniform(0.1, 2.0, n),
            rng.uniform(0.0, 1.0, n))
        W_R = from_primitive_fields(
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
        # timeloop.interface_speeds on an evaluated extended state: the
        # outer speeds of the cells left and right of each interface,
        # clamped at zero, bit for bit
        rng = np.random.default_rng(19)
        n = 100
        W = from_primitive_fields(
            rng.uniform(0.2, 3.0, n + 4), rng.uniform(-2.0, 2.0, n + 4),
            rng.uniform(0.0, 1.0, n + 4))
        cells = evaluate_cells(W.hqr, params(), rng.normal(0.0, 1.0, n + 4))
        lam_L, lam_R = interface_speeds(cells)
        left, right = _SIDES
        want_L = np.minimum(np.minimum(cells.lam_L[left], cells.lam_L[right]),
                            0.0)
        want_R = np.maximum(np.maximum(cells.lam_R[left], cells.lam_R[right]),
                            0.0)
        assert lam_L.shape == lam_R.shape == (n + 1,)
        assert lam_L.tobytes() == want_L.tobytes()
        assert lam_R.tobytes() == want_R.tobytes()
        assert np.all(lam_L <= 0.0)
        assert np.all(lam_R >= 0.0)

    def test_zero_outer_speed_takes_the_physical_flux(self):
        # strongly supercritical flow (h = 0.1, |u| = 3) over bed jumps: the
        # upstream outer speed clamps to 0, the star region on that side
        # has zero width and its flux is the cell's own, whatever the star
        # depth there (== so that signed zeros compare equal)
        rng = np.random.default_rng(23)
        n = 100
        p = params()
        for u, zero_side in ((3.0, 0), (-3.0, 1)):
            L, R = (evaluate_cells(from_primitive_fields(
                rng.uniform(0.09, 0.11, n), np.full(n, u),
                rng.uniform(0.0, 0.05, n)).hqr, p) for _ in range(2))
            fan = fan_of(L, R, rng.normal(0, 0.01, n), p)
            speeds = outer_speeds(L, R)
            assert np.all(speeds[zero_side] == 0.0)
            left, right = speeds[0] == 0.0, speeds[1] == 0.0
            assert np.all(fan.F_left[:, left] == L.F[:, left])
            assert np.all(fan.F_right[:, right] == R.F[:, right])


class TestFlatBed:
    def test_flat_fan_is_the_zero_jump_fan(self):
        # skipping the flat bed's topography source changes no bit of the
        # fan against the path that multiplies it by zero jumps
        rng = np.random.default_rng(29)
        n = 300
        p = params()
        L, R = (evaluate_cells(from_primitive_fields(
            rng.uniform(0.1, 3.0, n), rng.uniform(-3.0, 3.0, n),
            rng.uniform(0.0, 0.5, n)).hqr, p, rng.normal(0.0, 5.0, n))
            for _ in range(2))
        zeros = np.zeros(n)
        want = fan_of(L, R, zeros, p)
        got = fan_of(L, R, zeros, p, flat=True)
        for name, a, b in zip(want._fields, want, got):
            assert a.tobytes() == b.tobytes(), name
        assert source_averages(L.hqr, R.hqr, None, p.froude)[0] is None


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
        FL, FR = (physical_flux(W.h, W.q, W.r, np.array([2.59]), params(),
                                W.q / W.h, np.empty((3, 1)))
                  for W in (W_L, W_R))
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
            L, R = evaluate_cells(W_L.hqr, p), evaluate_cells(W_R.hqr, p)
            fan = fan_of(L, R, np.array([0.0]), p)
            lam_L, lam_R = outer_speeds(L, R)
            oracle = plain_hll_flux(h_L, h_L * u_L, h_R, h_R * u_R,
                                    float(lam_L[0]), float(lam_R[0]), 1.0)
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


def recorded(args):
    """The first seven arguments of a _star_depths call, its arrays copied:
    solve_local_riemann reuses C's row once the call returns."""
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args[:7]]


def masked_star_depths(q_star, C, span, froude, jump_fb, lam_L, lam_R):
    """Reference: _star_depths' iteration written out on every interface,
    each guard a mask: the closed-form Newton step from the HLL depth, then
    Halley steps from 1/h and 1/h_L*, each interface stopping on its own."""
    fr2 = froude**2
    h_hll = C / span
    active = (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    live = active.copy()
    done = np.zeros_like(active)
    with np.errstate(all="ignore"):
        q2 = q_star**2
        dhl = lam_R / lam_L
        # at the HLL depth h_L* = h, so g = [f_b]/Fr^2 and
        # g' = (1 - dhl)(1 - Fr^2 q*^2/h^3)/Fr^2
        inv_h = 1.0 / h_hll
        d = jump_fb / ((1.0 - q2 * inv_h * inv_h * inv_h * fr2) * (1.0 - dhl))
        hr = h_hll - d
        tol = _NEWTON_TOL
        for it in range(_NEWTON_MAX_ITER):
            if it > 0:
                inv_hr, inv_hl = 1.0 / hr, 1.0 / hl
                inv_hr2, inv_hl2 = inv_hr * inv_hr, inv_hl * inv_hl
                g = ((hr - hl + jump_fb) / fr2
                     + 0.5 * q2 * (inv_hr2 - inv_hl2))
                dg = ((dhl * inv_hl2 * inv_hl - inv_hr2 * inv_hr) * q2
                      + (1.0 - dhl) / fr2)
                half_d2g = ((inv_hr2 * inv_hr2 - dhl**2 * (inv_hl2 * inv_hl2))
                            * (3.0 * (0.5 * q2)))
                d = g / dg
                c2d = d * half_d2g / dg
                hr = np.where(live, hr - d / (1.0 - c2d), hr)
                # about c2^2 d^3 is left: a large c2 tightens the stop
                tol = np.minimum(_NEWTON_TOL / c2d**2, _HALLEY_TOL)
            hl = (lam_R * hr - C) / lam_L
            ok = (hr > 0.0) & (hl > 0.0)
            stop = np.abs(d) / np.maximum(1.0, hr) <= tol
            done |= live & ok & stop
            live &= ok & ~stop
            if not live.any():
                break
    hR = np.where(done, hr, h_hll)
    hL = np.where(done, hl, h_hll)
    return hL, hR, active & ~done


def newton_star_depths(q_star, C, span, froude, jump_fb, lam_L, lam_R):
    """Oracle: the plain Newton iteration that the Newton-then-Halley one
    replaced, each guard a mask. Every step must fall below _NEWTON_TOL;
    a non-finite q*, a nonpositive iterate and no convergence by the cap
    give the HLL depths and a fallback. A zero derivative leaves the
    iterate where it is, which then counts as converged."""
    fr2 = froude**2
    h_hll = C / span
    fallback = np.zeros_like(C, dtype=bool)
    active = (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    hR = h_hll.copy()
    hL = h_hll.copy()
    if active.any():
        idx = np.nonzero(active)[0]
        hr = h_hll[idx].copy()
        lamL, lamR, Ci = lam_L[idx], lam_R[idx], C[idx]
        qi, jfb = q_star[idx], jump_fb[idx]
        ok = np.isfinite(qi)
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
        else:
            ok &= np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, hr)
        hl = (lamR * hr - Ci) / lamL
        ok &= (hr > 0.0) & (hl > 0.0)
        hR[idx] = np.where(ok, hr, h_hll[idx])
        hL[idx] = np.where(ok, hl, h_hll[idx])
        fallback[idx] = ~ok
    return hL, hR, fallback


@pytest.fixture(scope="module")
def bump_interfaces():
    """_star_depths arguments of the last step of a short subcritical run
    over a Gaussian bump: every interface but the two ends has a jump."""
    calls = []
    original = rm._star_depths

    def record(*args):
        calls.append(recorded(args))
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
    return calls[-1]


@pytest.fixture(scope="module")
def steep_bump_calls():
    """{alpha: the _star_depths arguments of every step} of the steep bumps
    of tests/fallback_counts.py (n = 40, supercritical inflow, alpha 0.3,
    0.4 and 0.5, 30 steps each): near-critical interfaces, fallbacks and
    calls where one interface needs many more iterations than the rest."""
    from fallback_counts import ALPHAS, run     # it imports this module
    return {alpha: run(alpha, rm._star_depths)[1] for alpha in ALPHAS}


class TestStarDepthsMatchMasked:
    """_star_depths gives the bits of the written-out masked reference,
    which keeps each guard a separate mask and collects the stopped
    interfaces one iteration at a time."""

    def check(self, args, quiet=False):
        with np.errstate(all="ignore" if quiet else "raise"):
            got = _star_depths(*args)
            want = masked_star_depths(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
        return got

    def with_values(self, base, **changes):
        """Copy of the argument list with {name: {interface: value}} and
        span = lam_R - lam_L."""
        names = ("q_star", "C", "span", "froude", "jump_fb", "lam_L", "lam_R")
        args = recorded(base)
        for name, values in changes.items():
            for i, v in values.items():
                args[names.index(name)][i] = v
        args[2] = args[6] - args[5]
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
            args[0] *= rng.uniform(0.5, 1.5, args[0].size)
            self.check(args, quiet=True)

    def test_iterates_go_nonpositive(self, bump_interfaces):
        # the first iterate h_hll is positive, so the loop starts unmasked;
        # a large jump makes a Newton step overshoot below zero
        args = self.with_values(bump_interfaces,
                                jump_fb={30: 5.0, 31: -5.0})
        assert (args[1] / args[2])[[30, 31]].min() > 0.0
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
        # a NaN q* falls back to the HLL depth on both sides and is counted
        args = self.with_values(bump_interfaces, q_star={20: np.nan})
        hL, hR, fallback = self.check(args, quiet=True)
        assert np.flatnonzero(fallback).tolist() == [20]
        h_hll = args[1][20] / args[2][20]
        assert hL[20] == hR[20] == h_hll

    def test_unconverged_at_cap_falls_back(self, bump_interfaces,
                                           monkeypatch):
        # one iteration converges only where the bed jump is tiny: every
        # other Newton-active interface has not converged by the cap, so it
        # takes the HLL depths and is counted as a fallback
        args = bump_interfaces
        hL, hR, _ = _star_depths(*args)
        monkeypatch.setattr(rm, "_NEWTON_MAX_ITER", 1)
        hL1, hR1, fallback = _star_depths(*args)
        h_hll = args[1] / args[2]
        assert 0 < np.count_nonzero(fallback) < np.count_nonzero(args[4])
        assert np.array_equal(hL1[fallback], h_hll[fallback])
        assert np.array_equal(hR1[fallback], h_hll[fallback])
        assert np.allclose(hR1[~fallback], hR[~fallback], rtol=1e-14, atol=0)

    def test_zero_newton_derivative(self):
        # lam = -1, 1, h_hll = 1 and q* = 1 at Fr = 1: dg is exactly 0 at
        # the first iterate, whose g is 0.01, so the step is infinite and
        # the interface falls back to the HLL depth
        n = 5
        ones = np.ones(n)
        args = [np.array([1.0, 0.5, 1.0, 0.8, 1.0]), 2.0 * ones, 2.0 * ones,
                1.0, np.full(n, 0.01), -ones, ones]
        hL, hR, fallback = self.check(args, quiet=True)
        assert np.flatnonzero(fallback).tolist() == [0, 2, 4]
        assert hR[0] == hR[2] == hR[4] == 1.0

    def test_tiny_newton_derivative(self):
        # q* = 0 and Fr = 1e154 give dg = 2/Fr^2 = 2e-308 for a g that is
        # linear in h_R*: the step is finite and lands on the root
        n = 4
        ones = np.ones(n)
        args = [np.array([0.0, 1.0, 0.0, 1.0]), 2.0 * ones, 2.0 * ones,
                1e154, np.full(n, 0.01), -ones, ones]
        hL, hR, fallback = self.check(args, quiet=True)
        assert not fallback.any()
        assert np.allclose((hR - hL + 0.01)[[0, 2]], 0.0, atol=1e-12)

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
        # one-sided with a jump: the HLL depth C/span is the one the linear
        # relation gives, C/lam_R
        args = self.with_values(bump_interfaces, lam_L={5: 0.0})
        hL, hR, _ = self.check(args, quiet=True)
        assert hR[5] == args[1][5] / args[6][5]

    def test_no_active_interface(self, bump_interfaces):
        flat = self.with_values(bump_interfaces)
        flat[4] = np.zeros_like(flat[4])
        hL, hR, fallback = self.check(flat)
        assert np.array_equal(hL, hR) and not fallback.any()
        supercritical = self.with_values(bump_interfaces)
        supercritical[5] = np.zeros_like(supercritical[5])
        supercritical[2] = supercritical[6] - supercritical[5]
        self.check(supercritical, quiet=True)

    def test_steep_bump_calls(self, steep_bump_calls):
        for calls in steep_bump_calls.values():
            for args in calls:
                self.check(args, quiet=True)


def bernoulli(h, q_star, C, span, froude, jump_fb, lam_L, lam_R):
    """(g, g', the sum of |terms of g|) at h_R* = h, in float64."""
    hl = (lam_R * h - C) / lam_L
    q2h, fr2 = q_star**2 / 2.0, froude**2
    g = q2h * (1.0 / h**2 - 1.0 / hl**2) + (h - hl + jump_fb) / fr2
    dg = q_star**2 * (lam_R / lam_L / hl**3 - 1.0 / h**3) \
        + (1.0 - lam_R / lam_L) / fr2
    terms = q2h / h**2 + q2h / hl**2 + (abs(h) + abs(hl) + abs(jump_fb)) / fr2
    return g, dg, terms


class TestStarDepthsMatchNewton:
    """Where the plain Newton oracle and _star_depths both converge, their
    depths agree to 1e-14 relative, or, with two roots of g near the HLL
    depth, both are roots and _star_depths' is on the HLL depth's branch;
    on every input built from a run, they also fall back at the same
    interfaces."""

    def compare(self, args, same_fallback=True, two_roots=False):
        with np.errstate(all="ignore"):
            got = _star_depths(*args)
            want = newton_star_depths(*args)
        if same_fallback:
            assert np.array_equal(got[2], want[2])
        both = ~got[2] & ~want[2]
        if two_roots:
            apart = both & ~np.isclose(got[1], want[1], rtol=1e-14, atol=0.0,
                                       equal_nan=True)
            pick = [a[apart] if isinstance(a, np.ndarray) else a
                    for a in args]
            for h in (got[1][apart], want[1][apart]):
                g, _, terms = bernoulli(h, *pick)
                assert np.all(np.abs(g) <= 4.0 * np.finfo(float).eps * terms)
            _, dg, _ = bernoulli(got[1][apart], *pick)
            _, dg_hll, _ = bernoulli(pick[1] / pick[2], *pick)
            assert np.array_equal(np.sign(dg), np.sign(dg_hll))
            both &= ~apart
        for a, b in zip(got[:2], want[:2]):
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.allclose(a[both], b[both], rtol=1e-14, atol=0.0,
                               equal_nan=True)
        return np.count_nonzero(both)

    def test_bump_run(self, bump_interfaces):
        assert self.compare(bump_interfaces) == bump_interfaces[4].size

    def test_changed_inputs(self, bump_interfaces):
        with_values = TestStarDepthsMatchMasked().with_values
        for changes in ({"jump_fb": {30: 5.0, 31: -5.0}}, {"C": {12: -1.0}},
                        {"q_star": {20: np.nan}}, {"C": {20: np.nan}},
                        {"lam_L": {5: 0.0, 9: 0.3}},
                        {"lam_L": {5: 0.0, 8: 0.1},
                         "lam_R": {8: -0.1, 21: 0.0}}):
            self.compare(with_values(bump_interfaces, **changes))

    def test_seeded_jumps(self, bump_interfaces):
        # random jumps leave some interfaces without a root near the HLL
        # depth; there each iteration wanders, and which of them ends on a
        # far root by the cap differs, so only the converged depths agree.
        # Near critical star flow g can have two roots beside the HLL
        # depth, one each side of the fold where g' = 0, and the plain
        # Newton may end on the far one (draw 11, interface 34: Fr^2
        # q*^2/h^3 = 0.987 at the HLL depth, whose g' = +0.051; the depths
        # are 1.92114 with g' = +0.677 and 2.07709 with g' = -0.960)
        with_values = TestStarDepthsMatchMasked().with_values
        rng = np.random.default_rng(11)
        compared = 0
        for _ in range(20):
            args = with_values(bump_interfaces)
            args[4] = rng.normal(0.0, 0.02, args[4].size)
            args[0] *= rng.uniform(0.5, 1.5, args[0].size)
            compared += self.compare(args, same_fallback=False,
                                     two_roots=True)
        assert compared > 1000


def longdouble_roots(h, q_star, C, jump_fb, lam_L, lam_R, froude):
    """(roots of g, last Newton step): three Newton steps in np.longdouble
    from the depths h, on the inputs converted exactly."""
    q, C, jfb, lamL, lamR, h = (np.asarray(a, np.longdouble) for a in
                                (q_star, C, jump_fb, lam_L, lam_R, h))
    q2h = q * q / 2
    fr2 = np.longdouble(froude)**2
    dhl = lamR / lamL
    for _ in range(3):
        hl = (lamR * h - C) / lamL
        g = q2h * (1 / h**2 - 1 / hl**2) + (h - hl + jfb) / fr2
        dg = 2 * q2h * (dhl / hl**3 - 1 / h**3) + (1 - dhl) / fr2
        step = g / dg
        h = h - step
    return h, step


def bump_calls(h0, alpha, n=400, t_end=0.25):
    """_star_depths arguments of every step of a bump run, set up as the
    benchmark ensemble's members (on [0, 2], sigma = 0.1 at x = 1)."""
    calls = []
    original = rm._star_depths

    def record(*args):
        calls.append(recorded(args))
        return original(*args)

    grid = Grid1D.uniform(0.0, 2.0, n,
                          lambda x: gaussian_bump(x, alpha, 0.1, 1.0))
    W = ConservedState(h=np.full(n, h0), q=np.full(n, h0), r=np.zeros(n))
    left = SubcriticalInflow(u_in=1.0) if h0 > 1.0 else \
        SupercriticalInflow(u_in=1.0, h_in=h0)
    rm._star_depths = record
    try:
        advance(RunState(0.0, 0, W), t_end, grid, PhysicalParams(1.0, 1e-3),
                BoundarySpec(left=left))
    finally:
        rm._star_depths = original
    return calls


def resolved_t_end(h0):
    """End time of the resolved bump runs: the supercritical one's steps
    are about 1.8 times the subcritical one's, so it runs twice as long to
    sample as many calls."""
    return 0.25 if h0 > 1.0 else 0.5


class TestStarDepthsAgainstExtendedPrecision:
    """Every converged h_R* lies within 1e-15 max(1, h) of the root of g,
    polished in np.longdouble from it."""

    def test_oracle_is_finer_than_the_claim(self):
        assert np.finfo(np.longdouble).eps < 1e-18

    def check(self, calls):
        checked = 0
        for args in calls:
            with np.errstate(all="ignore"):
                _, hR, fallback = _star_depths(*args)
            converged = ((args[4] != 0.0) & (args[5] < 0.0) & (args[6] > 0.0)
                         & ~fallback)
            root, step = longdouble_roots(
                hR[converged], *(args[k][converged] for k in (0, 1, 4, 5, 6)),
                args[3])
            scale = np.maximum(1.0, root)
            assert np.all(np.abs(step) <= 1e-17 * scale)
            assert np.all(np.abs(hR[converged] - root) <= 1e-15 * scale)
            checked += np.count_nonzero(converged)
        return checked

    def test_bump_interfaces(self, bump_interfaces):
        assert self.check([bump_interfaces]) == bump_interfaces[4].size - 2

    @pytest.mark.parametrize("h0, alpha", [(2.0, 0.03), (0.5, 0.01)])
    def test_resolved_bump(self, h0, alpha):
        assert self.check(bump_calls(h0, alpha, t_end=resolved_t_end(h0))) \
            > 50_000

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_near_critical_steep_bump(self, steep_bump_calls, alpha):
        # c2 = g''/(2g') reaches about 2e3 here, so |d| <= _HALLEY_TOL alone
        # would stop one Halley step early and leave up to 1.8e-15 (alpha
        # = 0.3). At alpha = 0.4 one interface sits so near a double root
        # that g's rounding makes its steps g/g' noise of 1e-15 to 1e-14,
        # and where an iteration stops there is chance: this one lands up
        # to 2.3e-15 away, the plain Newton once falls back; it is left out
        assert self.check(steep_bump_calls[alpha]) > 1000


class TestPerInterfaceStop:
    """Each interface stops on its own: solved alone it gets the bits and
    the fallback flag of the whole call, and so do the others of the call
    once its slowest interface is removed."""

    def solve(self, args, keep=slice(None)):
        part = [a[keep] if isinstance(a, np.ndarray) else a for a in args]
        with np.errstate(all="ignore"):
            return _star_depths(*part)

    def iterations(self, args, monkeypatch):
        """Per interface, the smallest iteration cap that gives its result."""
        full = self.solve(args)
        count = np.zeros(args[0].size, dtype=int)
        for cap in range(_NEWTON_MAX_ITER, 0, -1):
            monkeypatch.setattr(rm, "_NEWTON_MAX_ITER", cap)
            same = np.logical_and.reduce([
                np.equal(a, b) | (np.isnan(a) & np.isnan(b))
                for a, b in zip(self.solve(args), full)])
            count[same] = cap
        monkeypatch.undo()
        return count

    def check(self, args, monkeypatch):
        full = self.solve(args)
        for i in range(args[0].size):
            for a, b in zip(self.solve(args, slice(i, i + 1)), full):
                assert np.array_equal(a, b[i:i + 1], equal_nan=True)
        count = self.iterations(args, monkeypatch)
        keep = np.arange(args[0].size) != np.argmax(count)
        for a, b in zip(self.solve(args, keep), full):
            assert np.array_equal(a, b[keep], equal_nan=True)
        return count

    def test_bump_interfaces(self, bump_interfaces, monkeypatch):
        # the iterations per interface range from 1 (no or a tiny bed jump)
        # to 3 on this coarse grid
        count = self.check(bump_interfaces, monkeypatch)
        assert count.min() == 1 and count.max() == 3

    def test_seeded_jumps(self, bump_interfaces, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(3):
            args = recorded(bump_interfaces)
            args[4] = rng.normal(0.0, 0.02, args[4].size)
            args[0] *= rng.uniform(0.5, 1.5, args[0].size)
            self.check(args, monkeypatch)

    def test_one_slow_interface(self, steep_bump_calls, monkeypatch):
        # the first step at alpha = 0.4: one interface needs many more
        # iterations than any other, which no longer take them too
        count = self.check(steep_bump_calls[0.4][0], monkeypatch)
        assert count.max() >= 10 and np.sort(count)[-2] <= 5


@pytest.mark.parametrize("h0, alpha", [(2.0, 0.03), (0.5, 0.01)])
def test_two_iterations_on_a_resolved_bump(h0, alpha, monkeypatch):
    # the sub- and supercritical bump members of the benchmark ensemble
    # (n = 400, the 3-alpha and alpha beds): one Newton step and one Halley
    # step converge at every interface of every step, so a cap of two
    # iterations changes no bit and no interface falls back
    n = 400
    grid = Grid1D.uniform(0.0, 2.0, n,
                          lambda x: gaussian_bump(x, alpha, 0.1, 1.0))
    W = ConservedState(h=np.full(n, h0), q=np.full(n, h0), r=np.zeros(n))
    left = SubcriticalInflow(u_in=1.0) if h0 > 1.0 else \
        SupercriticalInflow(u_in=1.0, h_in=h0)
    runs = []   # the fallback count of each call, one list per run
    original = rm._star_depths

    def counting(*args):
        result = original(*args)
        runs[-1].append(int(np.count_nonzero(result[2])))
        return result

    def final(max_iter):
        runs.append([])
        monkeypatch.setattr(rm, "_NEWTON_MAX_ITER", max_iter)
        monkeypatch.setattr(rm, "_star_depths", counting)
        return advance(RunState(0.0, 0, W), resolved_t_end(h0), grid,
                       PhysicalParams(1.0, 1e-3), BoundarySpec(left=left)).W
    want = final(_NEWTON_MAX_ITER)
    got = final(2)
    for fallbacks in runs:
        assert len(fallbacks) > 150 and not any(fallbacks)
    assert np.array_equal(got.hqr, want.hqr)
