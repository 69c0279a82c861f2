"""Splitting scheme: boundaries, CFL, conservation, friction step."""

from collections import Counter

import fallback_counts
import numpy as np
import step_timing
import pytest
from conftest import from_primitive_fields
from hypothesis import given, settings, strategies as st
from test_riemann import newton_star_depths

from eswsim import (BoundarySpec, ConservedState, Grid1D, LayerGrid,
                    MlswState, PhysicalParams, RunState, SubcriticalInflow,
                    SupercriticalInflow, advance, closures, compute_dt,
                    hyperbolicity, riemann, scenarios, state, step, timeloop)
from eswsim.analytic import gaussian_bump
from eswsim.errors import (DomainError, DryCell, NegativeDiscriminant,
                           NonFiniteState, NonpositiveTimeStep)
from eswsim.mlsw import _ghosted
from eswsim.riemann import evaluate_cells
from eswsim.state import H_DRY
from eswsim.timeloop import (N_GHOST, apply_boundaries, convection_step,
                             friction_step, frozen_gradient, interface_speeds,
                             with_ghosts)


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


def uniform_state(n, h0=2.0, u0=1.0, d1=0.0):
    return from_primitive_fields(
        np.full(n, h0), np.full(n, u0), np.full(n, d1))


def dt_of(cells, dx, dt_cap=np.inf):
    """compute_dt of an evaluated extended state and its interface speeds."""
    return compute_dt(cells, *interface_speeds(cells), dx, dt_cap)


def convect(cells, jumps, p, dx, dt):
    """convection_step of an evaluated extended state at its interface
    speeds."""
    return convection_step(cells, *interface_speeds(cells), jumps, p, dx, dt)


class TestBoundaries:
    def test_supercritical_ghost(self):
        W = uniform_state(8, h0=0.7, u0=1.2)
        spec = BoundarySpec(left=SupercriticalInflow(u_in=1.0, h_in=0.5))
        ext = apply_boundaries(W, spec, params())
        assert np.all(ext[0][:N_GHOST] == 0.5)
        assert np.all(ext[1][:N_GHOST] == 0.5)
        assert np.all(ext[2][:N_GHOST] == 0.0)

    def test_subcritical_compatible_interior(self):
        W = uniform_state(8, h0=2.0, u0=1.0)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        ext = apply_boundaries(W, spec, params())
        assert ext[0][0] == pytest.approx(2.0, rel=1e-14)

    def test_subcritical_invariant_depth(self):
        # outgoing invariant u - 2*sqrt(h)/Fr: slow interior deepens the
        # ghost so the inlet pushes the flow back towards u_in
        W = uniform_state(8, h0=2.02, u0=0.99)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        ext = apply_boundaries(W, spec, params())
        assert ext[0][0] == pytest.approx((np.sqrt(2.02) + 0.005) ** 2,
                                         rel=1e-13)
        assert ext[0][0] > 2.02

    def test_outflow_copies(self):
        W = uniform_state(8)
        W = ConservedState(W.h, W.q, np.linspace(0.0, 0.7, 8))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        ext = apply_boundaries(W, spec, params())
        assert np.all(ext[2][-N_GHOST:] == 0.7)

    @pytest.mark.parametrize("left", [SupercriticalInflow(u_in=1, h_in=2),
                                      SubcriticalInflow(u_in=1.1)])
    def test_ghosts_match_concatenation(self, left):
        rng = np.random.default_rng(5)
        W = from_primitive_fields(
            rng.uniform(1.5, 2.5, 9), rng.uniform(0.8, 1.2, 9),
            rng.uniform(0.0, 0.3, 9))
        ext = apply_boundaries(W, BoundarySpec(left=left), params())
        g = ext[0][0]
        u_g = left.u_in
        for got, interior, ghost in ((ext[0], W.h, g), (ext[1], W.q, g * u_g),
                                     (ext[2], W.r, 0.0)):
            want = np.concatenate([np.full(N_GHOST, ghost), interior,
                                   np.full(N_GHOST, interior[-1])])
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

        # the MLSW padding (one ghost, (N, n) velocities) matches its
        # concatenate reference too
        layers = LayerGrid(7)
        state = MlswState(h=W.h, u=rng.uniform(0.8, 1.2, (7, 9)))
        h, u = _ghosted(state, left, layers, params())
        assert np.array_equal(h, np.concatenate([[h[0]], W.h, [W.h[-1]]]))
        want = np.concatenate([np.full((7, 1), left.u_in), state.u,
                               state.u[:, -1:]], axis=1)
        assert u.dtype == np.float64 and u.flags.c_contiguous
        assert np.array_equal(u, want)

        # the bed, for both ghost widths
        topo = rng.normal(size=9)
        for g in (1, N_GHOST):
            want = np.concatenate([np.full(g, topo[0]), topo,
                                   np.full(g, topo[-1])])
            assert np.array_equal(with_ghosts(topo, topo[0], g), want)

    def test_stacked_ghosts_match_rows(self):
        # one call on the (3, n) state with a (3, 1) inflow column gives the
        # three 1-D calls, row by row
        rng = np.random.default_rng(8)
        W = rng.normal(size=(3, 9))
        left = np.array([[0.5], [0.6], [0.0]])
        for g in (1, N_GHOST):
            got = with_ghosts(W, left, g)
            assert got.shape == (3, 9 + 2 * g) and got.flags.c_contiguous
            for k in range(3):
                assert np.array_equal(got[k], with_ghosts(W[k], left[k, 0], g))

    @pytest.mark.parametrize("u0", [0.7, 0.9, 1.1])
    def test_models_share_subcritical_ghost_depth(self, u0):
        W = uniform_state(6, h0=2.0, u0=u0)
        left = SubcriticalInflow(u_in=1.0)
        esw = apply_boundaries(W, BoundarySpec(left=left), params())[0, 0]
        layers = LayerGrid(100)
        mlsw, _ = _ghosted(MlswState.uniform(layers, 6, 2.0, u0), left,
                           layers, params())
        # the layer fractions sum to 1 within 1e-14, so U1 = u0 as closely
        assert mlsw[0] == pytest.approx(esw, rel=1e-14)
        assert esw == pytest.approx((np.sqrt(2.0) + (1.0 - u0) / 2.0) ** 2,
                                    rel=1e-14)

    @pytest.mark.parametrize("u_in", [-2.0, -2.0 * np.sqrt(2.0) + 1.0 + 1e-7],
                             ids=["nonpositive_root", "tiny_root"])
    def test_ghost_depth_clamped_in_both_models(self, u_in, caplog):
        # u_in - u1 <= -2*sqrt(h1): the invariant root is nonpositive or,
        # for the second value, positive with a square below H_DRY
        left = SubcriticalInflow(u_in=u_in)
        W = uniform_state(6, h0=2.0, u0=1.0)
        layers = LayerGrid(5)
        with caplog.at_level("WARNING", logger="eswsim.timeloop"):
            esw = apply_boundaries(W, BoundarySpec(left=left), params())
            h, u = _ghosted(MlswState.uniform(layers, 6, 2.0, 1.0), left,
                            layers, params())
        assert np.all(esw[0][:N_GHOST] == H_DRY) and h[0] == H_DRY
        assert np.all(esw[1][:N_GHOST] == H_DRY * u_in)
        assert np.all(u[:, 0] == u_in)
        clamps = [r for r in caplog.records if "clamping" in r.getMessage()]
        assert len(clamps) == 2

    def test_unknown_inflow_rejected(self):
        with pytest.raises(DomainError, match="unsupported left boundary"):
            timeloop.inflow_ghost(object(), 2.0, 1.0, 1.0)
        layers = LayerGrid(3)
        with pytest.raises(DomainError, match="unsupported left boundary"):
            _ghosted(MlswState.uniform(layers, 6, 2.0, 1.0), object(),
                     layers, params())

    @pytest.mark.parametrize("h1, q1, ghost", [(0.0, 1.0, H_DRY),
                                               (0.0, 0.0, np.nan),
                                               (0.0, -1.0, np.inf),
                                               (-0.5, 1.0, np.nan),
                                               (1e-200, 1.0, H_DRY)])
    def test_nonpositive_first_cell_at_subcritical_inflow(self, h1, q1,
                                                          ghost, caplog):
        # its velocity and root are NumPy's: inf or NaN, with a warning
        # (silenced here), and so is the square of a root of -5e199, which
        # overflows to inf; the step then names the wave speed of cell 0
        W = uniform_state(10)
        W.h[0], W.q[0] = h1, q1
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        with np.errstate(all="ignore"):
            ext = apply_boundaries(W, spec, params())
            np.testing.assert_array_equal(ext[0][:N_GHOST], ghost)
            with pytest.raises(NonFiniteState) as info:
                step(W, Grid1D.uniform(0.0, 1.0, 10), params(), spec)
        assert (info.value.field, info.value.cell) == ("lam_L", 0)


class TestComputeDt:
    def test_cfl_bound(self):
        W = uniform_state(10)
        dt, _ = dt_of(evaluate_cells(W.hqr, params()), dx=0.01)
        # Nickalls bounds ~(-0.888, 2.479) for (h=2, u=1, Fr=1): each cell
        # sees lam_R of its left interface and |lam_L| of its right one
        assert dt == pytest.approx(0.9 * 0.01 / (2.4789 + 0.8881), rel=1e-3)

    @pytest.mark.parametrize("name, value", [("lam_L", np.nan),
                                             ("lam_L", -np.inf),
                                             ("lam_R", np.nan),
                                             ("lam_R", np.inf)])
    @pytest.mark.parametrize("index, cell", [(5, 3), (0, -2), (13, 11)])
    def test_non_finite_bound_is_named(self, name, value, index, cell):
        # an extended state of 14 cells: index 0 is the first inflow ghost,
        # index 13 the last outflow ghost
        cells = evaluate_cells(uniform_state(14).hqr, params())
        bound = getattr(cells, name).copy()
        bound[index] = value
        with pytest.raises(NonFiniteState) as info:
            dt_of(cells._replace(**{name: bound}), dx=0.01)
        assert (info.value.field, info.value.cell) == (name, cell)

    def test_zero_wave_speeds_take_the_cap(self):
        cells = evaluate_cells(uniform_state(10).hqr, params())
        still = cells._replace(lam_L=np.zeros(10), lam_R=np.zeros(10))
        assert dt_of(still, dx=0.01, dt_cap=0.25) == (0.25, "cap")
        assert dt_of(still, dx=0.01) == (np.inf, "cfl")
        with pytest.raises(NonpositiveTimeStep, match="set by cap"):
            dt_of(still, dx=0.01, dt_cap=0.0)

    def test_dt_is_a_python_float_for_every_limiter(self):
        n = 10
        cells = evaluate_cells(uniform_state(n).hqr, params())
        reverse = evaluate_cells(uniform_state(n, d1=0.5).hqr, params(),
                                 np.full(n, -20.0))
        cfl = dt_of(cells, dx=0.01)
        for (dt, limiter), want in ((cfl, "cfl"),
                                    (dt_of(reverse, dx=1.0),
                                     "reverse_flow"),
                                    (dt_of(cells, 0.01, 0.5 * cfl[0]),
                                     "cap")):
            assert type(dt) is float and limiter == want

    def test_reverse_flow_cap(self):
        # strongly decelerated layer: f2 < 0 caps dt at -delta1^2/(4 f2 H)
        n = 10
        W = uniform_state(n, d1=0.5)
        dudx = np.full(n, -20.0)  # Lambda1 = -5 -> H ~ 16.5, f2 < 0
        dt, _ = dt_of(evaluate_cells(W.hqr, params(), dudx), dx=1.0)
        from eswsim.closures import closure_factors
        H, f2 = closure_factors(params().closure, np.full(n, 0.25 * -20.0))
        cap = -0.25 / (4.0 * f2[0] * H[0])
        assert dt <= cap + 1e-15


class TestConvectionStep:
    def test_uniform_flat_is_steady(self):
        n = 16
        W = uniform_state(n + 2 * N_GHOST)
        jumps = np.zeros(n + 1)
        W2, _ = convect(evaluate_cells(W.hqr, params()), jumps, params(), 0.01,
                        1e-3)
        assert np.allclose(W2[0], 2.0, atol=1e-15)
        assert np.allclose(W2[1], 2.0, atol=1e-15)

    def test_mass_conservation_interior(self):
        # flat topography: total mass change equals boundary flux difference
        rng = np.random.default_rng(41)
        n = 64
        W_int = from_primitive_fields(
            rng.uniform(1.5, 2.5, n), rng.uniform(0.8, 1.2, n),
            rng.uniform(0.0, 0.4, n))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        W_ext = apply_boundaries(W_int, spec, params())
        jumps = np.zeros(n + 1)
        dt, dx = 1e-4, 0.01
        W2, fan = convect(evaluate_cells(W_ext, params()), jumps, params(),
                          dx, dt)
        dM = np.sum(W2[0] - W_int.h) * dx
        boundary = -dt * (fan.F_left[0][-1] - fan.F_right[0][0])
        assert dM == pytest.approx(boundary, abs=1e-14)

    def test_lake_at_rest_over_bump(self):
        n = 50
        grid = Grid1D.uniform(0.0, 2.0, n,
                              lambda x: gaussian_bump(x, 0.2, 0.1))
        h = 1.0 - grid.topo
        W_ext = ConservedState(h=with_ghosts(h, h[0], N_GHOST),
                               q=np.zeros(n + 4), r=np.zeros(n + 4))
        W2, _ = convect(evaluate_cells(W_ext.hqr, params()), grid.bed_jumps,
                        params(), grid.dx, 1e-3)
        assert np.max(np.abs(W2[0] - h)) < 1e-13
        assert np.max(np.abs(W2[1])) < 1e-13

    def test_dry_cell_raises(self):
        # thin film with diverging velocity drains below the dry threshold
        n = 8
        m = n + 2 * N_GHOST
        h = np.full(m, 1e-10)
        u = np.linspace(0.0, 2.0, m)
        W = from_primitive_fields(h, u, np.zeros(m))
        with pytest.raises(DryCell) as info:
            convect(evaluate_cells(W.hqr, params()), np.zeros(n + 1), params(),
                    1e-4, 1.0)
        assert (info.value.field, info.value.cell) == ("h", 0)

    def test_dry_cell_named_past_a_nan(self):
        # the guard skips a NaN depth, as a comparison does: the dry cell is
        # named, and a NaN alone is left to the next step's cell scan
        n = 8
        m = n + 2 * N_GHOST
        for h0, want in ((1e-10, 0), (2.0, None)):
            W = from_primitive_fields(np.full(m, h0), np.linspace(0.0, 2.0, m),
                                      np.zeros(m))
            cells = evaluate_cells(W.hqr, params())
            cells.F[0, -3] = np.nan
            if want is None:
                new, _ = convect(cells, np.zeros(n + 1), params(), 1e-4,
                                 1e-6)
                assert np.isnan(new[0][-1]) and np.isnan(new[0][-2])
                continue
            with pytest.raises(DryCell) as info:
                convect(cells, np.zeros(n + 1), params(), 1e-4, 1.0)
            assert info.value.cell == want


class TestFrictionStep:
    def test_growth_closed_form(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        W2 = friction_step(W.hqr, 0.01, np.array([0.5716]), W.q / W.h)
        # delta1' = sqrt(1 + 2*0.5716*0.01)
        assert W2[2][0] == pytest.approx(1.005699, abs=1e-6)

    def test_negative_discriminant_raises(self):
        # delta1^2 + 2*f2H*dt < 0 in the second cell; the NaN in the first
        # is skipped, as a comparison skips it
        W = ConservedState(h=[2.0, 2.0], q=[2.0, 2.0], r=[0.1, 0.1])
        with pytest.raises(NegativeDiscriminant):
            friction_step(W.hqr, 1.0, np.array([np.nan, -1.0]), W.q / W.h)

    def test_separation_neutral(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.3])
        W2 = friction_step(W.hqr, 0.01, np.array([0.0]), W.q / W.h)
        assert W2[2][0] == pytest.approx(0.3, abs=1e-15)

    def test_h_q_untouched(self):
        W = ConservedState(h=[1.7], q=[2.1], r=[0.2])
        W2 = friction_step(W.hqr, 0.05, np.array([0.5]), W.q / W.h)
        assert W2[0][0] == 1.7 and W2[1][0] == 2.1

    @given(st.floats(0.0, 2.0), st.floats(-0.3, 0.8), st.floats(1e-6, 0.1))
    @settings(max_examples=300, deadline=None)
    def test_delta1_stays_nonnegative(self, d1, f2H, dt):
        # admissible inputs: dt below the reverse-flow cap when f2H < 0
        if f2H < 0.0:
            dt = min(dt, 0.999 * d1 * d1 / (4.0 * abs(f2H))) if d1 > 0 else 0.0
            if dt <= 0.0:
                return
        W = ConservedState(h=[2.0], q=[2.0], r=[d1 * 1.0])
        W2 = friction_step(W.hqr, dt, np.array([f2H]), W.q / W.h)
        assert W2[2][0] >= 0.0

    def test_two_half_steps_make_one_step(self):
        # the update is the exact flow of d(delta1^2)/dt = 2*f2H, so it
        # composes: two steps of dt/2 at one f2H are one step of dt
        rng = np.random.default_rng(5)
        n = 200
        h = rng.uniform(0.5, 2.5, n)
        u = rng.uniform(0.2, 2.0, n)
        d1 = rng.uniform(0.0, 2.0, n)
        f2H = rng.uniform(-0.5, 1.0, n)
        # below the reverse-flow cap delta1^2/(4|f2H|)
        dt = 0.9 * np.min(d1**2 / (4.0 * np.abs(f2H)))
        one, two = (ConservedState(h=h, q=h * u, r=d1 * u) for _ in range(2))
        friction_step(one.hqr, dt, f2H, one.q / one.h)
        for _ in range(2):
            friction_step(two.hqr, 0.5 * dt, f2H, two.q / two.h)
        assert np.allclose(two.r, one.r, rtol=1e-15, atol=0.0)

    def test_growth_from_rest_is_exact(self):
        # delta1 = 0 grows as sqrt(2*f2H*t): in one step to roundoff, and in
        # 2000 steps to their accumulated roundoff
        f2H = np.array([0.5716216216216218, 0.3, 1e-3])
        t = 0.02
        W = ConservedState(h=np.full(3, 2.0), q=np.full(3, 2.0), r=np.zeros(3))
        want = np.sqrt(2.0 * f2H * t)
        assert np.allclose(friction_step(W.hqr, t, f2H, W.q / W.h)[2], want,
                           rtol=1e-15, atol=0.0)
        W = ConservedState(h=np.full(3, 2.0), q=np.full(3, 2.0), r=np.zeros(3))
        for _ in range(2000):
            friction_step(W.hqr, t / 2000, f2H, W.q / W.h)
        assert np.allclose(W.r, want, rtol=1e-13, atol=0.0)

    def test_growth_matches_von_karman_ode(self):
        # d(delta1^2)/dt = 2*f2*H at fixed u_e: exact solution sqrt(2 f2H t)
        f2H = 0.5716216216216218
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        t, dt = 0.0, 1e-5
        for _ in range(2000):
            friction_step(W.hqr, dt, np.array([f2H]), W.q / W.h)
            t += dt
        assert W.r[0] == pytest.approx(np.sqrt(2 * f2H * t), rel=1e-3)


class TestPositivityTimeStep:
    """At every cell of every step, nu (|lam_L(i+1/2)| + lam_R(i-1/2)) <= 0.9
    with nu = dt/dx, the fan speeds taken from the evaluated cells that the
    convection step is given: the update is a convex combination of the
    cell and its two adjacent star states, with the CFL margin."""

    def largest_sums(self, monkeypatch, config, tmp_path):
        """Per step of the run, the largest nu (|lam_L| + lam_R) per cell."""
        seen = []
        convect_cells = timeloop.convection_step

        def checking(cells, lam_L, lam_R, jump_fb, p, dx, dt, flat=False):
            m = cells.lam_L.size
            left = np.maximum(np.maximum(cells.lam_R[1:m - 3],
                                         cells.lam_R[2:m - 2]), 0.0)
            right = np.minimum(np.minimum(cells.lam_L[2:m - 2],
                                          cells.lam_L[3:m - 1]), 0.0)
            seen.append(float(np.max(dt / dx * (left - right))))
            return convect_cells(cells, lam_L, lam_R, jump_fb, p, dx, dt,
                                 flat)
        monkeypatch.setattr(timeloop, "convection_step", checking)
        scenarios.run_scenario(config, tmp_path)
        return np.array(seen)

    @pytest.mark.parametrize("fields", [
        # criterion 5's subcritical bump and criterion 4's impulsive start
        dict(scenario="Bump", x_max=2.0, n_cells=400, h0=2.0,
             bump_alpha=0.01, bump_sigma=0.1, bump_center=1.0, t_end=6.0),
        dict(scenario="ImpulsiveStart", x_max=10.0, n_cells=2000, h0=0.5,
             t_end=2.0, snapshot_times=(0.5, 1.0, 2.0))],
        ids=["bump", "impulsive"])
    def test_every_cell_of_every_step(self, monkeypatch, tmp_path, fields):
        sums = self.largest_sums(monkeypatch,
                                 scenarios.ScenarioConfig(**fields), tmp_path)
        assert sums.size > 500
        assert np.all(sums <= timeloop.CFL_NUMBER * (1.0 + 4e-16))
        # the bound is met, in all but the steps cut short by an output
        assert np.count_nonzero(np.isclose(sums, timeloop.CFL_NUMBER,
                                           rtol=1e-15)) >= sums.size - 4


class TestStepAndAdvance:
    def test_uniform_inviscid_is_exactly_steady(self):
        n = 32
        grid = Grid1D.uniform(0.0, 1.0, n)
        p = params(db=0.0)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        W, _ = step(uniform_state(n), grid, p, spec)
        assert np.allclose(W.h, 2.0, atol=1e-15)
        assert np.allclose(W.q, 2.0, atol=1e-15)

    def test_inviscid_matches_zero_coupling_oracle(self):
        # delta_bar = 0 with a constant-H closure decouples (h, q) from r:
        # the depth/discharge fields must be bit-comparable with a run that
        # carries no layer at all
        from eswsim import FixedProfile
        n = 40
        grid = Grid1D.uniform(0.0, 1.0, n,
                              lambda x: gaussian_bump(x, 0.05, 0.1, 0.5))
        p = PhysicalParams(froude=1.0, delta_bar=0.0,
                           closure=FixedProfile())
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        WA, WB = uniform_state(n, d1=0.3), uniform_state(n, d1=0.0)
        for _ in range(50):
            WA, dt = step(WA, grid, p, spec)
            WB, _ = step(WB, grid, p, spec, dt_cap=dt)
        assert np.allclose(WA.h, WB.h, rtol=0, atol=1e-12)
        assert np.allclose(WA.q, WB.q, rtol=0, atol=1e-12)

    def test_state_rows_share_one_array(self):
        n = 12
        grid = Grid1D.uniform(0.0, 0.1, n)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        W, _ = step(uniform_state(n, d1=0.01), grid, params(), spec)
        assert W.hqr.shape == (3, n) and W.hqr.flags.c_contiguous
        for row in (W.h, W.q, W.r):
            assert np.shares_memory(row, W.hqr)

    def test_advance_hits_t_end_and_snapshots(self):
        n = 20
        grid = Grid1D.uniform(0.0, 0.1, n)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        run = RunState(t=0.0, step_count=0, W=uniform_state(n))
        seen = []
        run = advance(run, 0.02, grid, params(), spec,
                      snapshot_times=(0.005, 0.01),
                      on_snapshot=lambda s: seen.append(s.t))
        assert run.t == pytest.approx(0.02, abs=1e-12)
        assert len(seen) == 2
        assert seen[0] == pytest.approx(0.005, abs=1e-12)
        assert seen[1] == pytest.approx(0.01, abs=1e-12)

    def test_resumed_advance_fires_a_snapshot_due_at_its_start(self):
        # the snapshot due at the start fires on the start state, before
        # the first step, so no step is capped to zero length
        n = 20
        grid = Grid1D.uniform(0.0, 0.1, n)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        start = RunState(t=0.01, step_count=12, W=uniform_state(n))
        seen = []
        run = advance(start, 0.02, grid, params(), spec,
                      snapshot_times=(0.01, 0.015), on_snapshot=seen.append)
        assert seen[0] is start and len(seen) == 2
        assert seen[1].t == pytest.approx(0.015, abs=1e-12)
        assert seen[1].step_count > 12
        assert run.t == pytest.approx(0.02, abs=1e-12)

    def test_lake_at_rest_full_steps(self):
        n = 40
        grid = Grid1D.uniform(0.0, 2.0, n,
                              lambda x: gaussian_bump(x, 0.2, 0.1))
        h0 = 1.0 - grid.topo
        W = from_primitive_fields(h0, np.zeros(n), np.zeros(n))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=0.0))
        for _ in range(100):
            W, _ = step(W, grid, params(), spec)
        assert np.max(np.abs(W.h - h0)) < 1e-12
        assert np.max(np.abs(W.q)) < 1e-12


class FakeStep:
    """take_step(W, dt_cap) -> (W + 1, min(dt, dt_cap)) on an int W, with
    each cap recorded; raises DryCell(3) on call fail_at, and fails the
    test on call LIMIT + 1 instead of marching on."""

    LIMIT = 100

    def __init__(self, dt, fail_at=None):
        self.dt, self.fail_at, self.caps = dt, fail_at, []

    def __call__(self, W, dt_cap):
        self.caps.append(dt_cap)
        if len(self.caps) > self.LIMIT:
            pytest.fail(f"march still stepping after {self.LIMIT} steps")
        if len(self.caps) == self.fail_at:
            raise DryCell(3)
        return W + 1, min(self.dt, dt_cap)


class TestMarch:
    def test_march_advances_the_clock(self):
        fake = FakeStep(0.25)
        run = timeloop.march(RunState(0.0, 0, 0), 1.0, fake)
        assert run == RunState(1.0, 4, 4, 0.25)
        assert fake.caps == [1.0, 0.75, 0.5, 0.25]

    def test_the_cap_lands_a_step_on_each_stop(self):
        fake, seen = FakeStep(0.25), []
        run = timeloop.march(RunState(0.0, 0, 0), 0.9, fake,
                             snapshot_times=(0.1, 0.6, 2.0),
                             on_snapshot=seen.append)
        assert fake.caps[:2] == [0.1, 0.5]
        assert [(s.step_count, s.W) for s in seen] == [(1, 1), (3, 3)]
        assert [s.t for s in seen] == pytest.approx([0.1, 0.6], abs=1e-15)
        assert seen[0].dt == 0.1
        assert run.step_count == 5 and run.dt == fake.caps[-1] < 0.25
        assert run.t == pytest.approx(0.9, abs=1e-15)

    def test_a_snapshot_due_at_the_start_fires_before_the_first_step(self):
        fake, seen = FakeStep(0.25), []
        start = RunState(0.5, 7, 0)
        run = timeloop.march(start, 1.0, fake,
                             snapshot_times=(0.25, 0.5, 0.75),
                             on_snapshot=seen.append)
        assert seen[0] is start and len(seen) == 2
        assert seen[1] == RunState(0.75, 8, 1, 0.25)
        assert fake.caps == [0.25, 0.25]
        assert run == RunState(1.0, 9, 2, 0.25)

    def test_a_failure_is_stamped_with_the_state_it_started_from(self):
        fake = FakeStep(0.25, fail_at=3)
        with pytest.raises(DryCell) as info:
            timeloop.march(RunState(0.5, 7, 0), 2.0, fake)
        assert (info.value.cell, info.value.step, info.value.t) == (3, 9, 1.0)

    @pytest.mark.parametrize("t_end, times", [
        (np.nan, ()), (np.inf, ()), (-np.inf, ()), (1.0, (0.5, np.nan)),
        (1.0, (np.inf,)), (1.0, (-np.inf, 0.5))])
    def test_non_finite_stops_are_rejected_before_any_step(self, t_end,
                                                           times):
        fake, seen = FakeStep(0.25), []
        with pytest.raises(DomainError, match="finite"):
            timeloop.march(RunState(0.0, 0, 0), t_end, fake, times,
                           seen.append)
        assert fake.caps == [] and seen == []

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    def test_advance_rejects_a_non_finite_end(self, monkeypatch, t_end):
        fake = FakeStep(0.25)
        monkeypatch.setattr(timeloop, "step",
                            lambda W, *args: fake(W, args[-1]))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        with pytest.raises(DomainError):
            advance(RunState(0.0, 0, 0), t_end, Grid1D.uniform(0.0, 1.0, 4),
                    params(), spec)
        assert fake.caps == []


class TestStepDiagnostics:
    def bump_run(self):
        # supercritical inflow onto a steep bump: some star-depth Newton
        # solves fail on the first step and fall back to HLL depths
        grid = Grid1D.uniform(0.0, 2.0, 40,
                              lambda x: gaussian_bump(x, 0.3, 0.1, 1.0))
        spec = BoundarySpec(left=SupercriticalInflow(u_in=1.0, h_in=0.5))
        return RunState(0.0, 0, uniform_state(40, h0=0.5)), grid, spec

    def test_one_cell_evaluation_per_step(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("closure_factors", "jacobian_b", "nickalls_bounds",
                 "physical_flux", "_delta1_from_ue")
        for mod in (closures, hyperbolicity, riemann, scenarios, state,
                    timeloop):
            for name in names:
                if name in vars(mod):
                    monkeypatch.setattr(mod, name,
                                        counting(name, getattr(mod, name)))
        run, grid, spec = self.bump_run()
        step(run.W, grid, params(), spec)
        # delta1 once for the cell evaluation and once for friction: the
        # step computes nothing that no later phase reads
        assert calls == {**{name: 1 for name in names}, "_delta1_from_ue": 2}

    def test_dt_limiter_and_fallback_count(self):
        run, grid, spec = self.bump_run()
        p = params()
        W_ext = apply_boundaries(run.W, spec, p)
        cells = evaluate_cells(W_ext, p,
                               frozen_gradient(W_ext[1] / W_ext[0], grid.dx))
        dt, limiter = dt_of(cells, grid.dx)
        _, fan = convect(cells, grid.bed_jumps, p, grid.dx, dt)
        assert limiter == "cfl"
        assert np.count_nonzero(fan.fallback) > 0
        assert step(run.W, grid, p, spec)[1] == dt

        assert step(run.W, grid, p, spec, dt_cap=0.5 * dt)[1] == 0.5 * dt
        assert dt_of(cells, grid.dx, dt_cap=0.5 * dt) == (0.5 * dt, "cap")
        assert dt_of(cells, grid.dx, dt_cap=np.inf) == (dt, "cfl")

        seen = []
        advance(run, dt, grid, p, spec, snapshot_times=(0.5 * dt,),
                on_snapshot=lambda s: seen.append(s.dt))
        assert seen == [0.5 * dt]

        n = 10
        W = uniform_state(n, d1=0.5)
        reverse = evaluate_cells(W.hqr, p, np.full(n, -20.0))
        assert dt_of(reverse, dx=1.0)[1] == "reverse_flow"

    def test_fallback_counts_script(self):
        # tests/fallback_counts.py, shortened: its geometry at alpha = 0.3
        # is bump_run's, whose first step falls back under both solvers
        new, calls = fallback_counts.run(0.3, riemann._star_depths, steps=3)
        old, _ = fallback_counts.run(
            0.3, lambda *args: newton_star_depths(*args[:7]), steps=3)
        assert len(new) == len(old) == len(calls) == 3
        assert new[0] == old[0] > 0

    def test_step_timing_ops_script(self):
        # tests/step_timing.py --ops: the counts repeat exactly, count the
        # reductions among the ufunc calls, and leave NumPy as it was
        where, asarray = np.where, np.asarray
        ops = step_timing.step_ops(dict(n_cells=10))
        assert ops == step_timing.step_ops(dict(n_cells=10))
        assert 0 < ops["reduction"] < ops["ufunc"] and ops["function"] > 0
        assert np.where is where and np.asarray is asarray

    def test_non_finite_cell_is_named(self):
        # a NaN in r alone leaves the wave-speed bounds finite; it must
        # still be named in the step that meets it. A NaN in the first cell
        # also reaches the subcritical inflow ghosts, which must not be
        # named instead of it. The time loop stamps the step and time; a
        # step taken on its own leaves them unset
        n = 20
        grid = Grid1D.uniform(0.0, 1.0, n)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        for field, cell, step_count, t in (("h", 7, 3, 0.125),
                                           ("r", 7, 0, 0.0),
                                           ("h", 0, 1, 0.5),
                                           ("q", 0, 2, 0.25)):
            W = uniform_state(n)
            getattr(W, field)[cell] = np.nan
            run = RunState(t=t, step_count=step_count, W=W)
            with pytest.raises(NonFiniteState) as info:
                advance(run, run.t + 1.0, grid, params(), spec)
            assert (info.value.field, info.value.cell) == (field, cell)
            assert (info.value.step, info.value.t) == (step_count, t)
            assert f"cell {cell}" in str(info.value)
            assert f"step {step_count}" in str(info.value)
            with pytest.raises(NonFiniteState) as info:
                step(W, grid, params(), spec)
            assert (info.value.field, info.value.cell) == (field, cell)
            assert (info.value.step, info.value.t) == (None, None)

    @pytest.mark.parametrize("field", ["h", "q", "r"])
    def test_non_finite_cell_on_a_flat_bed(self, field):
        # a flat bed skips the topography source, a multiply by zero that
        # would carry a NaN on; the cell scan before the convection names it
        n = 20
        grid = Grid1D.uniform(0.0, 1.0, n)
        assert grid.flat_bed
        W = uniform_state(n, h0=0.5, u0=3.0, d1=0.01)
        getattr(W, field)[12] = np.nan
        spec = BoundarySpec(left=SupercriticalInflow(u_in=3.0, h_in=0.5))
        with pytest.raises(NonFiniteState) as info:
            step(W, grid, params(), spec)
        assert (info.value.field, info.value.cell) == (field, 12)

    def test_dry_cell_is_named(self):
        # a film just above H_DRY under a diverging stream: cell 0 is fed
        # by the still inflow, cell 1 drains first
        n = 10
        h0 = 1.03e-12
        W = from_primitive_fields(np.full(n, h0), np.linspace(0.0, 2.0, n),
                                  np.zeros(n))
        spec = BoundarySpec(left=SupercriticalInflow(u_in=0.0, h_in=h0))
        grid = Grid1D.uniform(0.0, 1.0, n)
        with pytest.raises(DryCell) as info:
            advance(RunState(0.25, 7, W), 1.25, grid, params(), spec)
        assert (info.value.field, info.value.cell) == ("h", 1)
        assert (info.value.step, info.value.t) == (7, 0.25)
        assert str(info.value) == ("h at or below the dry threshold in cell 1"
                                   " (step 7, t=0.25)")
        with pytest.raises(DryCell) as info:
            step(W, grid, params(), spec)
        assert (info.value.cell, info.value.step) == (1, None)

    def test_nonpositive_dt_is_named(self):
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        with pytest.raises(NonpositiveTimeStep, match="cap"):
            step(uniform_state(10), Grid1D.uniform(0.0, 1.0, 10), params(),
                 spec, dt_cap=0.0)
