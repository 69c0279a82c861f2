"""Splitting scheme: boundaries, CFL, conservation, friction step."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eswsim import (BoundarySpec, ConservedState, Grid1D, PhysicalParams,
                    RunState, SubcriticalInflow, SupercriticalInflow,
                    advance, closures, compute_dt, hyperbolicity, riemann,
                    scenarios, state, step, timeloop)
from eswsim.analytic import gaussian_bump
from eswsim.errors import DryCell, NonFiniteState, NonpositiveTimeStep
from eswsim.riemann import evaluate_cells
from eswsim.timeloop import (N_GHOST, apply_boundaries, convection_step,
                             extended_topo, friction_step, frozen_gradient)


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


def uniform_state(n, h0=2.0, u0=1.0, d1=0.0):
    return ConservedState.from_primitive_fields(
        np.full(n, h0), np.full(n, u0), np.full(n, d1))


class TestBoundaries:
    def test_supercritical_ghost(self):
        W = uniform_state(8, h0=0.7, u0=1.2)
        spec = BoundarySpec(left=SupercriticalInflow(u_in=1.0, h_in=0.5))
        ext = apply_boundaries(W, spec, params())
        assert np.all(ext.h[:N_GHOST] == 0.5)
        assert np.all(ext.q[:N_GHOST] == 0.5)
        assert np.all(ext.r[:N_GHOST] == 0.0)

    def test_subcritical_compatible_interior(self):
        W = uniform_state(8, h0=2.0, u0=1.0)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        ext = apply_boundaries(W, spec, params())
        assert ext.h[0] == pytest.approx(2.0, rel=1e-14)

    def test_subcritical_invariant_depth(self):
        # outgoing invariant u - 2*sqrt(h)/Fr: slow interior deepens the
        # ghost so the inlet pushes the flow back towards u_in
        W = uniform_state(8, h0=2.02, u0=0.99)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        ext = apply_boundaries(W, spec, params())
        assert ext.h[0] == pytest.approx((np.sqrt(2.02) + 0.005) ** 2,
                                         rel=1e-13)
        assert ext.h[0] > 2.02

    def test_outflow_copies(self):
        W = uniform_state(8)
        W = ConservedState(W.h, W.q, np.linspace(0.0, 0.7, 8))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        ext = apply_boundaries(W, spec, params())
        assert np.all(ext.r[-N_GHOST:] == 0.7)


class TestComputeDt:
    def test_cfl_bound(self):
        W = uniform_state(10)
        dt, _ = compute_dt(evaluate_cells(W, params()), dx=0.01,
                           cfl_number=0.9)
        # fastest Nickalls bound ~2.48 for (h=2, u=1, Fr=1)
        assert dt == pytest.approx(0.9 * 0.01 / (2 * 2.4789), rel=1e-3)

    def test_reverse_flow_cap(self):
        # strongly decelerated layer: f2 < 0 caps dt at -delta1^2/(4 f2 H)
        n = 10
        W = uniform_state(n, d1=0.5)
        dudx = np.full(n, -20.0)  # Lambda1 = -5 -> H ~ 16.5, f2 < 0
        dt, _ = compute_dt(evaluate_cells(W, params(), dudx), dx=1.0,
                           cfl_number=0.9)
        from eswsim.closures import closure_factors
        H, f2 = closure_factors(params().closure, np.full(n, 0.25 * -20.0))
        cap = -0.25 / (4.0 * f2[0] * H[0])
        assert dt <= cap + 1e-15

    def test_dt_max_respected(self):
        W = uniform_state(10)
        dt, _ = compute_dt(evaluate_cells(W, params()), dx=0.01,
                           cfl_number=0.9, dt_max=1e-5)
        assert dt == 1e-5


class TestConvectionStep:
    def test_uniform_flat_is_steady(self):
        n = 16
        W = uniform_state(n + 2 * N_GHOST)
        topo = np.zeros(n + 2 * N_GHOST)
        W2, _ = convection_step(evaluate_cells(W, params()), topo, params(),
                                0.01, 1e-3)
        assert np.allclose(W2.h, 2.0, atol=1e-15)
        assert np.allclose(W2.q, 2.0, atol=1e-15)

    def test_mass_conservation_interior(self):
        # flat topography: total mass change equals boundary flux difference
        rng = np.random.default_rng(41)
        n = 64
        W_int = ConservedState.from_primitive_fields(
            rng.uniform(1.5, 2.5, n), rng.uniform(0.8, 1.2, n),
            rng.uniform(0.0, 0.4, n))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        W_ext = apply_boundaries(W_int, spec, params())
        topo = np.zeros(n + 2 * N_GHOST)
        dt, dx = 1e-4, 0.01
        W2, fan = convection_step(evaluate_cells(W_ext, params()), topo,
                                  params(), dx, dt)
        dM = np.sum(W2.h - W_int.h) * dx
        boundary = -dt * (fan.F_left[0][-1] - fan.F_right[0][0])
        assert dM == pytest.approx(boundary, abs=1e-14)

    def test_lake_at_rest_over_bump(self):
        n = 50
        grid = Grid1D.uniform(0.0, 2.0, n,
                              lambda x: gaussian_bump(x, 0.2, 0.1))
        h = 1.0 - grid.topo
        W = ConservedState.from_primitive_fields(h, np.zeros(n), np.zeros(n))
        W_ext = ConservedState(
            h=np.concatenate([[h[0]] * N_GHOST, h, [h[-1]] * N_GHOST]),
            q=np.zeros(n + 4), r=np.zeros(n + 4))
        topo = extended_topo(grid)
        W2, _ = convection_step(evaluate_cells(W_ext, params()), topo,
                                params(), grid.dx, 1e-3)
        assert np.max(np.abs(W2.h - h)) < 1e-13
        assert np.max(np.abs(W2.q)) < 1e-13

    def test_dry_cell_raises(self):
        # thin film with diverging velocity drains below the dry threshold
        n = 8
        m = n + 2 * N_GHOST
        h = np.full(m, 1e-10)
        u = np.linspace(0.0, 2.0, m)
        W = ConservedState.from_primitive_fields(h, u, np.zeros(m))
        topo = np.zeros(m)
        with pytest.raises(DryCell):
            convection_step(evaluate_cells(W, params()), topo, params(),
                            1e-4, 1.0)


class TestFrictionStep:
    def test_growth_closed_form(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        W2 = friction_step(W, 0.01, params(), np.array([0.5716]))
        assert W2.r[0] == pytest.approx(0.5 * (1 + np.sqrt(1.022864)),
                                        abs=1e-6)

    def test_separation_neutral(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.3])
        W2 = friction_step(W, 0.01, params(), np.array([0.0]))
        assert W2.r[0] == pytest.approx(0.3, abs=1e-15)

    def test_h_q_untouched(self):
        W = ConservedState(h=[1.7], q=[2.1], r=[0.2])
        W2 = friction_step(W, 0.05, params(), np.array([0.5]))
        assert W2.h[0] == 1.7 and W2.q[0] == 2.1

    @given(st.floats(0.0, 2.0), st.floats(-0.3, 0.8), st.floats(1e-6, 0.1))
    @settings(max_examples=300, deadline=None)
    def test_delta1_stays_nonnegative(self, d1, f2H, dt):
        # admissible inputs: dt below the reverse-flow cap when f2H < 0
        if f2H < 0.0:
            dt = min(dt, 0.999 * d1 * d1 / (4.0 * abs(f2H))) if d1 > 0 else 0.0
            if dt <= 0.0:
                return
        W = ConservedState(h=[2.0], q=[2.0], r=[d1 * 1.0])
        W2 = friction_step(W, dt, params(), np.array([f2H]))
        assert W2.r[0] >= 0.0

    def test_growth_matches_von_karman_ode(self):
        # d(delta1^2)/dt = 2*f2*H at fixed u_e: exact solution sqrt(2 f2H t)
        f2H = 0.5716216216216218
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        t, dt = 0.0, 1e-5
        for _ in range(2000):
            W = friction_step(W, dt, params(), np.array([f2H]))
            t += dt
        assert W.r[0] == pytest.approx(np.sqrt(2 * f2H * t), rel=1e-3)


class TestStepAndAdvance:
    def test_uniform_inviscid_is_exactly_steady(self):
        n = 32
        grid = Grid1D.uniform(0.0, 1.0, n)
        p = params(db=0.0)
        W = uniform_state(n)
        run = RunState(t=0.0, step_count=0, W=W)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        run = step(run, grid, p, spec)
        assert np.allclose(run.W.h, 2.0, atol=1e-15)
        assert np.allclose(run.W.q, 2.0, atol=1e-15)

    def test_inviscid_matches_zero_coupling_oracle(self):
        # delta_bar = 0 with a constant-H closure decouples (h, q) from r:
        # the depth/discharge fields must be bit-comparable with a run that
        # carries no layer at all
        from eswsim import BlasiusConstant
        n = 40
        grid = Grid1D.uniform(0.0, 1.0, n,
                              lambda x: gaussian_bump(x, 0.05, 0.1, 0.5))
        p = PhysicalParams(froude=1.0, delta_bar=0.0,
                           closure=BlasiusConstant())
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        runA = RunState(t=0.0, step_count=0, W=uniform_state(n, d1=0.3))
        runB = RunState(t=0.0, step_count=0, W=uniform_state(n, d1=0.0))
        for _ in range(50):
            runA = step(runA, grid, p, spec)
            runB = step(runB, grid, p, spec, dt_cap=runA.diagnostics["last_dt"])
        assert np.allclose(runA.W.h, runB.W.h, rtol=0, atol=1e-12)
        assert np.allclose(runA.W.q, runB.W.q, rtol=0, atol=1e-12)

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

    def test_lake_at_rest_full_steps(self):
        n = 40
        grid = Grid1D.uniform(0.0, 2.0, n,
                              lambda x: gaussian_bump(x, 0.2, 0.1))
        h0 = 1.0 - grid.topo
        W = ConservedState.from_primitive_fields(h0, np.zeros(n), np.zeros(n))
        run = RunState(t=0.0, step_count=0, W=W)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=0.0))
        for _ in range(100):
            run = step(run, grid, params(), spec)
        assert np.max(np.abs(run.W.h - h0)) < 1e-12
        assert np.max(np.abs(run.W.q)) < 1e-12


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

        names = ("closure_factors", "jacobian_coeffs", "nickalls_bounds",
                 "physical_flux")
        for mod in (closures, hyperbolicity, riemann, scenarios, state,
                    timeloop):
            for name in names:
                if name in vars(mod):
                    monkeypatch.setattr(mod, name,
                                        counting(name, getattr(mod, name)))
        run, grid, spec = self.bump_run()
        step(run, grid, params(), spec)
        assert calls == {name: 1 for name in names}

    def test_dt_limiter_and_fallback_count(self):
        run, grid, spec = self.bump_run()
        p = params()
        W_ext = apply_boundaries(run.W, spec, p)
        cells = evaluate_cells(W_ext, p, frozen_gradient(W_ext, grid.dx))
        dt, limiter = compute_dt(cells, grid.dx)
        _, fan = convection_step(cells, extended_topo(grid), p, grid.dx, dt)
        after = step(run, grid, p, spec)
        assert limiter == after.diagnostics["dt_limiter"] == "cfl"
        assert after.diagnostics["last_dt"] == dt
        assert after.diagnostics["n_fallback"] == \
            np.count_nonzero(fan.fallback) > 0

        capped = step(run, grid, p, spec, dt_max=0.5 * dt)
        assert capped.diagnostics["dt_limiter"] == "dt_max"

        seen = []
        advance(run, dt, grid, p, spec, snapshot_times=(0.5 * dt,),
                on_snapshot=lambda s: seen.append(s.diagnostics["dt_limiter"]))
        assert seen == ["cap"]

        n = 10
        W = uniform_state(n, d1=0.5)
        reverse = evaluate_cells(W, p, np.full(n, -20.0))
        assert compute_dt(reverse, dx=1.0)[1] == "reverse_flow"

    def test_non_finite_cell_is_named(self):
        n = 20
        W = uniform_state(n)
        W.h[7] = np.nan
        run = RunState(t=0.125, step_count=3, W=W)
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        with pytest.raises(NonFiniteState) as info:
            step(run, Grid1D.uniform(0.0, 1.0, n), params(), spec)
        assert (info.value.field, info.value.cell) == ("h", 7)
        assert (info.value.step, info.value.t) == (3, 0.125)
        assert "cell 7" in str(info.value) and "step 3" in str(info.value)

    def test_nonpositive_dt_is_named(self):
        run = RunState(t=0.0, step_count=0, W=uniform_state(10))
        spec = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
        with pytest.raises(NonpositiveTimeStep, match="cap"):
            step(run, Grid1D.uniform(0.0, 1.0, 10), params(), spec,
                 dt_cap=0.0)
