"""Multilayer reference solver: degenerations, oracles, diagnostics."""

import math
import warnings

import numpy as np
import pytest

from eswsim import (Grid1D, LayerGrid, MlswState, PhysicalParams, RunState,
                    SubcriticalInflow, SupercriticalInflow, mlsw_diagnostics,
                    mlsw_step)
from eswsim import mlsw, scenarios
from eswsim.analytic import gaussian_bump
from eswsim.errors import (DegenerateProfile, DomainError, DryCell,
                           NonFiniteState, NonpositiveTimeStep,
                           TridiagonalFailure)
from eswsim.mlsw import _ghosted, _thomas
from eswsim.state import H_DRY
from eswsim.timeloop import march


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


class TestLayerGrid:
    def test_fractions_sum_to_one(self):
        for N in (1, 5, 100):
            ell = LayerGrid(N).fractions
            assert ell.size == N
            assert np.all(ell > 0)
            assert abs(np.sum(ell) - 1.0) < 1e-14

    def test_bottom_refinement(self):
        ell = LayerGrid(100).fractions
        assert np.all(np.diff(ell) > 0)  # thin layers at the bottom
        assert ell[0] < 1e-5

    def test_fractions_built_once_and_read_only(self):
        for N in (1, 2, 100):
            layers = LayerGrid(N)
            ell = layers.fractions
            assert layers.fractions is ell
            assert not ell.flags.writeable
            with pytest.raises(ValueError):
                ell[0] = 0.5
            assert np.array_equal(ell.view(np.uint64),
                                  np.diff(layers.interfaces).view(np.uint64))
        # equal grids stay equal and hashable with the cache filled
        assert LayerGrid(5) == LayerGrid(5)
        assert hash(LayerGrid(5)) == hash(LayerGrid(5))


class TestThomas:
    @staticmethod
    def column_dominant(rng, N, m):
        """Nonsymmetric (lower, diag, upper) with nonpositive off-diagonals
        and positive column sums, the kind mlsw_step assembles."""
        lower = -rng.uniform(0.0, 1.0, (N - 1, m))
        upper = -rng.uniform(0.0, 1.0, (N - 1, m))
        diag = rng.uniform(0.1, 1.0, (N, m))
        diag[:-1] -= lower
        diag[1:] -= upper
        return lower, diag, upper

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(61)
        m = 7
        for N in (1, 2, 100):
            lower, diag, upper = self.column_dominant(rng, N, m)
            assert N == 1 or not np.array_equal(lower, upper)
            rhs = rng.normal(size=(N, m))
            got = _thomas(lower, diag, upper, rhs)
            assert got.shape == (N, m)
            for j in range(m):
                A = (np.diag(diag[:, j]) + np.diag(upper[:, j], 1)
                     + np.diag(lower[:, j], -1))
                ref = np.linalg.solve(A, rhs[:, j])
                assert np.allclose(got[:, j], ref, rtol=1e-12, atol=0)

    @staticmethod
    def reference_thomas(lower, diag, upper, rhs):
        """The solve as a plain loop over fresh arrays, in the expressions
        of the first Thomas solve: c = upper/p, d = (rhs - lower*d_prev)/p,
        then back substitution."""
        n = diag.shape[0]
        c, d, x = np.zeros_like(rhs), np.zeros_like(rhs), np.zeros_like(rhs)
        for i in range(n):
            p = diag[i] - lower[i - 1] * c[i - 1] if i > 0 else diag[0]
            if i < n - 1:
                c[i] = upper[i] / p
            d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / p if i > 0 \
                else rhs[0] / p
        x[-1] = d[-1]
        for i in range(n - 2, -1, -1):
            x[i] = d[i] - c[i] * x[i + 1]
        return x

    @pytest.mark.parametrize("N", [1, 2, 3, 100])
    @pytest.mark.parametrize("m", [1, 7])
    def test_matches_reference_loop_bit_for_bit(self, N, m):
        rng = np.random.default_rng(67 + N + m)
        lower, diag, upper = self.column_dominant(rng, N, m)
        rhs = rng.normal(size=(N, m))
        inputs = [a.copy() for a in (lower, diag, upper, rhs)]
        want = self.reference_thomas(lower, diag, upper, rhs).view(np.uint64)
        got = _thomas(lower, diag, upper, rhs)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want)
        # the inputs are left alone
        for a, b in zip((lower, diag, upper, rhs), inputs):
            assert np.array_equal(a, b)
        # column views of wider arrays, as mlsw_step passes them
        wide = [np.pad(a, ((0, 0), (1, 2)), constant_values=np.nan)
                for a in (lower, diag, upper, rhs)]
        got = _thomas(*(a[:, 1:-2] for a in wide))
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want)

    @pytest.mark.parametrize("N", [1, 2, 100])
    def test_lower_is_upper_gives_the_symmetric_solve(self, N):
        rng = np.random.default_rng(71 + N)
        off = -rng.uniform(0.0, 1.0, (N - 1, 7))
        diag = rng.uniform(0.1, 1.0, (N, 7))
        diag[:-1] -= off
        diag[1:] -= off
        rhs = rng.normal(size=(N, 7))
        # with lower = upper = off, the reference loop's expressions are
        # those of the first, symmetric Thomas solve
        want = self.reference_thomas(off, diag, off, rhs)
        got = _thomas(off, diag, off, rhs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_pivot_raises_without_warning(self):
        rhs = np.ones((3, 2))
        first = np.array([[0.0, 1.0], [3.0, 3.0], [3.0, 3.0]])
        # the second row's pivot is 1 - 1*1/1 = 0 in column 1
        later = np.array([[2.0, 1.0], [3.0, 1.0], [3.0, 3.0]])
        off = np.array([[-1.0, -1.0], [-1.0, -1.0]])
        # and 1 - 2*0.5/1 = 0 with different couplings below and above
        lower = np.array([[-1.0, -2.0], [-1.0, -1.0]])
        upper = np.array([[-1.0, -0.5], [-1.0, -1.0]])
        for args in ((off, first, off), (off, later, off),
                     (lower, later, upper)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TridiagonalFailure):
                    _thomas(*args, rhs)


class TestComputeDt:
    """mlsw_compute_dt on the ghosted cell speeds that mlsw_step hands it."""

    layers, grid = LayerGrid(5), Grid1D.uniform(0.0, 1.0, 10)

    def step(self, state, left=SubcriticalInflow(u_in=1.0), dt_cap=np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return mlsw_step(state, self.layers, params(), self.grid, left,
                             dt_cap)

    def test_non_finite_cell_is_named(self):
        # the subcritical inflow ghost inherits a NaN of cell 0, which is
        # named as cell 0 all the same
        for field, value, cell in (("h", np.nan, 4), ("u", np.nan, 4),
                                   ("h", np.inf, 4), ("h", np.nan, 0),
                                   ("u", np.nan, 0)):
            state = MlswState.uniform(self.layers, 10, 2.0, 1.0)
            getattr(state, field)[..., cell] = value
            with pytest.raises(NonFiniteState) as info:
                self.step(state)
            assert (info.value.field, info.value.cell) == (field, cell)

    def test_non_finite_inflow_ghost_alone_is_named(self):
        for left, field in ((SupercriticalInflow(u_in=1.0, h_in=np.nan), "h"),
                            (SupercriticalInflow(u_in=np.inf, h_in=2.0), "u")):
            state = MlswState.uniform(self.layers, 10, 2.0, 1.0)
            with pytest.raises(NonFiniteState) as info:
                self.step(state, left)
            assert (info.value.field, info.value.cell) == (field, -1)

    def test_opposite_infinities_in_the_first_cell_are_named(self):
        # their depth average is inf - inf: the speed scan names the cell,
        # with no NumPy warning first
        for left in (SubcriticalInflow(u_in=1.0),
                     SupercriticalInflow(u_in=3.0, h_in=0.5)):
            state = MlswState.uniform(self.layers, 10, 2.0, 1.0)
            state.u[1, 0], state.u[3, 0] = np.inf, -np.inf
            with pytest.raises(NonFiniteState) as info:
                self.step(state, left)
            assert (info.value.field, info.value.cell) == ("u", 0)

    def test_negative_or_minus_infinite_depth_is_named(self):
        # such a depth, whose sqrt the cell speeds take (and, in cell 0, the
        # subcritical inflow ghost), is named with no NumPy warning first
        for left in (SubcriticalInflow(u_in=1.0),
                     SupercriticalInflow(u_in=3.0, h_in=0.5)):
            for value, error in ((-1.0, DryCell), (-1e-300, DryCell),
                                 (-np.inf, NonFiniteState)):
                for cell in (0, 4, 9):
                    state = MlswState.uniform(self.layers, 10, 2.0, 1.0)
                    state.h[cell] = value
                    with pytest.raises(error) as info:
                        self.step(state, left)
                    assert (info.value.field, info.value.cell) == ("h", cell)

    def test_nonpositive_time_step(self):
        state = MlswState.uniform(self.layers, 10, 2.0, 1.0)
        with pytest.raises(NonpositiveTimeStep):
            self.step(state, dt_cap=0.0)


class TestMarch:
    def test_resumed_march_fires_a_snapshot_due_at_its_start(self):
        # the snapshot due at the start fires on the start state, before
        # the first step, so no step is capped to zero length
        _, initial, take_step, _ = scenarios.model(scenarios.ScenarioConfig(
            scenario="MlswCompare", x_max=1.0, n_cells=10, n_layers=5,
            bump_alpha=0.0))
        start = RunState(0.01, 12, initial.W)
        seen = []
        run = march(start, 0.02, take_step, snapshot_times=(0.01, 0.015),
                    on_snapshot=seen.append)
        assert seen[0] is start and len(seen) == 2
        assert seen[1].t == pytest.approx(0.015, abs=1e-12)
        assert seen[1].step_count > 12
        assert run.t == pytest.approx(0.02, abs=1e-12)


def reference_transport(state, layers, dt, params, grid, left):
    """The explicit part of mlsw_step as it was before its in-place
    rewrite, frozen as the bit-for-bit reference for h: (h_new, the layer
    momenta after transport and pressure, the exchange G through the N - 1
    inner layer interfaces)."""
    dx = grid.dx
    fr2 = params.froude**2
    ell = layers.fractions[:, None]
    h, u = _ghosted(state, left, layers, params)
    topo = np.concatenate([[grid.topo[0]], grid.topo, [grid.topo[-1]]])
    eta = h + topo
    hu = ell * h[None, :] * u             # (N, n+2)

    # interface wave speed (local Lax-Friedrichs)
    cell_speed = np.max(np.abs(u), axis=0) + np.sqrt(h) / params.froude
    s = np.maximum(cell_speed[:-1], cell_speed[1:])   # (n+1,)

    jump_eta = eta[1:] - eta[:-1]
    flux_mass = 0.5 * (hu[:, :-1] + hu[:, 1:]) \
        - 0.5 * s[None, :] * ell * jump_eta[None, :]
    flux_mom = 0.5 * (hu[:, :-1] * u[:, :-1] + hu[:, 1:] * u[:, 1:]) \
        - 0.5 * s[None, :] * (hu[:, 1:] - hu[:, :-1])
    flux_total = np.sum(flux_mass, axis=0)

    div_mass = (flux_mass[:, 1:] - flux_mass[:, :-1]) / dx      # (N, n)
    div_total = (flux_total[1:] - flux_total[:-1]) / dx          # (n,)
    div_mom = (flux_mom[:, 1:] - flux_mom[:, :-1]) / dx

    h_new = state.h - dt * div_total
    if np.any(h_new <= 0.0):
        raise DomainError("total depth became nonpositive in transport")

    # cumulative mass exchange through layer interfaces (top one vanishes)
    G = np.cumsum(div_mass - ell * div_total[None, :], axis=0)[:-1]

    # central free-surface slope for the hydrostatic pressure term
    deta_dx = (eta[2:] - eta[:-2]) / (2.0 * dx)
    h_alpha = ell * state.h[None, :]
    hu_star = (h_alpha * state.u - dt * div_mom
               - dt * h_alpha * deta_dx[None, :] / fr2)
    return h_new, hu_star, G


def friction_coupling(h_alpha_new, params, dt):
    """(c_bot, c): the implicit friction's bed coefficient per cell and its
    coupling of layers a, a + 1 per inner interface."""
    nu = params.delta_bar**2
    return (2.0 * nu * dt / h_alpha_new[0],
            2.0 * nu * dt / (h_alpha_new[1:] + h_alpha_new[:-1]))


def explicit_exchange_step(state, layers, dt, params, grid, left):
    """The step with the upwind exchange on the old velocities, explicit,
    as mlsw_step took it until the exchange joined the implicit solve (in
    the expressions of that step's frozen reference)."""
    h_new, hu_star, G = reference_transport(state, layers, dt, params, grid,
                                            left)
    u_up = np.where(G >= 0.0, state.u[1:], state.u[:-1])
    m = np.zeros_like(state.u)
    m[:-1] = u_up * G
    dm = m.copy()
    dm[1:] -= m[:-1]
    h_alpha_new = layers.fractions[:, None] * h_new[None, :]
    rhs = h_alpha_new * ((hu_star + dt * dm) / h_alpha_new)
    c_bot, c = friction_coupling(h_alpha_new, params, dt)
    diag = h_alpha_new.copy()
    diag[0] += c_bot
    diag[:-1] += c
    diag[1:] += c
    return _thomas(-c, diag, -c, rhs)


def assembled_system(state, layers, dt, params, grid, left):
    """(h_new, A, rhs, G): the implicit exchange and friction system of
    every cell j, A[j] @ u_new[:, j] = rhs[:, j], assembled dense from the
    scheme's definition, coefficient by coefficient."""
    h_new, rhs, G = reference_transport(state, layers, dt, params, grid,
                                        left)
    N, n = state.u.shape
    h_alpha_new = layers.fractions[:, None] * h_new[None, :]
    c_bot, c = friction_coupling(h_alpha_new, params, dt)
    A = np.zeros((n, N, N))
    for j in range(n):
        A[j] = np.diag(h_alpha_new[:, j])
        A[j, 0, 0] += c_bot[j]
        for k in range(N - 1):
            # friction between layers k and k + 1
            A[j, k, k] += c[k, j]
            A[j, k + 1, k + 1] += c[k, j]
            A[j, k, k + 1] -= c[k, j]
            A[j, k + 1, k] -= c[k, j]
            # exchange m = G*u_up through interface k + 1/2, with the new
            # velocity of the layer the flux leaves (a downward flux,
            # G >= 0, leaves the upper one): layer k gains dt*m, layer
            # k + 1 loses it
            up = k + 1 if G[k, j] >= 0.0 else k
            A[j, k, up] -= dt * G[k, j]
            A[j, k + 1, up] += dt * G[k, j]
    return h_new, A, rhs, G


def bump_setup(fr, db, N, inflow, u0, alpha=0.2, n=40, seed=3):
    """A perturbed uniform flow over a bump, so that every interface has a
    depth and velocity jump and the exchange G takes both signs."""
    grid = Grid1D.uniform(0.0, 2.0, n,
                          lambda x: gaussian_bump(x, alpha, 0.1, 1.0))
    rng = np.random.default_rng(seed)
    state = MlswState(h=2.0 - grid.topo + 0.01 * rng.standard_normal(n),
                      u=u0 * (1.0 + 0.05 * rng.standard_normal((N, n))))
    left = SupercriticalInflow(u_in=u0, h_in=2.0) if inflow == "super" \
        else SubcriticalInflow(u_in=u0)
    return grid, params(db=db, fr=fr), LayerGrid(N), state, left


class TestMlswStepMatchesReference:
    """mlsw_step gives the frozen transport's bits in h, and in u the
    solution of the implicit exchange and friction system."""

    CASES = [(0.7, 1e-3, 10, "sub", 1.0), (0.9, 1e-3, 10, "super", 1.0),
             (1.3, 1e-3, 10, "sub", 1.0), (2.5, 1e-3, 10, "super", 1.0),
             (1.0, 0.0, 17, "sub", 1.0), (1.0, 0.05, 40, "super", 1.0),
             (1.0, 1e-3, 1, "super", 1.0), (1.0, 1e-3, 2, "sub", 1.0),
             (0.9, 1e-3, 8, "sub", -0.5), (1.0, 1e-3, 100, "sub", 1.0)]

    @staticmethod
    def bits(a):
        return a.view(np.uint64)

    def check_step(self, state, layers, dt_cap, p, grid, left):
        """One step of at most dt_cap against the assembled system; returns
        it and G."""
        before = state.h.copy(), state.u.copy()
        got, dt = mlsw_step(state, layers, p, grid, left, dt_cap)
        assert dt == dt_cap or dt_cap == np.inf
        h_new, A, rhs, G = assembled_system(state, layers, dt, p, grid,
                                            left)
        assert np.array_equal(self.bits(got.h), self.bits(h_new))
        want = np.stack([np.linalg.solve(A[j], rhs[:, j])
                         for j in range(grid.n_cells)], axis=1)
        assert np.allclose(got.u, want, rtol=1e-12, atol=0)
        # the work arrays are the step's own, never its input
        assert np.array_equal(state.h, before[0])
        assert np.array_equal(state.u, before[1])
        return got, G

    @pytest.mark.parametrize("fr, db, N, inflow, u0", CASES)
    def test_steps_match_bit_for_bit(self, fr, db, N, inflow, u0):
        grid, p, layers, state, left = bump_setup(fr, db, N, inflow, u0)
        signs = set()
        for _ in range(8):
            state, G = self.check_step(state, layers, np.inf, p, grid, left)
            signs |= set(np.sign(G).ravel().tolist())
        if N > 1:   # the exchange upwinds both ways
            assert {-1.0, 1.0} <= signs

    def test_uniform_state_matches(self):
        # lake-at-rest and uniform flow: zero fluxes and exchange
        for u0 in (0.0, 1.0):
            grid, p, layers, state, left = bump_setup(1.3, 1e-3, 6, "super",
                                                      u0, alpha=0.0)
            state = MlswState.uniform(layers, grid.n_cells, 2.0, u0)
            _, G = self.check_step(state, layers, 1e-3, p, grid, left)
            assert not G.any()

    @pytest.mark.parametrize("fr, db, N, inflow, u0",
                             CASES[:5] + CASES[7:9])
    def test_explicit_exchange_agrees_to_second_order(self, fr, db, N,
                                                      inflow, u0):
        # the implicit exchange differs from the explicit one by
        # dt*G*(u_new - u_old) per step, O(dt^2). Left out: one layer (no
        # exchange), and the strong friction and N = 100 cases, whose bed
        # layers relax in a time h_alpha^2/nu below these dt, so that
        # u_new - u_old is O(1) there and the gap only O(dt)
        grid, p, layers, state, left = bump_setup(fr, db, N, inflow, u0)
        gaps = []
        for dt in (1e-3, 1e-4):
            got, dt_got = mlsw_step(state, layers, p, grid, left, dt)
            assert dt_got == dt
            old = explicit_exchange_step(state, layers, dt, p, grid, left)
            gaps.append(np.max(np.abs(got.u - old)))
        order = math.log10(gaps[0] / gaps[1])
        assert 1.8 < order < 2.2

    @pytest.mark.parametrize("fr, db, N, inflow, u0", CASES)
    def test_assembled_matrix_is_an_m_matrix(self, fr, db, N, inflow, u0,
                                             monkeypatch):
        # the system mlsw_step hands to _thomas: off-diagonals <= 0, and
        # each column sums to h_alpha_new, plus c_bot in the bed row
        grid, p, layers, state, left = bump_setup(fr, db, N, inflow, u0)
        seen = []
        monkeypatch.setattr(mlsw, "_thomas",
                            lambda *args: seen.append(args) or _thomas(*args))
        for _ in range(4):
            state_new, dt = mlsw_step(state, layers, p, grid, left)
            lower, diag, upper, _ = seen.pop()
            assert (lower <= 0.0).all() and (upper <= 0.0).all()
            h_alpha_new = layers.fractions[:, None] * state_new.h[None, :]
            c_bot, _ = friction_coupling(h_alpha_new, p, dt)
            want = h_alpha_new.copy()
            want[0] += c_bot
            column = diag.copy()
            column[1:] += upper
            column[:-1] += lower
            # to the rounding of the sums, whose largest term is diag
            eps = np.finfo(float).eps
            assert (np.abs(column - want) <= 8.0 * eps * diag).all()
            state = state_new


class TestTransportFailure:
    def test_first_nonpositive_cell_is_named(self, monkeypatch):
        grid, p, layers, _, left = bump_setup(1.0, 1e-3, 10, "super", 1.0,
                                              alpha=0.5, n=30)
        state = MlswState.uniform(layers, grid.n_cells, 2.0, 1.0)
        # a step of 100 times the CFL step
        monkeypatch.setattr(mlsw, "CFL_NUMBER", 100.0 * mlsw.CFL_NUMBER)
        # the total-depth update by hand, from the layer-summed mass flux
        h, u = _ghosted(state, left, layers, p)
        eta = h + np.concatenate([[grid.topo[0]], grid.topo,
                                  [grid.topo[-1]]])
        speed = np.max(np.abs(u), axis=0) + np.sqrt(h)
        dt = mlsw.CFL_NUMBER * grid.dx / speed.max()
        s = np.maximum(speed[:-1], speed[1:])
        hU = h * np.sum(layers.fractions[:, None] * u, axis=0)
        F = 0.5 * (hU[:-1] + hU[1:]) - 0.5 * s * (eta[1:] - eta[:-1])
        h_new = state.h - dt / grid.dx * (F[1:] - F[:-1])
        first = int(np.flatnonzero(h_new <= H_DRY)[0])
        assert h_new.min() < -0.1    # far from the sign change
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DryCell) as info:
                mlsw_step(state, layers, p, grid, left)
        exc = info.value
        assert (exc.field, exc.cell, exc.step) == ("h", first, None)
        assert str(exc) == f"h at or below the dry threshold in cell {first}"


class TestTransportSum:
    def test_every_cell_of_every_step(self, monkeypatch, tmp_path):
        # the Rusanov per-cell sum dt*(s(i-1/2) + s(i+1/2))/(2 dx) stays
        # within the CFL number in every cell, the first included, whose
        # left interface also reads the inflow ghost: on a flat run the
        # ghost is faster than every cell in its first steps
        config = scenarios.ScenarioConfig(
            scenario="MlswCompare", x_max=2.0, n_cells=40, n_layers=10,
            bump_alpha=0.0, t_end=0.3)
        real_step, sums, widest = scenarios.mlsw_step, [], []

        def checking(state, layers, p, grid, left, dt_cap, work=None):
            h, u = _ghosted(state, left, layers, p)
            speed = np.max(np.abs(u), axis=0) + np.sqrt(h) / p.froude
            s = np.maximum(speed[:-1], speed[1:])
            new, dt = real_step(state, layers, p, grid, left, dt_cap, work)
            sums.append(dt * (s[:-1] + s[1:]) / (2.0 * grid.dx))
            widest.append(dt * s.max() / grid.dx)
            return new, dt

        monkeypatch.setattr(scenarios, "mlsw_step", checking)
        scenarios.run_scenario(config, tmp_path)
        sums = np.array(sums)
        assert sums.shape == (17, 40)
        assert np.all(sums <= mlsw.CFL_NUMBER * (1.0 + 4e-16))
        # and no step is shorter than the bound, but the last, cut short
        assert np.allclose(widest[:-1], mlsw.CFL_NUMBER, rtol=1e-15, atol=0)


class TestWorkspace:
    """The MlswWork that scenarios.model builds once per run: every step
    writes into it, and only the returned state is new."""

    @staticmethod
    def case(alpha):
        """(config, layers, params, grid, inflow) of a small flat or bump
        run."""
        config = scenarios.ScenarioConfig(
            scenario="MlswCompare", x_max=2.0, n_cells=40, n_layers=12,
            bump_alpha=alpha, t_end=0.2)
        return (config, LayerGrid(config.n_layers), config.physical_params(),
                config.grid(), config.boundary_spec().left)

    @staticmethod
    def bits(a):
        return a.view(np.uint64).copy()

    @pytest.mark.parametrize("alpha", [0.0, 0.05], ids=["flat", "bump"])
    def test_held_states_keep_their_bits(self, alpha):
        config, layers, p, grid, left = self.case(alpha)
        work = mlsw.MlswWork(config.n_layers, grid.n_cells)
        # h, the block of the six (N, n + 2) buffers, and _thomas's pivot,
        # c and spare zero row
        pivot, _, U, _, _, _, C = work.thomas_args[4]
        arrays = (work.h, work.u.base, pivot, C[0].base, U[-1])
        held, state = [], scenarios.initial_state(config).W
        for _ in range(12):
            state, _ = mlsw_step(state, layers, p, grid, left, np.inf, work)
            held.append((state, self.bits(state.h), self.bits(state.u)))
        for state, h, u in held:
            assert np.array_equal(self.bits(state.h), h)
            assert np.array_equal(self.bits(state.u), u)
            assert not any(np.shares_memory(a, b) for a in (state.h, state.u)
                           for b in arrays)

    @pytest.mark.parametrize("alpha", [0.0, 0.05], ids=["flat", "bump"])
    def test_run_matches_one_off_steps_bit_for_bit(self, alpha):
        config, layers, p, grid, left = self.case(alpha)
        _, start, take_step, _ = scenarios.model(config)
        dts = []

        def both(W, dt_cap):
            got, dt = take_step(W, dt_cap)
            want, dt_want = mlsw_step(W, layers, p, grid, left, dt_cap)
            dts.append(dt)
            assert dt == dt_want
            assert np.array_equal(self.bits(got.h), self.bits(want.h))
            assert np.array_equal(self.bits(got.u), self.bits(want.u))
            return got, dt

        run = march(start, config.t_end, both)
        assert len(dts) == run.step_count > 10

    def test_zero_pivot_raises_through_kept_rows(self):
        # TestThomas's zero-pivot systems, solved on a workspace's rows
        rhs = np.ones((3, 2))
        first = np.array([[0.0, 1.0], [3.0, 3.0], [3.0, 3.0]])
        later = np.array([[2.0, 1.0], [3.0, 1.0], [3.0, 3.0]])
        off = np.array([[-1.0, -1.0], [-1.0, -1.0]])
        lower = np.array([[-1.0, -2.0], [-1.0, -1.0]])
        upper = np.array([[-1.0, -0.5], [-1.0, -1.0]])
        args = mlsw.MlswWork(3, 2).thomas_args
        for system in ((off, first, off, rhs), (off, later, off, rhs),
                       (lower, later, upper, rhs)):
            for view, value in zip(args, system):
                np.copyto(view, value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TridiagonalFailure):
                    _thomas(*args)
        # after the failures the kept rows still give a plain call's bits
        rng = np.random.default_rng(5)
        system = (*TestThomas.column_dominant(rng, 3, 2), rhs)
        for view, value in zip(args, system):
            np.copyto(view, value)
        want = _thomas(*system)
        assert np.array_equal(self.bits(_thomas(*args)), self.bits(want))


class TestSingleLayerDegeneration:
    def test_matches_scalar_sw_with_linear_friction(self):
        # independent scalar oracle: Rusanov shallow water + implicit
        # linear bottom drag 2*delta_bar^2*u/h
        n = 40
        grid = Grid1D.uniform(0.0, 2.0, n)
        layers = LayerGrid(1)
        p = params()
        rng = np.random.default_rng(53)
        h = rng.uniform(1.5, 2.5, n)
        u = rng.uniform(0.8, 1.2, n)
        state = MlswState(h=h.copy(), u=u[None, :].copy())
        left = SupercriticalInflow(u_in=1.0, h_in=2.0)

        def oracle(h, u, dt, dx):
            hg = np.concatenate([[2.0], h, [h[-1]]])
            ug = np.concatenate([[1.0], u, [u[-1]]])
            hu = hg * ug
            s = np.maximum(np.abs(ug[:-1]) + np.sqrt(hg[:-1]),
                           np.abs(ug[1:]) + np.sqrt(hg[1:]))
            f0 = 0.5 * (hu[:-1] + hu[1:]) - 0.5 * s * (hg[1:] - hg[:-1])
            mom = hu * ug + 0.0  # pressure handled via the eta slope below
            f1 = 0.5 * (mom[:-1] + mom[1:]) - 0.5 * s * (hu[1:] - hu[:-1])
            h_new = h - dt / dx * (f0[1:] - f0[:-1])
            deta = (hg[2:] - hg[:-2]) / (2 * dx)
            hu_star = hg[1:-1] * ug[1:-1] - dt / dx * (f1[1:] - f1[:-1]) \
                - dt * hg[1:-1] * deta
            nu = 1e-6  # delta_bar^2
            u_new = hu_star / (h_new + 2.0 * nu * dt / h_new)
            return h_new, u_new

        got, dt = mlsw_step(state, layers, p, grid, left)
        h_ref, u_ref = oracle(h, u, dt, grid.dx)
        assert np.allclose(got.h, h_ref, rtol=0, atol=1e-12)
        assert np.allclose(got.u[0], u_ref, rtol=0, atol=1e-12)


class TestConservation:
    def test_mass_conservation_flat(self):
        n = 30
        grid = Grid1D.uniform(0.0, 2.0, n)
        layers = LayerGrid(20)
        p = params()
        rng = np.random.default_rng(59)
        state = MlswState(h=rng.uniform(1.8, 2.2, n),
                          u=rng.uniform(0.9, 1.1, (20, n)))
        left = SupercriticalInflow(u_in=1.0, h_in=2.0)
        got, dt = mlsw_step(state, layers, p, grid, left)
        # interior mass change must equal the boundary flux difference;
        # recompute the boundary fluxes from the ghosted state by hand
        from eswsim.mlsw import _ghosted
        h_g, u_g = _ghosted(state, left, layers, p)
        ell = layers.fractions[:, None]
        hu = ell * h_g[None, :] * u_g
        sp = np.max(np.abs(u_g), axis=0) + np.sqrt(h_g)
        s = np.maximum(sp[:-1], sp[1:])
        jump = h_g[1:] - h_g[:-1]
        fm = np.sum(0.5 * (hu[:, :-1] + hu[:, 1:])
                    - 0.5 * s[None, :] * ell * jump[None, :], axis=0)
        dM = np.sum(got.h - state.h) * grid.dx
        assert dM == pytest.approx(-dt * (fm[-1] - fm[0]), abs=1e-12)

    def test_momentum_sink_identity(self):
        # friction removes layer-summed momentum exactly at the bottom rate
        n = 12
        grid = Grid1D.uniform(0.0, 2.0, n)
        layers = LayerGrid(30)
        p = params(db=0.05)  # exaggerated friction
        state = MlswState.uniform(layers, n, 2.0, 1.0)
        left = SupercriticalInflow(u_in=1.0, h_in=2.0)
        got, dt = mlsw_step(state, layers, p, grid, left)
        # uniform initial state: transport and exchange vanish, so the
        # whole momentum change is the implicit friction sink
        ell = layers.fractions[:, None]
        dmom = np.sum(ell * got.h * got.u - ell * state.h * state.u, axis=0)
        h1 = layers.fractions[0] * got.h
        tau_b = p.delta_bar**2 * 2.0 * got.u[0] / h1
        assert np.allclose(dmom, -dt * tau_b, rtol=1e-12, atol=1e-14)

    def test_lake_at_rest_over_bump(self):
        from eswsim.analytic import gaussian_bump
        n = 30
        grid = Grid1D.uniform(0.0, 2.0, n,
                              lambda x: gaussian_bump(x, 0.2, 0.1))
        layers = LayerGrid(10)
        p = params()
        state = MlswState(h=1.0 - grid.topo,
                          u=np.zeros((10, n)))
        left = SupercriticalInflow(u_in=0.0, h_in=1.0 - grid.topo[0])
        got, dt = mlsw_step(state, layers, p, grid, left, 1e-3)
        assert dt == 1e-3
        assert np.max(np.abs(got.h - state.h)) < 1e-14
        assert np.max(np.abs(got.u)) < 1e-14


class TestStokesDiffusion:
    def test_rayleigh_shear_and_thickness(self):
        # uniform flow impulsively subjected to no-slip: far from the inlet
        # the profile is the erf diffusion solution
        n = 12
        grid = Grid1D.uniform(0.0, 2.0, n)
        layers = LayerGrid(100)
        p = params()
        state = MlswState.uniform(layers, n, 2.0, 1.0)
        left = SupercriticalInflow(u_in=1.0, h_in=2.0)
        t = 0.0
        while t < 0.25:
            state, dt = mlsw_step(state, layers, p, grid, left,
                                  dt_cap=min(2e-3, 0.25 - t))
            t += dt
        d1, d2, H, f2, tau = mlsw_diagnostics(state, layers, p)
        j = n - 1  # inlet influence has not reached the last cell yet
        assert tau[j] * math.sqrt(t) == pytest.approx(1.0 / math.sqrt(math.pi),
                                                      rel=0.05)
        assert d1[j] == pytest.approx(2.0 * math.sqrt(t / math.pi), rel=0.05)
        assert H[j] == pytest.approx(1.0 + math.sqrt(2.0), rel=0.05)


class TestDiagnostics:
    def test_flat_profile_degenerate(self):
        layers = LayerGrid(5)
        state = MlswState.uniform(layers, 4, 2.0, 1.0)
        with pytest.raises(DegenerateProfile):
            mlsw_diagnostics(state, layers, params())

    def test_two_layer_pathology(self):
        layers = LayerGrid(2)
        state = MlswState(h=np.array([2.0]),
                          u=np.array([[0.0], [1.0]]))
        with pytest.raises(DegenerateProfile):
            mlsw_diagnostics(state, layers, params())

    def test_stagnant_top_layer_degenerate(self):
        layers = LayerGrid(2)
        state = MlswState(h=np.array([2.0, 2.0]),
                          u=np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(DegenerateProfile, match="top-layer velocity"):
            mlsw_diagnostics(state, layers, params())

    def test_inviscid_limit_rejected(self):
        layers = LayerGrid(2)
        state = MlswState(h=np.array([2.0]), u=np.array([[0.5], [1.0]]))
        with pytest.raises(DomainError, match="delta_bar > 0"):
            mlsw_diagnostics(state, layers, params(db=0.0))

    def test_linear_profile_factors(self):
        # u proportional to z across many layers: H -> 3, like the linear
        # Pohlhausen profile filling the whole depth
        N = 400
        layers = LayerGrid(N)
        z = layers.interfaces
        z_mid = 0.5 * (z[:-1] + z[1:])
        state = MlswState(h=np.array([2.0]), u=z_mid[:, None].copy())
        d1, d2, H, f2, tau = mlsw_diagnostics(state, layers, params())
        # with u_e read off the top-layer midpoint z_t:
        # delta_bar*delta1 = h*(1 - 1/(2 z_t)); H -> 3 like the linear
        # Pohlhausen profile filling the whole depth
        z_t = z_mid[-1]
        assert d1[0] == pytest.approx(2.0 * (1 - 1 / (2 * z_t)) / 1e-3,
                                      rel=1e-2)
        assert H[0] == pytest.approx(3.0, rel=2e-2)
