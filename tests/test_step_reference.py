"""The ESW step and its helpers against the expressions they replaced.

The step's helpers build their results in place, one pass per quantity.
Every element must still go through the same floating-point operations, so
the references below keep the plain expressions, and reference_esw_step is
timeloop.step written with them: the step as it was before the rewrite,
frozen as the bit-for-bit reference.
"""

import numpy as np
import pytest
from conftest import from_primitive_fields
from hypothesis import given, settings, strategies as st
from test_riemann import masked_star_depths

from eswsim import (BoundarySpec, ConservedState, FalknerSkanFit,
                    FixedProfile, Grid1D, PhysicalParams, Pohlhausen4,
                    SubcriticalInflow, SupercriticalInflow, closure_factors,
                    step)
from eswsim.analytic import gaussian_bump
from eswsim.closures import (LAMBDA1_CLAMP, friction_factor_fs,
                             shape_factor_fs, ue_gradient)
from eswsim.errors import NegativeDiscriminant
from eswsim.hyperbolicity import jacobian_coeffs, nickalls_bounds
from eswsim.riemann import (evaluate_cells, physical_flux, solve_local_riemann,
                            source_averages)
from eswsim.state import U_EPS, recover_delta1
from eswsim.timeloop import (CFL_NUMBER, N_GHOST, apply_boundaries,
                             friction_step, with_ghosts)


# -- the replaced expressions ------------------------------------------------

def ref_recover_delta1(q, r, h):
    u_e = q / h
    return np.where(np.abs(u_e) > U_EPS, r / np.where(u_e == 0, 1.0, u_e),
                    0.0)


def ref_shape_factor_fs(lambda1):
    lam = np.clip(np.asarray(lambda1, dtype=float), *LAMBDA1_CLAMP)
    return np.where(lam < 0.6, 2.59 * np.exp(-0.37 * lam), 2.074)


def ref_friction_factor_fs(H):
    H = np.asarray(H, dtype=float)
    return 1.05 * (4.0 / H**2 - 1.0 / H)


def ref_closure_factors(law, lambda1):
    if isinstance(law, FalknerSkanFit):
        H = ref_shape_factor_fs(lambda1)
        return H, ref_friction_factor_fs(H)
    return closure_factors(law, lambda1)    # not rewritten


def ref_jacobian_coeffs(u_e, r, lambda1, H, law):
    u_e, r, lambda1, H = (np.asarray(v, float) for v in (u_e, r, lambda1, H))
    if isinstance(law, FalknerSkanFit):
        active = (lambda1 >= LAMBDA1_CLAMP[0]) & (lambda1 < 0.6)
        a = r * (1.0 + np.where(active, 1.0 - 0.74 * lambda1, 1.0) / H)
        b = u_e * (1.0 + np.where(active, 1.0 + 0.74 * lambda1, 1.0) / H)
    else:
        a = (1.0 + 1.0 / H) * r
        b = (1.0 + 1.0 / H) * u_e
    return a, b


def ref_nickalls_bounds(u_e, b, h, froude):
    u_e = np.asarray(u_e, float)
    b = np.asarray(b, float)
    radius = np.sqrt((2.0 * u_e - b) ** 2
                     + 3.0 * np.asarray(h, float) / froude**2)
    return (u_e + b - 2.0 * radius) / 3.0, (u_e + b + 2.0 * radius) / 3.0


def ref_physical_flux(h, q, r, H, params):
    u_e = q / h
    return (q - params.delta_bar * r,
            q * u_e + h**2 / (2.0 * params.froude**2),
            (1.0 + 1.0 / H) * r * u_e)


def ref_source_averages(h_L, q_L, r_L, h_R, q_R, r_R, jump_fb, froude):
    topo_src = (h_L + h_R) / (2.0 * froude**2) * np.asarray(jump_fb, float)
    exchange_src = (q_L + q_R) / (h_L + h_R) * (r_R - r_L)
    return topo_src, exchange_src


def ref_ue_gradient(u, dx, order):
    g = np.empty_like(u)
    if order == 2:
        g[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    else:
        g[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) \
            / (12.0 * dx)
        g[1] = (u[2] - u[0]) / (2.0 * dx)
        g[-2] = (u[-1] - u[-3]) / (2.0 * dx)
    g[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
    g[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
    return g


def ref_fan(h, q, r, lam_L, lam_R, F0, F1, F2, jump, params):
    """solve_local_riemann's fields; each argument but jump and params is
    the (left, right) pair of cell values at the interfaces."""
    fr, db = params.froude, params.delta_bar
    (h_L, h_R), (q_L, q_R), (r_L, r_R) = h, q, r
    F = (F0, F1, F2)
    fan_L = np.minimum(np.minimum(*lam_L), 0.0)
    fan_R = np.maximum(np.maximum(*lam_R), 0.0)
    span = fan_R - fan_L
    topo_src, exchange_src = ref_source_averages(h_L, q_L, r_L, h_R, q_R,
                                                 r_R, jump, fr)
    r_star = (fan_R * r_R - fan_L * r_L - (F2[1] - F2[0])
              + exchange_src) / span
    q_star = (fan_R * q_R - fan_L * q_L - (F1[1] - F1[0])
              - topo_src + db * exchange_src) / span
    C = fan_R * h_R - fan_L * h_L - (F0[1] - F0[0])
    h_Ls, h_Rs, fallback = masked_star_depths(q_star, C, span, fr, jump,
                                              fan_L, fan_R)
    return {"lam_L": fan_L, "lam_R": fan_R, "q_star": q_star,
            "r_star": r_star, "h_L_star": h_Ls, "h_R_star": h_Rs,
            "F_left": tuple(f[0] + fan_L * (s - w) for f, s, w in
                            zip(F, (h_Ls, q_star, r_star), (h_L, q_L, r_L))),
            "F_right": tuple(f[1] - fan_R * (w - s) for f, s, w in
                             zip(F, (h_Rs, q_star, r_star), (h_R, q_R, r_R))),
            "fallback": fallback}


def reference_esw_step(W, grid, params, spec, gradient_order=4):
    """(h, q, r, dt, fallback count, min f2) of one split step, every phase
    written with the expressions above; the ghost cells and the star-depth
    Newton are the live (unchanged) apply_boundaries and the masked
    Newton."""
    h, q, r = apply_boundaries(W, spec, params)
    fr = params.froude
    # one cell evaluation
    u_e = q / h
    dudx = ref_ue_gradient(u_e, grid.dx, gradient_order)
    delta1 = ref_recover_delta1(q, r, h)
    lambda1 = delta1**2 * dudx
    H, f2 = ref_closure_factors(params.closure, lambda1)
    _, b = ref_jacobian_coeffs(u_e, r, lambda1, H, params.closure)
    lam_L, lam_R = ref_nickalls_bounds(u_e, b, h, fr)
    F = ref_physical_flux(h, q, r, H, params)
    # interface fan
    n_ext = h.size
    sl = slice(N_GHOST - 1, n_ext - N_GHOST)
    sr = slice(N_GHOST, n_ext - N_GHOST + 1)
    topo = with_ghosts(grid.topo, grid.topo[0], N_GHOST)
    fan = ref_fan(*((v[sl], v[sr]) for v in (h, q, r, lam_L, lam_R, *F)),
                  topo[sr] - topo[sl], params)
    # time step: the largest lam_R(i-1/2) - lam_L(i+1/2) over the cells
    width = (fan["lam_R"][:-1] - fan["lam_L"][1:]).max()
    dt = CFL_NUMBER * grid.dx / width if width > 0.0 else np.inf
    reverse = f2 < 0.0
    if reverse.any():
        dt = min(dt, (-delta1[reverse] ** 2
                      / (4.0 * (f2 * H)[reverse])).min())
    dt = float(dt)
    # conservative update, then friction
    lam = dt / grid.dx
    inner = slice(N_GHOST, -N_GHOST)
    h_new, q_new, r_half = (v[inner] - lam * (fl[1:] - fr_[:-1])
                            for v, fl, fr_ in zip((h, q, r), fan["F_left"],
                                                  fan["F_right"]))
    d1 = ref_recover_delta1(q_new, r_half, h_new)
    disc = d1**2 + 2.0 * np.asarray((f2 * H)[inner], float) * dt
    r_new = np.sqrt(disc) * (q_new / h_new)
    return (h_new, q_new, r_new, dt, int(np.count_nonzero(fan["fallback"])),
            float(f2.min()))


# -- the step, bit for bit ---------------------------------------------------

def bump_grid(n, alpha, x_max=2.0):
    return Grid1D.uniform(0.0, x_max, n,
                          lambda x: gaussian_bump(x, alpha, 0.1, 0.5 * x_max))


def case(name):
    """(state, grid, params, spec, gradient order) of one named set-up."""
    sub = BoundarySpec(left=SubcriticalInflow(u_in=1.0))
    n = 40
    flat = Grid1D.uniform(0.0, 1.0, n)
    uniform = from_primitive_fields(np.full(n, 2.0), np.full(n, 1.0),
                                    np.full(n, 0.02))
    p = PhysicalParams(1.0, 1e-3)
    setups = {
        "falkner_skan_flat_sub": (uniform, flat, p, sub, 4),
        "blasius_order2": (uniform, flat, PhysicalParams(
            1.0, 1e-3, FixedProfile()), sub, 2),
        "fixed_profile": (uniform, flat, PhysicalParams(
            1.0, 1e-3, FixedProfile(2.3, 0.3)), sub, 4),
        "pohlhausen4_bump": (uniform, bump_grid(n, 0.05), PhysicalParams(
            1.0, 1e-3, Pohlhausen4()), sub, 4),
        "bump_sub_froude": (uniform, bump_grid(n, 0.05), PhysicalParams(
            0.6, 3e-3), sub, 4),
        "bump_sup_order2": (
            from_primitive_fields(np.full(n, 0.5), np.full(n, 1.5),
                                  np.full(n, 0.02)),
            bump_grid(n, 0.02), PhysicalParams(1.6, 1e-3),
            BoundarySpec(left=SupercriticalInflow(u_in=1.5, h_in=0.5)), 2),
        "inviscid_bump": (uniform, bump_grid(n, 0.05), PhysicalParams(
            1.0, 0.0), sub, 4),
        # the steep bump of TestStepDiagnostics: HLL fallbacks
        "hll_fallback": (
            from_primitive_fields(np.full(n, 0.5), np.full(n, 1.0),
                                  np.zeros(n)),
            bump_grid(n, 1.0, x_max=2.0), p,
            BoundarySpec(left=SupercriticalInflow(u_in=1.0, h_in=0.5)), 4),
        # a sharply decelerating stream with a thick layer: f2 < 0
        "reverse_flow": (
            from_primitive_fields(np.full(n, 2.0), np.linspace(1.5, 0.5, n),
                                  np.full(n, 0.5)),
            Grid1D.uniform(0.0, 0.2, n), p,
            BoundarySpec(left=SupercriticalInflow(u_in=1.5, h_in=2.0)), 4),
        # a still pool over a bump with one moving cell: |u_e| <= U_EPS
        "stagnant": (
            from_primitive_fields(1.0 - bump_grid(n, 0.2).topo,
                                  np.where(np.arange(n) == 20, 0.1, 0.0),
                                  np.full(n, 0.1)),
            bump_grid(n, 0.2), p, BoundarySpec(left=SubcriticalInflow(0.0)),
            4),
    }
    return setups[name]


CASES = ("falkner_skan_flat_sub", "blasius_order2", "fixed_profile",
         "pohlhausen4_bump", "bump_sub_froude", "bump_sup_order2",
         "inviscid_bump", "hll_fallback", "reverse_flow", "stagnant")


@pytest.mark.parametrize("name", CASES)
def test_step_matches_reference_bits(name):
    W, grid, params, spec, order = case(name)
    seen = {"fallback": 0, "min_f2": np.inf, "stagnant": False}
    for _ in range(12):
        u_e = W.q / W.h
        seen["stagnant"] |= bool((np.abs(u_e) <= U_EPS).any())
        before = [v.copy() for v in (W.h, W.q, W.r)]
        *want, dt, n_fallback, min_f2 = reference_esw_step(W, grid, params,
                                                           spec, order)
        got, got_dt = step(W, grid, params, spec, gradient_order=order)
        for a, b in zip((got.h, got.q, got.r, got_dt), (*want, dt)):
            a, b = np.asarray(a), np.asarray(b)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert type(got_dt) is float
        # the step never writes into its input state
        for a, b in zip((W.h, W.q, W.r), before):
            assert np.array_equal(a, b)
        seen["fallback"] += n_fallback
        seen["min_f2"] = min(seen["min_f2"], min_f2)
        W = got
    # each special set-up reaches the branch it is there for
    if name == "hll_fallback":
        assert seen["fallback"] > 0
    if name == "reverse_flow":
        assert seen["min_f2"] < 0.0
    if name == "stagnant":
        assert seen["stagnant"]


# -- each helper against its replaced expression -----------------------------

SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 0.6, np.nextafter(0.6, 0.0),
           np.nextafter(0.6, 1.0), *LAMBDA1_CLAMP, -20.5, 10.5, 1e-300,
           -1e-300, 1e300, 1.0)
VALUES = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def fields(draw, count, forms=("scalar", "0-d", "array", "mixed"),
           min_size=1):
    """count inputs of one drawn form: Python floats, 0-d arrays, float64
    arrays of one drawn size, or a mix of the three (mixed ranks, which
    must broadcast as in the plain expressions)."""
    form = draw(st.sampled_from(forms))
    size = draw(st.integers(min_size, min_size + 7))

    def one(form):
        if form == "array":
            return np.array(draw(st.lists(VALUES, min_size=size,
                                          max_size=size)))
        value = draw(VALUES)
        return value if form == "scalar" else np.array(value)
    if form == "mixed":
        return [one(draw(st.sampled_from(("scalar", "0-d", "array"))))
                for _ in range(count)]
    return [one(form) for _ in range(count)]


def same_bits(got, want):
    """Equal shapes and values, NaN where NaN, and equal signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got) & ~np.isnan(got),
                          np.signbit(want) & ~np.isnan(want))


def check(fn, ref, *args, **kwargs):
    """fn(*args) has ref(*args)'s bits and leaves every input unchanged."""
    before = [np.copy(a) for a in args]
    with np.errstate(all="ignore"):
        try:
            want = ref(*args)
        except ZeroDivisionError:
            # a Python float divided by zero: the helper may raise it too
            # or give the IEEE result, as NumPy would
            return None
        got = fn(*args, **kwargs)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            same_bits(g, w)
    else:
        same_bits(got, want)
    for a, b in zip(args, before):
        same_bits(a, b)
    return got


def flux_into_rows(params):
    """physical_flux into the rows of a fresh (3, n) array, n the inputs'
    broadcast size (1 for scalars), and the reference expressions
    broadcast to those rows."""
    def rows(*args):
        return np.empty((3,) + (np.broadcast(*args).shape or (1,)))

    def fn(h, q, r, H):
        return physical_flux(h, q, r, H, params, q / h, rows(h, q, r, H))

    def ref(h, q, r, H):
        shape = rows(h, q, r, H).shape[1:]
        return tuple(np.broadcast_to(v, shape)
                     for v in ref_physical_flux(h, q, r, H, params))
    return fn, ref


def froudes():
    return st.sampled_from((1.0, 0.6, 1.7, 1e-3))


HELPERS = settings(max_examples=80, deadline=None, derandomize=True)


class TestHelpersMatchExpressions:
    @HELPERS
    @given(fields(1))
    def test_shape_factor_fs(self, args):
        check(shape_factor_fs, ref_shape_factor_fs, *args)

    @HELPERS
    @given(fields(1))
    def test_friction_factor_fs(self, args):
        check(friction_factor_fs, ref_friction_factor_fs, *args)

    @HELPERS
    @given(fields(4), st.sampled_from((FalknerSkanFit(), FixedProfile(),
                                       Pohlhausen4())))
    def test_jacobian_coeffs(self, args, law):
        check(lambda *a: jacobian_coeffs(*a, law),
              lambda *a: ref_jacobian_coeffs(*a, law), *args)

    @HELPERS
    @given(fields(3), froudes())
    def test_nickalls_bounds(self, args, froude):
        check(lambda *a: nickalls_bounds(*a, froude),
              lambda *a: ref_nickalls_bounds(*a, froude), *args)

    @HELPERS
    @given(fields(4), froudes(), st.sampled_from((0.0, 1e-3, 0.3)))
    def test_physical_flux(self, args, froude, delta_bar):
        p = PhysicalParams(froude, delta_bar)
        check(*flux_into_rows(p), *args)

    @HELPERS
    @given(fields(7, forms=("0-d", "array")), froudes())
    def test_source_averages(self, args, froude):
        W_L, W_R = ConservedState(*args[:3]), ConservedState(*args[3:6])
        jump = np.atleast_1d(args[6])
        check(lambda *a: source_averages(W_L.hqr, W_R.hqr, jump, froude),
              lambda *a: ref_source_averages(*a, froude),
              W_L.h, W_L.q, W_L.r, W_R.h, W_R.q, W_R.r, jump)

    @HELPERS
    @given(fields(1, forms=("array",), min_size=5), st.sampled_from((2, 4)),
           st.sampled_from((0.01, 1.0, 3e-4)))
    def test_ue_gradient(self, args, order, dx):
        check(lambda u: ue_gradient(u, dx, order),
              lambda u: ref_ue_gradient(u, dx, order), *args)

    @HELPERS
    @given(fields(3))
    def test_recover_delta1(self, args):
        check(recover_delta1, ref_recover_delta1, *args)

    @HELPERS
    @given(fields(4, forms=("array",)), st.floats(1e-6, 1.0))
    def test_friction_step(self, args, dt):
        h, q, r, f2H = args
        with np.errstate(all="ignore"):
            d1 = ref_recover_delta1(q, r, h)
            disc = d1**2 + 2.0 * f2H * dt
        if np.any(disc < 0.0):
            with pytest.raises(NegativeDiscriminant), \
                    np.errstate(all="ignore"):
                friction_step(ConservedState(h, q, r).hqr, dt, f2H, q / h)
            return

        def ref(h, q, r, f2H):
            return np.sqrt(disc) * (q / h)
        got = check(lambda *a: friction_step(ConservedState(*a[:3]).hqr, dt,
                                             a[3], a[1] / a[0])[2], ref, *args)
        assert got is not r


def test_helpers_broadcast_mixed_ranks():
    # a 0-d Lambda1 or H against array u_e and r (the wave_speed_map demo's
    # call), and a scalar u_e against an array b
    u_e = np.linspace(-1.0, 2.0, 7)
    for law in (FalknerSkanFit(), FixedProfile()):
        check(lambda *a: jacobian_coeffs(*a, law),
              lambda *a: ref_jacobian_coeffs(*a, law),
              u_e, 0.5 * u_e, 0.0, np.array(2.59))
        check(lambda *a: jacobian_coeffs(*a, law),
              lambda *a: ref_jacobian_coeffs(*a, law),
              1.5, np.array(0.2), np.linspace(-1.0, 1.0, 7), 2.3)
    check(lambda *a: nickalls_bounds(*a, 1.0),
          lambda *a: ref_nickalls_bounds(*a, 1.0), 1.5, 2.0 * u_e, 0.7)
    check(lambda *a: nickalls_bounds(*a, 0.8),
          lambda *a: ref_nickalls_bounds(*a, 0.8), np.array(1.5), 0.3,
          np.linspace(0.1, 2.0, 7))
    p = PhysicalParams(1.0, 1e-3)
    h = np.linspace(0.5, 2.0, 7)
    for args in ((h, 1.2, 0.1, 2.59), (1.5, u_e, np.array(0.1), 2.59),
                 (1.5, 1.2, 0.1, np.full(7, 2.59))):
        check(*flux_into_rows(p), *args)


class TestRiemannMatchesExpressions:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(("flat", "bump", "mixed")),
           st.sampled_from((0.0, 1e-3)))
    def test_solve_local_riemann(self, n, seed, bed, delta_bar):
        rng = np.random.default_rng(seed)
        p = PhysicalParams(float(rng.choice([0.7, 1.0, 1.6])), delta_bar)
        states = []
        for _ in range(2):
            u = rng.uniform(-2.0, 2.0, n)
            u[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            states.append(from_primitive_fields(rng.uniform(0.1, 3.0, n), u,
                                                rng.uniform(0.0, 1.0, n)))
        jump = {"flat": np.zeros(n), "bump": rng.normal(0.0, 0.02, n),
                "mixed": np.where(rng.random(n) < 0.5, 0.0,
                                  rng.normal(0.0, 0.02, n))}[bed]
        L, R = (evaluate_cells(W.hqr, p, rng.normal(0.0, 1.0, n))
                for W in states)
        pair = lambda name: (getattr(L, name), getattr(R, name))  # noqa: E731
        with np.errstate(all="ignore"):
            want = ref_fan(*(pair(k) for k in ("h", "q", "r", "lam_L",
                                               "lam_R")),
                           *zip(L.F, R.F), jump, p)
            got = solve_local_riemann(L.hqr, L.F, R.hqr, R.F,
                                      want.pop("lam_L"), want.pop("lam_R"),
                                      jump, p)
        for name, value in want.items():
            if isinstance(value, tuple):
                for g, w in zip(getattr(got, name), value):
                    same_bits(g, w)
            else:
                same_bits(getattr(got, name), value)


def test_bed_jumps_cached_read_only():
    grid = bump_grid(30, 0.05)
    jumps = grid.bed_jumps
    assert grid.bed_jumps is jumps
    assert not jumps.flags.writeable
    with pytest.raises(ValueError):
        jumps[3] = 1.0
    topo = with_ghosts(grid.topo, grid.topo[0], N_GHOST)
    assert np.array_equal(jumps, np.diff(topo)[1:-1])
    assert jumps[0] == jumps[-1] == 0.0
