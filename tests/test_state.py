"""State containers, primitive conversion, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eswsim import (ConservedState, Grid1D, PhysicalParams, from_primitive,
                    recover_delta1, to_primitive)
from eswsim.errors import DomainError, DryCell
from eswsim.state import U_EPS, apparent_topography_view, energy_density


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


class TestContainers:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            PhysicalParams(froude=0.0, delta_bar=1e-3)
        with pytest.raises(DomainError):
            PhysicalParams(froude=1.0, delta_bar=-1.0)
        PhysicalParams(froude=1.0, delta_bar=0.0)  # inviscid limit is legal

    def test_grid_uniform(self):
        g = Grid1D.uniform(0.0, 1.0, 10)
        assert g.dx == pytest.approx(0.1)
        assert g.cell_centers[0] == pytest.approx(0.05)
        assert np.all(np.diff(g.cell_centers) > 0)
        assert np.all(g.topo == 0.0)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            Grid1D.uniform(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            Grid1D.uniform(0.0, 1.0, 10, lambda x: x * np.nan)

    def test_grid_topo_fn(self):
        g = Grid1D.uniform(0.0, 2.0, 4, lambda x: 0.5 * x)
        assert np.allclose(g.topo, 0.5 * g.cell_centers)


class TestConservedState:
    def test_float64_arrays_are_kept(self):
        h, q, r = np.ones(3), np.full(3, 2.0), np.zeros(3)
        W = ConservedState(h=h, q=q, r=r)
        assert W.h is h and W.q is q and W.r is r

    @pytest.mark.parametrize("value", [
        [1, 2, 3], np.arange(3), np.arange(3, dtype=np.float32),
        np.arange(3, dtype=">f8"), 2.0, np.array(2.0),
        np.ma.masked_array([1.0, 2.0])])
    def test_other_inputs_become_1d_float64(self, value):
        W = ConservedState(h=value, q=value, r=value)
        want = np.atleast_1d(np.asarray(value, float))
        for a in (W.h, W.q, W.r):
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert a.ndim == 1 and np.array_equal(a, want)


class TestPrimitive:
    def test_zero_thickness_layer(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        P = to_primitive(W, params())
        assert P.u_e[0] == 1.0 and P.delta1[0] == 0.0 and P.U[0] == 1.0

    def test_thick_layer(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        P = to_primitive(W, params())
        assert P.delta1[0] == 1.0
        assert P.U[0] == pytest.approx(0.9995, abs=1e-15)

    def test_inviscid_limit(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        P = to_primitive(W, params(db=0.0))
        assert P.U[0] == P.u_e[0] == 1.0
        assert P.beta[0] == 1.0

    def test_dry_cell(self):
        W = ConservedState(h=[1e-13], q=[0.0], r=[0.0])
        with pytest.raises(DryCell):
            to_primitive(W, params())

    def test_stagnation_delta1(self):
        d1 = recover_delta1(np.array([0.0]), np.array([0.3]), np.array([1.0]))
        assert d1[0] == 0.0

    @pytest.mark.parametrize("u_e", [
        [1.0, 0.5, -2.0, 1e-7],    # no guard trips: the unmasked quotient
        [1.0, 0.0, -2.0],          # stagnant cell
        [1.0, 5e-9, -5e-9],        # |u_e| below U_EPS
        [1.0, U_EPS, -U_EPS],      # at U_EPS exactly
        [1.0, np.nan, 2.0],
        [np.inf, 1.0, 2.0],
        1.5, 0.0, [], [[]]])
    def test_delta1_matches_masked_quotient(self, u_e):
        u_e = np.asarray(u_e, float)
        h = np.full(u_e.shape, 2.0)
        q = u_e * h
        r = np.linspace(0.1, 0.7, u_e.size).reshape(u_e.shape)
        d1 = recover_delta1(q, r, h)
        u = q / h
        want = np.where(np.abs(u) > U_EPS,
                        r / np.where(u == 0, 1.0, u), 0.0)
        assert type(d1) is type(want)
        assert d1.shape == want.shape
        assert np.array_equal(d1, want, equal_nan=True)

    def test_delta1_python_scalars(self):
        assert recover_delta1(0.6, 0.3, 2.0) == pytest.approx(1.0)
        assert recover_delta1(0.0, 0.3, 2.0) == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(0.1, 3.0, 64)
        u = rng.uniform(0.1, 2.0, 64)
        d1 = rng.uniform(0.0, 1.0, 64)
        W = ConservedState.from_primitive_fields(h, u, d1)
        W2 = from_primitive(to_primitive(W, params()))
        for a, b in ((W.h, W2.h), (W.q, W2.q), (W.r, W2.r)):
            assert np.allclose(a, b, rtol=1e-14, atol=0)

    def test_hU_identity(self):
        rng = np.random.default_rng(4)
        h = rng.uniform(0.1, 3.0, 32)
        u = rng.uniform(-2.0, 2.0, 32)
        d1 = rng.uniform(0.0, 1.0, 32)
        W = ConservedState.from_primitive_fields(h, u, d1)
        P = to_primitive(W, params())
        assert np.allclose(h * P.U, (h - 1e-3 * P.delta1) * P.u_e,
                           rtol=1e-13)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_beta_at_least_one(self, h, u, d1):
        W = ConservedState.from_primitive_fields([h], [u], [d1])
        P = to_primitive(W, params())
        assert P.beta[0] >= 1.0 - 1e-12


class TestApparentTopography:
    def test_flat_layer(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        Heff, u_e, bed = apparent_topography_view(W, params())
        assert Heff[0] == 2.0 and bed[0] == 0.0

    def test_shifted_bed(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        Heff, _, bed = apparent_topography_view(W, params())
        assert Heff[0] == pytest.approx(1.999)
        assert bed[0] == pytest.approx(1e-3)

    def test_flux_identity(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(0.1, 3.0, 40)
        u = rng.uniform(0.1, 2.0, 40)
        d1 = rng.uniform(0.0, 1.0, 40)
        W = ConservedState.from_primitive_fields(h, u, d1)
        P = to_primitive(W, params())
        Heff, u_e, _ = apparent_topography_view(W, params())
        assert np.allclose(Heff * u_e, h * P.U, rtol=1e-13)


class TestEnergy:
    def test_lake_at_rest_uniform(self):
        f_b = np.array([0.0, 0.3, 0.1])
        h = 1.0 - f_b
        W = ConservedState.from_primitive_fields(h, np.zeros(3), np.zeros(3))
        e, ef = energy_density(W, params(), f_b)
        assert np.allclose(e, e[0])
        assert np.all(ef == 0.0)

    def test_simple_value(self):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        e, _ = energy_density(W, params(db=0.0, fr=1.0), np.array([0.0]))
        assert e[0] == pytest.approx(3.0)
