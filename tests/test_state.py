"""State containers, primitive variables, diagnostics."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from conftest import from_primitive_fields

from eswsim import ConservedState, Grid1D, PhysicalParams, recover_delta1
from eswsim.errors import DomainError
from eswsim.scenarios import emit_snapshot
from eswsim.state import U_EPS


def params(db=1e-3, fr=1.0):
    return PhysicalParams(froude=fr, delta_bar=db)


def primitive(W, p, tmp_path):
    """The primitive columns (u_e, delta1, U, ...) that emit_snapshot
    writes for W, read back exactly from their %.17g text."""
    path = tmp_path / "snapshot.csv"
    emit_snapshot(W, Grid1D.uniform(0.0, 1.0, W.h.size), p, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


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

    def test_x_text_is_built_once_at_first_use(self):
        g = Grid1D.uniform(-1.0, 3.0, 37)
        assert "x_text" not in vars(g)      # not built with the grid
        text = g.x_text
        assert text == tuple(f"{v:.17g}" for v in g.cell_centers)
        assert isinstance(text, tuple) and g.x_text is text
        with pytest.raises(FrozenInstanceError):
            g.x_text = ()

    def test_flat_bed(self):
        assert Grid1D.uniform(0.0, 1.0, 10).flat_bed
        assert not Grid1D.uniform(0.0, 2.0, 4, lambda x: 0.5 * x).flat_bed

    def test_grid_topo_fn(self):
        g = Grid1D.uniform(0.0, 2.0, 4, lambda x: 0.5 * x)
        assert np.allclose(g.topo, 0.5 * g.cell_centers)


class TestConservedState:
    def test_rows_view_one_float64_array(self):
        h, q, r = np.ones(3), np.full(3, 2.0), np.zeros(3)
        W = ConservedState(h=h, q=q, r=r)
        assert W.hqr.shape == (3, 3) and W.hqr.flags.c_contiguous
        for row, given in zip((W.h, W.q, W.r), (h, q, r)):
            assert np.shares_memory(row, W.hqr)
            assert not np.shares_memory(row, given)
            assert np.array_equal(row, given)
        assert ConservedState.wrap(W.hqr).hqr is W.hqr

    @pytest.mark.parametrize("shapes", [(3, 3, 2), (3, 4, 3), (3, 3, 0),
                                        ((2, 3), (2, 3), (2, 3))])
    def test_unequal_or_2d_rows_are_named(self, shapes):
        with pytest.raises(DomainError, match="1-D and of one length"):
            ConservedState(*(np.ones(s) for s in shapes))

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
    def test_zero_thickness_layer(self, tmp_path):
        W = ConservedState(h=[2.0], q=[2.0], r=[0.0])
        P = primitive(W, params(), tmp_path)
        assert P["u_e"][0] == 1.0 and P["delta1"][0] == 0.0
        assert P["U"][0] == 1.0

    def test_thick_layer(self, tmp_path):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        P = primitive(W, params(), tmp_path)
        assert P["delta1"][0] == 1.0
        assert P["U"][0] == pytest.approx(0.9995, abs=1e-15)

    def test_inviscid_limit(self, tmp_path):
        W = ConservedState(h=[2.0], q=[2.0], r=[1.0])
        P = primitive(W, params(db=0.0), tmp_path)
        assert P["U"][0] == P["u_e"][0] == 1.0

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

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        h = rng.uniform(0.1, 3.0, 64)
        u = rng.uniform(0.1, 2.0, 64)
        d1 = rng.uniform(0.0, 1.0, 64)
        W = from_primitive_fields(h, u, d1)
        P = primitive(W, params(), tmp_path)
        W2 = from_primitive_fields(P["h"], P["u_e"], P["delta1"])
        for a, b in ((W.h, W2.h), (W.q, W2.q), (W.r, W2.r)):
            assert np.allclose(a, b, rtol=1e-14, atol=0)

    def test_hU_identity(self, tmp_path):
        rng = np.random.default_rng(4)
        h = rng.uniform(0.1, 3.0, 32)
        u = rng.uniform(-2.0, 2.0, 32)
        d1 = rng.uniform(0.0, 1.0, 32)
        W = from_primitive_fields(h, u, d1)
        P = primitive(W, params(), tmp_path)
        assert np.allclose(h * P["U"], (h - 1e-3 * P["delta1"]) * P["u_e"],
                           rtol=1e-13)

