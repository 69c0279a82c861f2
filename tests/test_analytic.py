"""Closed-form references: frozen values and cross-checks."""

import math

import numpy as np
import pytest

from eswsim import advance
from eswsim.analytic import (ReferenceCurve, blasius_perturbed_steady,
                             blasius_steady, gaussian_bump, l1_error,
                             linearized_bump, stewartson_fixed_profile)
from eswsim.errors import (CriticalFlow, DomainError, MismatchedGrids)
from eswsim.scenarios import ScenarioConfig, initial_state


class TestBlasius:
    def test_printed_constants(self):
        d1, tau = blasius_steady(np.array([1.0]))
        # with the rounded printed closure constants f2=0.22, H=2.59
        assert d1[0] == pytest.approx(1.718, abs=2e-3)
        assert tau[0] == pytest.approx(0.332, abs=2e-3)

    def test_sqrt_scaling(self):
        x = np.array([0.01, 0.04, 0.09])
        d1, tau = blasius_steady(x)
        assert d1[1] / d1[0] == pytest.approx(2.0, rel=1e-12)
        assert tau[2] / tau[0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_singular_origin(self):
        with pytest.raises(DomainError):
            blasius_steady(np.array([0.0, 0.1]))

    def test_perturbed_subcritical(self):
        x = np.array([0.04])
        h, u = blasius_perturbed_steady(x, h0=2.0, ue0=1.0, froude=1.0,
                                        delta_bar=1e-3)
        d1 = blasius_steady(x)[0][0]
        # Fr0^2 = 0.5: depth dips, velocity rises
        assert h[0] == pytest.approx(2.0 - 1e-3 * d1, rel=1e-12)
        assert u[0] == pytest.approx(1.0 + 1e-3 * d1, rel=1e-12)

    def test_perturbed_supercritical_oracle(self):
        # the supercritical inlet fixes (h, u_e) at the uniform stream, so
        # the solver's steady perturbation should follow the linearised
        # solution; max gaps at n = 100 are 2.9 % (h) and 3.4 % (u_e),
        # leading-edge cell excluded
        config = ScenarioConfig(scenario="BlasiusSteady", n_cells=100,
                                h0=0.5, u0=1.0, t_end=0.5)
        grid = config.grid()
        run = advance(initial_state(config), config.t_end, grid,
                      config.physical_params(), config.boundary_spec())
        x = grid.cell_centers[1:]
        h_ref, u_ref = blasius_perturbed_steady(x, h0=0.5, ue0=1.0,
                                                froude=1.0, delta_bar=1e-3)
        for got, ref, base in ((run.W.h, h_ref, 0.5),
                               (run.W.q / run.W.h, u_ref, 1.0)):
            gap = np.max(np.abs(got[1:] - ref)) / np.max(np.abs(ref - base))
            assert gap < 0.05

    def test_perturbed_critical_raises(self):
        with pytest.raises(CriticalFlow):
            blasius_perturbed_steady(np.array([0.1]), h0=1.0, ue0=1.0,
                                     froude=1.0, delta_bar=1e-3)


class TestStewartson:
    def test_steady_branch_is_blasius(self):
        x = np.array([0.01, 0.02])
        t = 1.0  # transition at x = t/H = 0.386; both points are steady
        d1, tau = stewartson_fixed_profile(x, t)
        ref_d1, ref_tau = blasius_steady(x, f2H=0.22 * 2.59, H=2.59)
        assert np.allclose(d1, ref_d1, rtol=1e-12)
        assert np.allclose(tau, ref_tau, rtol=1e-12)

    def test_unsteady_plateau(self):
        x = np.array([5.0, 9.0])
        t = 1.0
        d1, tau = stewartson_fixed_profile(x, t)
        assert d1[0] == d1[1]  # x-independent plateau
        assert d1[0] == pytest.approx(math.sqrt(2 * 0.22 * 2.59**2 * 1.0)
                                      / math.sqrt(2.59), rel=1e-12)
        # plateau constant ~1.0675 (paper prints 1.067)
        assert d1[0] == pytest.approx(1.0675, abs=2e-3)

    def test_continuity_at_transition(self):
        t = 2.0
        x_star = t / 2.59
        d1, _ = stewartson_fixed_profile(np.array([x_star * (1 - 1e-9),
                                                   x_star * (1 + 1e-9)]), t)
        assert d1[0] == pytest.approx(d1[1], rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            stewartson_fixed_profile(np.array([0.1]), t=0.0)


class TestLinearizedBump:
    def test_in_phase_with_bed(self):
        x = np.linspace(0.0, 2.0, 201)
        f_b = gaussian_bump(x, 0.01, 0.1)
        h, U = linearized_bump(f_b, h0=2.0, U0=1.0, froude=1.0)
        # subcritical: depth dips over the crest, velocity peaks there
        assert np.argmin(h) == np.argmax(f_b) == np.argmax(U)

    def test_supercritical_sign_flip(self):
        f_b = np.array([0.0, 0.01, 0.0])
        h, U = linearized_bump(f_b, h0=0.5, U0=1.0, froude=1.0)
        assert h[1] > h[0] and U[1] < U[0]

    def test_critical_raises(self):
        with pytest.raises(CriticalFlow):
            linearized_bump(np.array([0.01]), h0=1.0, U0=1.0, froude=1.0)


class TestGaussianBump:
    def test_peak_and_width(self):
        x = np.array([1.0, 1.1])
        fb = gaussian_bump(x, 0.05, 0.1)
        assert fb[0] == 0.05
        assert fb[1] == pytest.approx(0.05 * math.exp(-0.5), rel=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            gaussian_bump(np.array([1.0]), 0.05, 0.0)


class TestL1Error:
    def test_known_value(self):
        x = np.linspace(0.0, 1.0, 11)
        a = ReferenceCurve(x, np.ones(11))
        b = ReferenceCurve(x, np.zeros(11))
        assert l1_error(a, b) == pytest.approx(1.1, rel=1e-12)

    def test_grid_mismatch(self):
        a = ReferenceCurve(np.linspace(0, 1, 11), np.zeros(11))
        b = ReferenceCurve(np.linspace(0, 1, 12), np.zeros(12))
        with pytest.raises(MismatchedGrids):
            l1_error(a, b)

    def test_decreasing_abscissae_rejected(self):
        with pytest.raises(DomainError):
            ReferenceCurve(np.array([0.0, 1.0, 0.5]), np.zeros(3))
