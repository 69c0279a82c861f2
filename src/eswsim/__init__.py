"""Finite-volume solver for shallow-water flow coupled with a viscous
boundary layer, plus a multilayer reference solver and closed-form
validation solutions."""

__version__ = "0.1.0"

from .closures import (BlasiusConstant, ClosureEvaluation, FalknerSkanFit,
                       FixedProfile, Pohlhausen4, closure_factors,
                       evaluate_closure, ue_gradient)
from .errors import (ConfigError, CriticalFlow, DegenerateProfile, DomainError,
                     DryCell, EswError, MismatchedGrids, NegativeDiscriminant,
                     NonFiniteState, NonpositiveTimeStep, NonSteady,
                     StepFailure, TridiagonalFailure)
from .state import (ConservedState, Grid1D, PhysicalParams, PrimitiveState,
                    from_primitive, recover_delta1, to_primitive)
from .hyperbolicity import (WaveSpeeds, characteristic_roots, decoupled_speeds,
                            jacobian_coeffs, nickalls_bounds)
from .riemann import (CellEval, RiemannFan, evaluate_cells, physical_flux,
                      solve_local_riemann)
from .timeloop import (BoundarySpec, FreeOutflow, RunState, SubcriticalInflow,
                       SupercriticalInflow, advance, compute_dt, step)
from .analytic import (ReferenceCurve, blasius_perturbed_steady,
                       blasius_steady, gaussian_bump, l1_error,
                       linearized_bump, stewartson_fixed_profile,
                       stokes_solution)
from .mlsw import (LayerGrid, MlswState, mlsw_compute_dt, mlsw_diagnostics,
                   mlsw_step)
from .scenarios import (ScenarioConfig, convergence_study, emit_snapshot,
                        parse_config, run_scenario, run_to_steady)

__all__ = [name for name in dir() if not name.startswith("_")]
