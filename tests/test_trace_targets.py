"""The benchmark's traced functions and the API it calls still exist.

perfbench/run.py names, in its TARGETS table, the (module, function) pairs
that its tracer wraps, and perfbench/workloads.py reaches the solver
through attribute chains on the imported package. The benchmark is not
part of this suite, so a renamed or deleted name would break only the
benchmark run; these tests read both files without importing the
benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def trace_targets():
    """(span, module, attribute) for each entry of TARGETS in run.py."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(ast.literal_eval(key), ast.literal_eval(value.elts[0]),
                     ast.literal_eval(value.elts[1]))
                    for key, value in zip(node.value.keys, node.value.values)]
    raise AssertionError(f"no TARGETS table in {RUN_PY}")


def test_every_trace_target_is_a_module_function():
    targets = trace_targets()
    assert targets
    for span, module, attr in targets:
        fn = getattr(importlib.import_module(module), attr, None)
        assert inspect.isfunction(fn), (span, module, attr)


def test_emit_snapshot_takes_path_fourth():
    # the tracer's byte counter reads the path from args[3]
    from eswsim.scenarios import emit_snapshot
    assert list(inspect.signature(emit_snapshot).parameters)[3] == "path"


def package_chains():
    """Dotted names that workloads.py reads from the package through `es`
    or `self.es`, e.g. "analytic.l1_error" for es.analytic.l1_error."""
    tree = ast.parse(WORKLOADS_PY.read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and names:
            dotted = [node.id, *reversed(names)]
            if dotted[:2] == ["self", "es"]:
                dotted = dotted[1:]
            if dotted[0] == "es" and len(dotted) > 1:
                chains.add(".".join(dotted[1:]))
    return chains


def test_every_package_name_the_workloads_use_exists():
    import eswsim
    import eswsim.cli  # noqa: F401  (the workloads import it too)
    chains = package_chains()
    assert {"BoundarySpec", "analytic.l1_error",
            "scenarios.initial_state"} <= chains
    for chain in chains:
        obj = eswsim
        for attr in chain.split("."):
            assert hasattr(obj, attr), chain
            obj = getattr(obj, attr)


def test_star_depths_bed_jump_and_speeds_are_args_4_to_6():
    # the tracer's Newton counter reads (jump_fb, lam_L, lam_R) = args[4:7]
    from eswsim.riemann import _star_depths
    params = list(inspect.signature(_star_depths).parameters)
    assert params[4:7] == ["jump_fb", "lam_L", "lam_R"]



def test_riemann_fan_fallback_is_a_bool_mask_per_interface():
    # the tracer's fallback counter reads solve_local_riemann's result:
    # .fallback must be a bool array with one entry per interface, n + 1
    import numpy as np
    from eswsim import (BoundarySpec, ConservedState, Grid1D, PhysicalParams,
                        SubcriticalInflow, evaluate_cells)
    from eswsim.timeloop import (apply_boundaries, convection_step,
                                 interface_speeds)
    n = 6
    grid = Grid1D.uniform(0.0, 1.0, n)
    params = PhysicalParams(1.0, 1e-3)
    W = ConservedState(h=np.full(n, 2.0), q=np.full(n, 2.0),
                       r=np.full(n, 0.1))
    W_ext = apply_boundaries(W, BoundarySpec(SubcriticalInflow(1.0)), params)
    cells = evaluate_cells(W_ext, params)
    _, fan = convection_step(cells, *interface_speeds(cells), grid.bed_jumps,
                             params, grid.dx, 1e-3)
    assert type(fan.fallback) is np.ndarray
    assert fan.fallback.dtype == bool and fan.fallback.shape == (n + 1,)
