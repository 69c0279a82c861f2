"""The benchmark's traced functions still exist.

perfbench/run.py names, in its TARGETS table, the (module, function) pairs
that its tracer wraps. The benchmark is not part of this suite, so a
renamed or deleted function would break only the traced run; this test
reads the table without importing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
