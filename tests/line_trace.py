"""Lines of the eswsim package that the test suite never runs.

Runs pytest on this directory under a sys.settrace line tracer limited to
the package's source files, then prints "path:line: source" for every
executable line that no test ran, and a closing count. A module's
executable lines are the line numbers of its code objects (co_lines), its
functions, classes and comprehensions included, so the count needs no
coverage tool. Arguments after the script name go to pytest:

    PYTHONPATH=src python tests/line_trace.py
    PYTHONPATH=src python tests/line_trace.py -k closures

Tracing makes the suite take about 1.7 times as long. Code run in a
subprocess is not seen. The exit status is pytest's.
"""

import importlib.util
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def executable_lines(path) -> set:
    """Line numbers of every code object compiled from the file at path."""
    stack = [compile(Path(path).read_text(encoding="utf-8"), str(path),
                     "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def traced_run(package_dir: Path, pytest_args) -> tuple:
    """(pytest exit status, {file name: set of lines run}) of one pytest
    run with the tracer on for the files under package_dir."""
    prefix = str(package_dir) + "/"
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(on_call)
    try:
        status = pytest.main([str(TESTS), *pytest_args])
    finally:
        sys.settrace(None)
    return status, ran


def main(argv=None):
    # found without importing it, so the package's own imports are traced
    package_dir = Path(importlib.util.find_spec("eswsim").origin).parent
    status, ran = traced_run(package_dir, sys.argv[1:] if argv is None
                             else argv)
    missed = 0
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[str(path)]):
            print(f"{os.path.relpath(path)}:{line}: "
                  f"{source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
