"""Shared pytest hooks: surface the acceptance verdict lines.

The acceptance tests register one "criterion NN: PASS/FAIL" line each;
printing them from inside a test would be swallowed by output capture, so
they are replayed in the terminal summary after the run. Test modules
import the state helper below from here.
"""

import numpy as np

from eswsim import ConservedState

acceptance_verdicts = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


def from_primitive_fields(h, u_e, delta1) -> ConservedState:
    """The conserved state (h, h*u_e, delta1*u_e) of primitive fields."""
    h = np.asarray(h, float)
    u_e = np.asarray(u_e, float)
    delta1 = np.asarray(delta1, float)
    return ConservedState(h=h.copy(), q=h * u_e, r=delta1 * u_e)
