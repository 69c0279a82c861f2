"""Shared pytest hooks: surface the acceptance verdict lines.

The acceptance tests register one "criterion NN: PASS/FAIL" line each;
printing them from inside a test would be swallowed by output capture, so
they are replayed in the terminal summary after the run. Test modules
import the state helper and the brute-force cubic-root oracle below from
here.
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


def cubic_roots_oracle(h, u_e, a, b, froude, delta_bar):
    """Brute-force wave speeds: per state, np.roots of P_SW(lambda) = d as
    the monic cubic lambda^3 - p*lambda^2 + q*lambda - (s - d); its real
    roots ascending and NaN-padded to the (3, n) layout of
    characteristic_roots (1-D inputs)."""
    c2 = h / froude**2
    p = u_e + b
    q = 2.0 * u_e * b - u_e**2 - c2
    s_d = (b - u_e) * (u_e**2 - c2) - delta_bar * a / froude**2
    out = np.full((3, h.size), np.nan)
    for i in range(h.size):
        lam = np.roots([1.0, -p[i], q[i], -s_d[i]])
        # LAPACK returns a real eigenvalue with a zero imaginary part
        real = np.sort(lam.real[lam.imag == 0.0])
        out[:real.size, i] = real
    return out
