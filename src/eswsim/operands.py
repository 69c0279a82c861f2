"""The ESW step's float constants as read-only 0-d float64 arrays, which give
the same float64 results: a ufunc converts a Python float operand on every
call (190 of 580 ns on ten cells). The Falkner-Skan fit's are closures.FS_*."""
import numpy as np

ZERO, HALF, ONE, TWO, THREE, FOUR, EIGHT = (
    np.broadcast_to(v, ()) for v in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0))
