"""Exception hierarchy for the solver."""


class EswError(Exception):
    """Base class for all solver errors."""


class DomainError(EswError):
    """Input outside the mathematical domain of a formula."""


class CriticalFlow(EswError):
    """Linearized solution undefined at local Froude number 1."""


class MismatchedGrids(EswError):
    """Two curves do not share the same abscissae."""


class DegenerateProfile(EswError):
    """Multilayer velocity profile has no usable momentum thickness."""


class TridiagonalFailure(EswError):
    """Vertical exchange and friction solve failed (should never happen)."""


class ConfigError(EswError):
    """Invalid scenario configuration."""


class StepFailure(EswError):
    """A time step could not be taken; the time loop sets step and t."""

    step = t = None

    def __str__(self):
        where = "" if self.step is None else \
            f" (step {self.step}, t={self.t!r})"
        return super().__str__() + where


class NonFiniteState(StepFailure):
    """NaN or inf in a cell; cell counts the interior cells from 0."""

    def __init__(self, field, cell):
        super().__init__(f"non-finite {field} in cell {cell}")
        self.field, self.cell = field, cell


class NonpositiveTimeStep(StepFailure):
    """The selected time step is zero or negative."""


class DryCell(StepFailure):
    """Water depth at or below the dry threshold H_DRY after the ESW
    convection or the MLSW transport, or at most 0 in a state that a step
    is given (in its first cell, to the ESW step); cell counts from 0."""

    field = "h"

    def __init__(self, cell):
        super().__init__(f"h at or below the dry threshold in cell {cell}")
        self.cell = cell


class NegativeDiscriminant(StepFailure):
    """Friction update radicand went negative (time step too large)."""
