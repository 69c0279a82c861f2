"""Exception hierarchy for the solver."""


class EswError(Exception):
    """Base class for all solver errors."""


class DryCell(EswError):
    """Water depth fell at or below the dry threshold."""


class DomainError(EswError):
    """Input outside the mathematical domain of a formula."""


class CriticalFlow(EswError):
    """Linearized solution undefined at local Froude number 1."""


class MismatchedGrids(EswError):
    """Two curves do not share the same abscissae."""


class NonSteady(EswError):
    """Steady state not reached within the step budget."""


class NegativeDiscriminant(EswError):
    """Friction update discriminant went negative (time step too large)."""


class DegenerateProfile(EswError):
    """Multilayer velocity profile has no usable momentum thickness."""


class TridiagonalFailure(EswError):
    """Vertical friction solve failed (should never happen)."""


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
