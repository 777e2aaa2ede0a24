"""Exception types shared across the package."""


class UsageError(ValueError):
    """Caller violated a documented precondition (bad index, shape, range)."""


class UnsupportedSchemeError(UsageError):
    """Scheme/configuration combination the library deliberately does not support."""


class SolverError(RuntimeError):
    """Base class for failures inside implicit solves and time steppers."""


class LinearSolveError(SolverError):
    """A linear solve hit a singular or badly broken matrix."""


class PoleError(LinearSolveError):
    """An implicit factor (1 - alpha*lambda) vanished during a stability scan."""


class NewtonError(SolverError):
    """Newton iteration failed to converge.

    Carries the last iterate and residual norm so callers can report
    where in the time loop the failure happened.
    """

    def __init__(self, message, iterations=None, residual_norm=None, last_iterate=None,
                 time=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.last_iterate = last_iterate
        self.time = time


class StepperError(SolverError):
    """A time step failed; annotated with scheme position by the IDC driver."""

    def __init__(self, message, time=None, node=None, sweep=None, macro_step=None):
        super().__init__(message)
        self.time = time
        self.node = node
        self.sweep = sweep
        self.macro_step = macro_step
