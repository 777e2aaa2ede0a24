"""Core problem and solution containers shared by the steppers and the IDC driver.

A split initial value problem is  u' = f(t,u) = f_1(t,u) + ... + f_L(t,u).
Every operator is an object with two methods:

``op(t, u) -> array``
    the operator's action f(t, u);
``solve_implicit(t, alpha, rhs, guess=None)``
    returning x with  x - alpha*f(t, x) = rhs.  Each operator solves its own
    sub-step (direct division for diagonal operators, banded line solves for
    discretized diffusion, pointwise Newton for a source); the steppers call
    it directly and have no Newton fallback.

States are numpy arrays of any shape and any scalar kind; complex states are
used by the linear stability scans and run through the same code paths.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PoleError, UsageError


@dataclass(frozen=True)
class SplitIVP:
    """Initial value problem whose right-hand side is a sum of operators."""

    operators: tuple
    initial_state: np.ndarray
    t_span: tuple
    # optional specialized one-step methods, keyed by scheme name, used by
    # the IDC prediction step; only the linear PDE's ADI sweep has one
    predictor_overrides: dict = field(default_factory=dict)
    # optional specialized correction sub-steps, keyed by scheme name, with
    # signature (error_problem, t, h, w) -> w_next; only the linear
    # PDE's factored ADI correction has one, other schemes run their stepper
    corrector_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "initial_state", np.asarray(self.initial_state))
        if self.num_operators < 1:
            raise UsageError("a split problem needs at least one operator")
        for nu, op in enumerate(self.operators, start=1):
            if not callable(getattr(op, "solve_implicit", None)):
                raise UsageError(f"operator {nu} has no solve_implicit method")
        t0, t1 = self.t_span
        if not t1 > t0:
            raise UsageError(f"time span must have positive length, got {self.t_span}")

    @property
    def num_operators(self):
        return len(self.operators)

    def f_total(self, t, u):
        """Sum of all operator evaluations."""
        total = np.asarray(self.operators[0](t, u)).copy()
        for op in self.operators[1:]:
            total = total + op(t, u)
        return total


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution: states at strictly increasing node times."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times)
        if not np.issubdtype(times.dtype, np.floating):
            times = times.astype(float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", np.asarray(self.states))
        if self.times.ndim != 1 or len(self.states) != len(self.times):
            raise UsageError("need exactly one state per node time")
        if not (np.diff(self.times) > 0).all():
            raise UsageError("node times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def final_state(self):
        return self.states[-1]


class DiagonalLinearOperator:
    """f(t, u) = lam * u with scalar or elementwise (possibly complex) lam.

    The implicit solve is direct division.  A vanishing factor 1 - alpha*lam
    raises PoleError when ``strict``; otherwise that element comes back inf
    or nan, which lets a grid of decoupled lambda values be solved in one
    pass with each pole confined to its own cell.
    """

    def __init__(self, lam, strict=True):
        self.lam = lam if np.isscalar(lam) else np.asarray(lam)
        self.strict = strict

    def __call__(self, t, u):
        return self.lam * u

    def solve_implicit(self, t, alpha, rhs, guess=None):
        factor = 1.0 - alpha * self.lam
        if self.strict and np.any(np.abs(factor) < 1e-300):
            raise PoleError(f"implicit factor vanished: 1 - alpha*lam = 0 at alpha={alpha}")
        with np.errstate(divide="ignore", invalid="ignore"):
            return rhs / factor


class ZeroOperator:
    """The identically-zero operator; implicit solves are the identity."""

    def __call__(self, t, u):
        return np.zeros_like(u)

    def solve_implicit(self, t, alpha, rhs, guess=None):
        return np.array(rhs, copy=True)


class MatrixLinearOperator:
    """f(t, u) = A @ u for a fixed dense matrix; solves by direct factorization."""

    def __init__(self, A):
        self.A = np.asarray(A)

    def __call__(self, t, u):
        return self.A @ u

    def solve_implicit(self, t, alpha, rhs, guess=None):
        n = self.A.shape[0]
        M = np.eye(n, dtype=np.result_type(self.A.dtype, np.asarray(rhs).dtype)) - alpha * self.A
        return np.linalg.solve(M, rhs)
