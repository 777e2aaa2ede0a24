"""One-step splitting integrators, one definition per scheme.

* ``lie_trotter_step``  -- backward Euler on each operator in sequence,
* ``strang_step``       -- the palindromic half/full/half trapezoidal sweep,
* ``adi_step``          -- the Peaceman-Rachford two-half-step update.

Each implicit sub-step  x - alpha*f_nu(t*, x) = rhs  is the operator's own
``operators[nu].solve_implicit(t*, alpha, rhs, guess)``; there is no generic
Newton fallback.  Steppers are stateless; all state lives in the arguments.
"""

import numpy as np

from .errors import UnsupportedSchemeError, UsageError

# The operator counts each scheme takes, and how its check words a mismatch;
# Lie-Trotter takes any number.
OPERATOR_COUNTS = {
    "strang": ((2, 3), "this splitting handles 2 or 3 operators"),
    "adi": ((2,), "alternating-direction stepping needs exactly 2 operators"),
}


def check_operator_count(scheme, count):
    """Raise UnsupportedSchemeError unless the scheme takes ``count`` operators."""
    counts, need = OPERATOR_COUNTS.get(scheme, (None, None))
    if counts is not None and count not in counts:
        raise UnsupportedSchemeError(f"{need}, problem has {count}")


def lie_trotter_step(problem, t, dt, u):
    """Sequential backward Euler over the operators (first order).

    Each sub-problem  x - dt*f_nu(t+dt, x) = previous  is solved in operator
    index order.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    x = np.asarray(u)
    for op in problem.operators:
        x = op.solve_implicit(t + dt, dt, x, guess=x)
    return x


def _trapezoid_substep(problem, nu, t_a, t_b, alpha, u):
    # one implicit-trapezoid sub-solve of u' = f_nu over [t_a, t_b], with
    # alpha = (t_b - t_a)/2 given from dt, not from the rounded times
    op = problem.operators[nu]
    rhs = u + alpha * np.asarray(op(t_a, u))
    return op.solve_implicit(t_b, alpha, rhs, guess=u)


def strang_step(problem, t, dt, u):
    """Palindromic trapezoidal splitting (second order) for 2 or 3 operators.

    Three operators: f_1 and f_2 take half-interval sub-steps around a full
    f_3 sub-step; two operators drop the middle stage.  Each sub-step's
    alpha comes from dt, dt/4 for a half interval and dt/2 for the full one,
    so every sub-step of an operator asks its solver for the same alpha.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    L = problem.num_operators
    check_operator_count("strang", L)
    th = t + 0.5 * dt
    t1 = t + dt
    quarter = 0.25 * dt
    x = np.asarray(u)
    x = _trapezoid_substep(problem, 0, t, th, quarter, x)
    x = _trapezoid_substep(problem, 1, th, t1, quarter, x)
    if L == 3:
        x = _trapezoid_substep(problem, 2, t, t1, 0.5 * dt, x)
    x = _trapezoid_substep(problem, 1, t, th, quarter, x)
    x = _trapezoid_substep(problem, 0, th, t1, quarter, x)
    return x


def adi_step(problem, t, dt, u):
    """Peaceman-Rachford update for exactly two operators (second order).

    Half step implicit in f_1 with f_2 frozen at t, then half step implicit
    in f_2 with the f_1 stage value frozen at t+dt/2.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    check_operator_count("adi", problem.num_operators)
    th = t + 0.5 * dt
    half = 0.5 * dt
    u = np.asarray(u)
    op1, op2 = problem.operators
    rhs1 = u + half * np.asarray(op2(t, u))
    mid = op1.solve_implicit(th, half, rhs1, guess=u)
    rhs2 = mid + half * np.asarray(op1(th, mid))
    return op2.solve_implicit(t + dt, half, rhs2, guess=mid)


_STEPPERS = {
    "lie-trotter": lie_trotter_step,
    "strang": strang_step,
    "adi": adi_step,
}

STEPPER_ORDERS = {"lie-trotter": 1, "strang": 2, "adi": 2}


def get_stepper(name):
    """Look up a named one-step method: 'lie-trotter', 'strang' or 'adi'."""
    try:
        return _STEPPERS[name]
    except KeyError:
        raise UnsupportedSchemeError(
            f"unknown scheme {name!r}; choose from {sorted(_STEPPERS)}") from None
