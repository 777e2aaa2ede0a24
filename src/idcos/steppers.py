"""One-step splitting integrators, one definition per scheme.

* ``lie_trotter_step``  -- backward Euler on each operator in sequence,
* ``strang_step``       -- the palindromic half/full/half trapezoidal sweep,
* ``adi_step``          -- the Peaceman-Rachford two-half-step update.

Each implicit sub-step solves  x - alpha*f_nu(t*, x) = rhs,  dispatched to
the operator's own ``solve_implicit`` when it has one and to Newton
otherwise.  Steppers are stateless; all state lives in the arguments.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (LinearSolveError, NewtonError, UnsupportedSchemeError,
                     UsageError)

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iters: int = 50

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise UsageError("Newton tolerances must be positive")
        if self.max_iters < 1:
            raise UsageError("Newton needs at least one iteration")


DEFAULT_NEWTON = NewtonConfig()


def _max_norm(v):
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


def fd_jacobian(f, x, f0=None):
    """Forward-difference Jacobian of f at x, on the flattened state."""
    x = np.asarray(x)
    if f0 is None:
        f0 = np.asarray(f(x))
    flat = x.ravel()
    n = flat.size
    J = np.empty((n, n), dtype=np.result_type(f0.dtype, float))
    for i in range(n):
        step = _SQRT_EPS * (1.0 + abs(flat[i]))
        xp = flat.copy()
        xp[i] += step
        J[:, i] = ((np.asarray(f(xp.reshape(x.shape))) - f0) / step).ravel()
    return J


def newton_solve(residual, jacobian, guess, cfg=DEFAULT_NEWTON):
    """Newton iteration for residual(x) = 0.

    ``jacobian(x)`` must return the residual's Jacobian, either as a dense
    matrix over the flattened state or as an object with a ``solve`` method.
    Convergence: max-norm of the residual below abs_tol + rel_tol * initial.
    """
    x = np.array(guess, copy=True)
    r = np.asarray(residual(x))
    norm0 = _max_norm(r)
    if not np.isfinite(norm0):
        raise NewtonError("residual is non-finite at the initial guess",
                          iterations=0, residual_norm=norm0, last_iterate=x)
    target = cfg.abs_tol + cfg.rel_tol * norm0
    if norm0 <= target:
        return x
    for it in range(1, cfg.max_iters + 1):
        J = jacobian(x)
        try:
            if hasattr(J, "solve"):
                delta = np.asarray(J.solve(r.ravel())).reshape(x.shape)
            else:
                delta = np.linalg.solve(J, r.ravel()).reshape(x.shape)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"singular Jacobian in Newton step {it}") from exc
        x = x - delta
        r = np.asarray(residual(x))
        norm = _max_norm(r)
        if not np.isfinite(norm):
            raise NewtonError("Newton iterate diverged to non-finite values",
                              iterations=it, residual_norm=norm, last_iterate=x)
        if norm <= target:
            return x
    raise NewtonError(
        f"Newton did not converge in {cfg.max_iters} iterations "
        f"(last residual {norm:.3e}, target {target:.3e})",
        iterations=cfg.max_iters, residual_norm=norm, last_iterate=x)


def solve_substep(problem, index, t, alpha, rhs, guess, newton=DEFAULT_NEWTON):
    """Solve  x - alpha*f_index(t, x) = rhs  (index is 0-based).

    Uses the operator's own implicit solver when available, otherwise Newton
    with the supplied (or finite-difference) Jacobian.
    """
    op = problem.operators[index]
    solver = getattr(op, "solve_implicit", None)
    if solver is not None:
        return solver(t, alpha, rhs, guess=guess, newton=newton)

    def residual(x):
        return x - alpha * np.asarray(op(t, x)) - rhs

    jac_f = problem.jacobian_for(index)

    def jacobian(x):
        if jac_f is not None:
            Jf = np.asarray(jac_f(t, x))
        else:
            Jf = fd_jacobian(lambda y: np.asarray(op(t, y)), x)
        return np.eye(Jf.shape[0], dtype=Jf.dtype) - alpha * Jf

    try:
        return newton_solve(residual, jacobian, guess, newton)
    except NewtonError as exc:
        exc.operator_index = index + 1
        exc.time = t
        raise


def lie_trotter_step(problem, t, dt, u, newton=DEFAULT_NEWTON):
    """Sequential backward Euler over the operators (first order).

    Each sub-problem  x - dt*f_nu(t+dt, x) = previous  is solved in operator
    index order.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    x = np.asarray(u)
    for nu in range(problem.num_operators):
        x = solve_substep(problem, nu, t + dt, dt, x, guess=x, newton=newton)
    return x


def _trapezoid_substep(problem, nu, t_a, t_b, u, newton):
    # one implicit-trapezoid sub-solve of u' = f_nu over [t_a, t_b]
    half = 0.5 * (t_b - t_a)
    op = problem.operators[nu]
    rhs = u + half * np.asarray(op(t_a, u))
    return solve_substep(problem, nu, t_b, half, rhs, guess=u, newton=newton)


def strang_step(problem, t, dt, u, newton=DEFAULT_NEWTON):
    """Palindromic trapezoidal splitting (second order) for 2 or 3 operators.

    Three operators: f_1 and f_2 take half-interval sub-steps around a full
    f_3 sub-step; two operators drop the middle stage.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    L = problem.num_operators
    if L not in (2, 3):
        raise UnsupportedSchemeError(
            f"this splitting handles 2 or 3 operators, problem has {L}")
    th = t + 0.5 * dt
    t1 = t + dt
    x = np.asarray(u)
    x = _trapezoid_substep(problem, 0, t, th, x, newton)
    x = _trapezoid_substep(problem, 1, th, t1, x, newton)
    if L == 3:
        x = _trapezoid_substep(problem, 2, t, t1, x, newton)
    x = _trapezoid_substep(problem, 1, t, th, x, newton)
    x = _trapezoid_substep(problem, 0, th, t1, x, newton)
    return x


def adi_step(problem, t, dt, u, newton=DEFAULT_NEWTON):
    """Peaceman-Rachford update for exactly two operators (second order).

    Half step implicit in f_1 with f_2 frozen at t, then half step implicit
    in f_2 with the f_1 stage value frozen at t+dt/2.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    if problem.num_operators != 2:
        raise UnsupportedSchemeError(
            f"alternating-direction stepping needs exactly 2 operators, "
            f"problem has {problem.num_operators}")
    th = t + 0.5 * dt
    half = 0.5 * dt
    u = np.asarray(u)
    rhs1 = u + half * np.asarray(problem.operators[1](t, u))
    mid = solve_substep(problem, 0, th, half, rhs1, guess=u, newton=newton)
    rhs2 = mid + half * np.asarray(problem.operators[0](th, mid))
    return solve_substep(problem, 1, t + dt, half, rhs2, guess=mid, newton=newton)


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
