"""One-step splitting integrators and the additive-RK tableau machinery.

The named steppers implement, verbatim:

* ``lie_trotter_step``  -- backward Euler on each operator in sequence,
* ``strang_step``       -- the palindromic half/full/half trapezoidal sweep,
* ``adi_step``          -- the Peaceman-Rachford two-half-step update,

and ``ark_step`` drives any lower-triangular additive Butcher tableau.  Each
implicit sub-step solves  x - alpha*f_nu(t*, x) = rhs,  dispatched to the
operator's own ``solve_implicit`` when it has one and to Newton otherwise.
Steppers are stateless; all state lives in the arguments.
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


def lie_trotter_step(problem, t, dt, u, newton=DEFAULT_NEWTON, operator_order=None):
    """Sequential backward Euler over the operators (first order).

    Each sub-problem  x - dt*f_nu(t+dt, x) = previous  is solved in operator
    index order unless a different order is requested.
    """
    if not dt > 0:
        raise UsageError(f"step size must be positive, got dt={dt}")
    order = range(problem.num_operators) if operator_order is None else operator_order
    x = np.asarray(u)
    for nu in order:
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


class ButcherTableauARK:
    """Per-operator coefficient arrays (c, a, b) of a p-stage additive RK method.

    Shapes: c is (L, p), a is (L, p, p) lower triangular, b is (L, p).
    The c entries are the evaluation times taken from the splitting update
    equations; for differential splitting they legitimately differ from the
    per-operator row sums (that deviation is the splitting).  ``row_sum_defect``
    reports the largest such deviation over entries that are actually used.
    """

    def __init__(self, c, a, b):
        self.c = np.asarray(c, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.c.ndim != 2 or self.b.shape != self.c.shape:
            raise UsageError("c and b must both have shape (num_operators, stages)")
        L, p = self.c.shape
        if self.a.shape != (L, p, p):
            raise UsageError(f"a must have shape ({L}, {p}, {p}), got {self.a.shape}")
        for nu in range(L):
            if np.any(np.triu(self.a[nu], k=1) != 0):
                raise UnsupportedSchemeError(
                    "only lower-triangular (diagonally implicit) tableaux are supported")
        # which stage values feed operator nu anywhere (a columns or b weights)
        self._used = np.zeros((L, p), dtype=bool)
        for nu in range(L):
            self._used[nu] = (self.a[nu] != 0).any(axis=0) | (self.b[nu] != 0)

    @property
    def num_operators(self):
        return self.c.shape[0]

    @property
    def stages(self):
        return self.c.shape[1]

    def row_sum_defect(self):
        """max |sum_j a[nu,i,j] - c[nu,i]| over used stage entries."""
        defect = 0.0
        sums = self.a.sum(axis=2)
        for nu in range(self.num_operators):
            used = self._used[nu]
            if used.any():
                defect = max(defect, float(np.max(np.abs(sums[nu, used] - self.c[nu, used]))))
        return defect


def lie_trotter_tableau(num_operators=2):
    """Tableau of the sequential backward-Euler sweep: L+1 stages.

    Stage 1 is the step's initial value; stage nu+1 is the state after the
    backward-Euler solve of operator nu, all evaluated at the step end.
    """
    L = num_operators
    p = L + 1
    c = np.ones((L, p))
    c[:, 0] = 0.0
    a = np.zeros((L, p, p))
    b = np.zeros((L, p))
    for nu in range(L):
        a[nu, nu + 1:, nu + 1] = 1.0
        b[nu, nu + 1] = 1.0
        c[nu, :nu + 1] = 0.0
    return ButcherTableauARK(c, a, b)


def strang_tableau(num_operators=3):
    """Tableau of the palindromic trapezoidal sweep (6 stages).

    For two operators the middle-operator block is dropped; stage 4 then
    simply copies stage 3 and carries the second evaluation time of f_2.
    """
    q = 0.25
    c3 = [[0, 0.5, 0, 0, 0.5, 1],
          [0, 0.5, 1, 0, 0.5, 0],
          [0, 0, 0, 1, 0, 0]]
    a1 = [[0, 0, 0, 0, 0, 0],
          [q, q, 0, 0, 0, 0],
          [q, q, 0, 0, 0, 0],
          [q, q, 0, 0, 0, 0],
          [q, q, 0, 0, 0, 0],
          [q, q, 0, 0, q, q]]
    a2 = [[0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0],
          [0, q, q, 0, 0, 0],
          [0, q, q, 0, 0, 0],
          [0, q, q, q, q, 0],
          [0, q, q, q, q, 0]]
    a3 = [[0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0],
          [0, 0, 0.5, 0.5, 0, 0],
          [0, 0, 0.5, 0.5, 0, 0],
          [0, 0, 0.5, 0.5, 0, 0]]
    b = [[q, q, 0, 0, q, q],
         [0, q, q, q, q, 0],
         [0, 0, 0.5, 0.5, 0, 0]]
    if num_operators == 3:
        return ButcherTableauARK(c3, [a1, a2, a3], b)
    if num_operators == 2:
        return ButcherTableauARK(c3[:2], [a1, a2], b[:2])
    raise UnsupportedSchemeError(
        f"palindromic tableau exists for 2 or 3 operators, not {num_operators}")


def adi_tableau():
    """Tableau of the Peaceman-Rachford update (3 stages, 2 operators)."""
    c = [[0, 0.5, 1],
         [0, 0.5, 1]]
    a1 = [[0, 0, 0],
          [0, 0.5, 0],
          [0, 1, 0]]
    a2 = [[0, 0, 0],
          [0.5, 0, 0],
          [0.5, 0, 0.5]]
    b = [[0, 1, 0],
         [0.5, 0, 0.5]]
    return ButcherTableauARK(c, [a1, a2], b)


def ark_step(tableau, problem, t, dt, u, newton=DEFAULT_NEWTON):
    """One step of the additive RK method defined by the tableau.

    Lower-triangular stages are solved in sequence; a stage that is implicit
    in exactly one operator goes through that operator's sub-step solver, and
    a stage coupling several operators implicitly falls back to a joint
    Newton solve with dense Jacobians.
    """
    if tableau.num_operators != problem.num_operators:
        raise UsageError(
            f"tableau has {tableau.num_operators} operators, "
            f"problem has {problem.num_operators}")
    L, p = tableau.num_operators, tableau.stages
    u = np.asarray(u)
    F = [[None] * p for _ in range(L)]
    stage = u
    for i in range(p):
        B = np.array(u, copy=True).astype(np.result_type(u.dtype, float), copy=False)
        for nu in range(L):
            for j in range(i):
                w = tableau.a[nu, i, j]
                if w != 0.0:
                    B = B + (dt * w) * F[nu][j]
        implicit = [nu for nu in range(L) if tableau.a[nu, i, i] != 0.0]
        if not implicit:
            stage = B
        elif len(implicit) == 1:
            nu = implicit[0]
            stage = solve_substep(problem, nu, t + tableau.c[nu, i] * dt,
                                  dt * tableau.a[nu, i, i], B, guess=stage,
                                  newton=newton)
        else:
            stage = _joint_implicit_stage(problem, tableau, implicit, i, t, dt,
                                          B, guess=stage, newton=newton)
        for nu in range(L):
            if tableau._used[nu, i]:
                F[nu][i] = np.asarray(
                    problem.operators[nu](t + tableau.c[nu, i] * dt, stage))
    out = np.array(u, copy=True).astype(np.result_type(u.dtype, float), copy=False)
    for nu in range(L):
        for i in range(p):
            w = tableau.b[nu, i]
            if w != 0.0:
                out = out + (dt * w) * F[nu][i]
    return out


def _joint_implicit_stage(problem, tableau, implicit, i, t, dt, B, guess, newton):
    # stage implicit in several operators at once: joint dense Newton
    terms = [(nu, t + tableau.c[nu, i] * dt, dt * tableau.a[nu, i, i])
             for nu in implicit]

    def residual(x):
        r = x - B
        for nu, tn, alpha in terms:
            r = r - alpha * np.asarray(problem.operators[nu](tn, x))
        return r

    def jacobian(x):
        n = np.asarray(x).size
        J = np.eye(n)
        for nu, tn, alpha in terms:
            jac_f = problem.jacobian_for(nu)
            if jac_f is not None:
                Jf = np.asarray(jac_f(tn, x))
            else:
                Jf = fd_jacobian(lambda y, nu=nu, tn=tn: np.asarray(problem.operators[nu](tn, y)), x)
            J = J - alpha * Jf
        return J

    return newton_solve(residual, jacobian, guess, newton)


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
