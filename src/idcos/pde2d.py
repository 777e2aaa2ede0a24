"""Method-of-lines reduction of 2D parabolic problems to split IVPs.

The PDE  u_t = div(a(x,y) grad u) + s(t,u)  is discretized on a tensor grid
in non-divergence form  a*u_xx + a_x*u_x + a*u_yy + a_y*u_y + s,  with the
coefficient derivatives supplied analytically.  The x-direction terms, the
y-direction terms and the pointwise source become the split operators.  Each
direction operator builds its line operator L once, coefficients folded in:
one shared line for constant coefficients, one line per grid line otherwise.
Application, wall terms and implicit sub-steps all read that L; an implicit
sub-step is independent line solves with the ``BandedMatrix`` of I - alpha*L.
Each direction keeps only the factor of the step size in use: a scheme asks
an operator for one alpha per step size, and a ladder runs every correction
count of a rung before the next rung.  A shared line is solved by its
precomputed inverse, one matrix product over the whole field; stacked lines
by their banded LU: when no line swapped rows, two unit-diagonal band sweeps
over the whole stack with one scaling by the reciprocal pivots between them,
LAPACK gbtrs otherwise.  An ADI step takes its explicit x half-step from the
x-sweep's own solve, so it makes one explicit operator application, not two.
On Dirichlet grids each direction operator keeps the wall values and the
wall terms of its last ``WALL_MEMO_TIMES`` (8) distinct times, keyed by the
exact float t and shared by every caller: a macro step's predictor,
correction sweeps and Peaceman-Rachford intermediate walls read the same node
times, and each node time's terms are formed once per macro step.  The terms
are kept as the two wall strips, not as whole fields: per operator 48 N
doubles at the sixth order, 23 KB at N=60 and 77 KB at N=200, plus 16 N
doubles of wall values.  Each boundary field is a fresh array with the kept
strips written in.

Fields are stored row-major with y as the outer index, shape (N_y, N_x);
multi-component states (periodic grids only) prepend the component axis.
x-direction lines are the rows of a field, y-direction lines its columns.
"""

from dataclasses import dataclass
import numbers

import numpy as np
import scipy.sparse as sp

from .banded import BandedMatrix
from .errors import LinearSolveError, NewtonError, UsageError
from .ode import SplitIVP
from .stencils import build_stencil

# the pointwise Newton stops once the max-norm residual is at most
# NEWTON_TOL * (1 + |r_0|), and raises NewtonError after NEWTON_MAX_ITERS steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 50

# a direction operator keeps the wall data of this many distinct times: the 6
# node times of a macro step at M = 5, which the predictor and every
# correction sweep read again, and the stage times read between them.  On the
# heat ladder 8 keeps nearly every hit of 12 or 16: the wall terms of 3,660
# times are formed where 9,000 were unmemoised, against 3,624 at 12 or 16
WALL_MEMO_TIMES = 8


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product grid on a rectangle.

    Dirichlet grids hold N interior nodes per axis with the walls as known
    extended nodes; periodic grids hold N nodes covering one period.
    """

    x_span: tuple
    y_span: tuple
    N_x: int
    N_y: int
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.bc not in ("dirichlet", "periodic"):
            raise UsageError(f"unknown boundary kind {self.bc!r}")
        if self.N_x < 1 or self.N_y < 1:
            raise UsageError("grid needs at least one node per axis")
        for lo, hi in (self.x_span, self.y_span):
            if not (np.isfinite([lo, hi]).all() and hi > lo):
                raise UsageError("grid spans must be finite with positive length")

    @property
    def dx(self):
        lo, hi = self.x_span
        return (hi - lo) / (self.N_x + 1 if self.bc == "dirichlet" else self.N_x)

    @property
    def dy(self):
        lo, hi = self.y_span
        return (hi - lo) / (self.N_y + 1 if self.bc == "dirichlet" else self.N_y)

    @property
    def xs(self):
        lo = self.x_span[0]
        start = 1 if self.bc == "dirichlet" else 0
        return lo + self.dx * np.arange(start, start + self.N_x)

    @property
    def ys(self):
        lo = self.y_span[0]
        start = 1 if self.bc == "dirichlet" else 0
        return lo + self.dy * np.arange(start, start + self.N_y)

    @property
    def shape(self):
        return (self.N_y, self.N_x)

    def mesh(self):
        X, Y = np.meshgrid(self.xs, self.ys)
        return X, Y


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion coefficient a(x,y) and its analytic partial derivatives."""

    a: np.ndarray
    a_x: np.ndarray
    a_y: np.ndarray

    def __post_init__(self):
        if not (all(np.isfinite(v).all() for v in (self.a, self.a_x, self.a_y))
                and (np.asarray(self.a) > 0).all()):
            raise UsageError("parabolicity requires a > 0 everywhere, and a, a_x, a_y finite")

    @classmethod
    def from_callables(cls, grid, a, a_x=None, a_y=None):
        X, Y = grid.mesh()
        zero = np.zeros(grid.shape)
        return cls(a=np.broadcast_to(a(X, Y), grid.shape).copy(),
                   a_x=zero if a_x is None else np.broadcast_to(a_x(X, Y), grid.shape).copy(),
                   a_y=zero if a_y is None else np.broadcast_to(a_y(X, Y), grid.shape).copy())

    @classmethod
    def constant(cls, grid, value):
        full = np.full(grid.shape, float(value))
        zero = np.zeros(grid.shape)
        return cls(a=full, a_x=zero, a_y=zero)


class DirectionalDiffusionOperator:
    """One direction's diffusion terms  L u + boundary,  L = a d2 + slope d1.

    ``slope`` is the coefficient's own derivative along this axis (a_x for
    the x-direction).  ``L`` is built once with a and slope folded into the
    stencil rows, as lines stacked into an (n_lines * n, n) CSR: one shared
    line when ``constant`` is set, else one per grid line of this direction.
    It is applied as one multi-vector product with the shared line or one
    block-diagonal matvec over the stack.  Only the factor of (I - alpha*L)
    for the step size in use is kept, and a solve with a new alpha drops the
    others: the shared line as its inverse, applied to the whole field as one
    matrix product, stacked lines as their banded LU (two unit-diagonal
    band sweeps per solve when no row was swapped).  On Dirichlet grids
    ``wall_weights`` holds the folded weights of each line's two wall values,
    one row per line, for the boundary contribution: the only time-dependent
    piece.  Those weights are nonzero only within the first and last
    ``strip`` nodes of a line (3 for the sixth-order closures), and the wall
    terms are written on those two strips of a zero field alone.  The wall
    values and the two strips' terms of the last ``WALL_MEMO_TIMES`` (8)
    distinct times are kept in two insertion-ordered tables, keyed by the
    exact float t with no rounding, the oldest dropped first, and shared by
    every caller; the strips are read-only.  The strips take 2 * strip * N
    doubles a time: at the sixth order 23 KB at N=60 and 77 KB at N=200 for
    all 8 times.  Whole fields are not kept: held between a macro step's
    reads, 8 of them raised the heat ladder's peak RSS by 0.47-0.63 MB.
    """

    def __init__(self, grid, axis, coeff, order=6, boundary=None):
        if grid.bc == "dirichlet" and boundary is None:
            raise UsageError("Dirichlet grids need a boundary function g(x, y, t)")
        self.grid = grid
        self.axis = axis
        self.boundary = boundary
        if isinstance(coeff, CoefficientField):
            a, slope = coeff.a, coeff.a_x if axis == "x" else coeff.a_y
        else:
            a, slope = float(coeff), 0.0
        terms = [(a, 2)] + ([(slope, 1)] if np.any(np.asarray(slope) != 0) else [])
        self.constant = len(terms) == 1 and np.ptp(a) == 0
        n_lines = 1 if self.constant else grid.N_y if axis == "x" else grid.N_x
        stacks, walls = [], []
        for coef, derivative in terms:
            stencil = build_stencil(grid, axis, derivative, order)
            coef = np.broadcast_to(coef, grid.shape)
            coef = (coef if axis == "x" else coef.T)[:n_lines]
            # scaling each row's data keeps the stencil's entry order, so a
            # unit coefficient folds exactly
            stack = sp.vstack([stencil.matrix] * n_lines, format="csr")
            stack.data *= np.repeat(coef.ravel(), np.diff(stack.indptr))
            stacks.append(stack)
            if grid.bc == "dirichlet":
                walls.append((coef * stencil.wall_left, coef * stencil.wall_right))
        self.L = sum(stacks[1:], stacks[0])
        self.wall_weights = tuple(sum(w[1:], w[0]) for w in zip(*walls)) or None
        # coordinates along the walls, one per line
        self._along = grid.ys if axis == "x" else grid.xs
        if self.wall_weights is not None:
            w_lo, w_hi = self.wall_weights
            # nonzero columns, each counted from its own wall
            support = (w_lo != 0).any(axis=0) | (w_hi != 0).any(axis=0)[::-1]
            self.strip = int(np.flatnonzero(support)[-1]) + 1
        if not self.constant:  # the stack as one block-diagonal matrix
            L, n = self.L, self.L.shape[1]
            line = np.repeat(np.arange(L.shape[0]) // n, np.diff(L.indptr))
            self._blocks = sp.csr_matrix((L.data, L.indices + n * line, L.indptr),
                                         shape=(L.shape[0],) * 2)
        self._solvers = {}
        self._walls = {}     # t -> (g_lo, g_hi), insertion-ordered
        self._strips = {}    # t -> the two wall strips' terms

    # -- application ------------------------------------------------------

    def apply_homogeneous(self, t, U):
        """L applied to a field, boundary terms dropped."""
        if self.constant:
            return (self.L @ U.T).T if self.axis == "x" else self.L @ U
        lines = U if self.axis == "x" else U.T
        out = (self._blocks @ lines.ravel()).reshape(lines.shape)
        return out if self.axis == "x" else out.T

    def wall_values(self, t):
        """Known values (g_lo, g_hi) on the two walls this direction's lines
        end at, one per line.

        Both are kept for the last ``WALL_MEMO_TIMES`` (8) distinct t,
        keyed by the exact float t: 16 N doubles, 7.7 KB at N=60 and 26 KB at
        N=200.  Every caller shares them, so none may write into them.
        """
        values = self._walls.get(t)
        if values is None:
            g, along = self.boundary, self._along
            if self.axis == "x":
                values = [g(w, along, t) for w in self.grid.x_span]
            else:
                values = [g(along, w, t) for w in self.grid.y_span]
            values = [np.asarray(v, dtype=float) for v in values]
            values = tuple(v if v.shape == along.shape else np.broadcast_to(v, along.shape)
                           for v in values)
            _remember(self._walls, t, values)
        return values

    def wall_contribution(self, g_lo, g_hi):
        """Additive field of the given wall values (one per line) on this
        direction's wall-adjacent rows: w_lo*g_lo + w_hi*g_hi, written on the
        two wall strips alone (summed in that order where they overlap)."""
        return self._strip_field(*self._wall_strips(g_lo, g_hi))

    def _wall_strips(self, g_lo, g_hi):
        """The wall terms on the first and the last ``strip`` nodes of every
        line, node by node: row j is node j's weight times each line's wall
        value, one product over every line at once."""
        w_lo, w_hi = self.wall_weights
        k, n = self.strip, w_lo.shape[1]
        return w_lo[:, :k].T * g_lo, w_hi[:, n - k:].T * g_hi

    def _strip_field(self, lo, hi):
        """A fresh row-major field, zero but for the two wall strips."""
        out = np.zeros(self.grid.shape)
        nodes = out.T if self.axis == "x" else out    # nodes[j]: node j of every line
        nodes[:len(lo)] = lo
        nodes[len(nodes) - len(hi):] += hi
        return out

    def boundary_contribution(self, t):
        """Additive field carrying the known wall values at time t.

        A fresh array each call.  On Dirichlet grids its two wall strips come
        from a table of the last ``WALL_MEMO_TIMES`` (8) distinct t, keyed by
        the exact float t: 2 * strip * N doubles a time, and all 8 take 23 KB
        at N=60 and 77 KB at N=200 at the sixth order.
        """
        if self.grid.bc == "periodic":
            return np.zeros(self.grid.shape)
        strips = self._strips.get(t)
        if strips is None:
            strips = self._wall_strips(*self.wall_values(t))
            for part in strips:
                part.flags.writeable = False
            _remember(self._strips, t, strips)
        return self._strip_field(*strips)

    def __call__(self, t, U):
        out = self.apply_homogeneous(t, U)
        if self.grid.bc == "dirichlet":
            out += self.boundary_contribution(t)
        return out

    # -- implicit solves ---------------------------------------------------

    def _solver(self, alpha):
        """The line solver of (I - alpha*L), one line per line of the stack.

        A new alpha is factored and added to ``_solvers`` beside the factors
        already kept (``perfbench`` counts a factorisation by that growth);
        ``solve_homogeneous`` then keeps only the one in use.
        """
        key = float(alpha)
        solver = self._solvers.get(key)
        if solver is None:
            n = self.L.shape[1]
            eye = sp.vstack([sp.eye(n, format="csr")] * (self.L.shape[0] // n))
            solver = BandedMatrix.from_sparse(eye - alpha * self.L)
            self._solvers[key] = solver
        return solver

    def solve_homogeneous(self, t, alpha, rhs):
        """Solve (I - alpha*L) X = rhs with no boundary terms, keeping only
        this alpha's factor."""
        solver = self._solver(alpha)
        if len(self._solvers) > 1:
            self._solvers = {float(alpha): solver}
        if self.axis == "x":
            return solver.solve(rhs.T).T
        return solver.solve(rhs)

    def solve_implicit(self, t, alpha, rhs, guess=None):
        """Solve X - alpha*f(t, X) = rhs including the boundary contribution."""
        if self.grid.bc == "dirichlet":
            rhs = rhs + alpha * self.boundary_contribution(t)
        return self.solve_homogeneous(t, alpha, rhs)


def _remember(table, t, value):
    """Keep value under t in an insertion-ordered table of at most
    ``WALL_MEMO_TIMES`` entries, dropping the oldest."""
    if len(table) >= WALL_MEMO_TIMES:
        del table[next(iter(table))]
    table[t] = value


class ComponentWiseOperator:
    """Applies an independent directional operator to each state component.

    The grid is periodic: no wall terms.  Components without diffusion carry
    None, with zero rate and the identity as solve.  Each call fills one new
    output with every component's result.
    """

    def __init__(self, ops):
        self.ops = tuple(ops)

    def apply_homogeneous(self, t, U):
        out = np.empty(np.shape(U), np.result_type(U, float))
        for c, op in enumerate(self.ops):
            out[c] = 0.0 if op is None else op.apply_homogeneous(t, U[c])
        return out

    def solve_homogeneous(self, t, alpha, rhs, guess=None):
        out = np.empty(np.shape(rhs), np.result_type(rhs, float))
        for c, op in enumerate(self.ops):
            out[c] = rhs[c] if op is None else op.solve_homogeneous(t, alpha, rhs[c])
        return out

    __call__ = apply_homogeneous
    solve_implicit = solve_homogeneous


class PointwiseSourceOperator:
    """A source acting node-by-node, solved by vectorized per-node Newton.

    ``jacobian(t, U)`` returns ds/du per node, a field or a scalar; for two
    components, the only other count supported, its 2x2 entries
    ((j11, j12), (j21, j22)), each a field or a scalar.  Each Newton step
    divides by the pivot 1 - alpha*J, or solves every node's 2x2 block
    I - alpha*J by Cramer's rule on whole fields.  A zero or non-finite pivot
    or determinant raises ``LinearSolveError`` naming the time and the first
    such node; no convergence within ``NEWTON_MAX_ITERS`` raises
    ``NewtonError`` naming the node of the largest residual.

    A solve allocates its iterate, residual, pivot and step buffers once and
    writes each step's arithmetic into them; it never writes into ``rhs``,
    ``guess`` or what the source or Jacobian returns.
    """

    def __init__(self, source, jacobian, components=1):
        if components not in (1, 2):
            raise UsageError(f"pointwise sources take 1 or 2 components, not {components!r}")
        self.source = source
        self.source_jacobian = jacobian
        self.components = components

    def __call__(self, t, U):
        return np.asarray(self.source(t, U))

    def solve_implicit(self, t, alpha, rhs, guess=None):
        x = np.array(rhs if guess is None else guess, copy=True, dtype=float)
        det = np.empty(x.shape[self.components - 1:])   # one pivot per node
        step = np.empty_like(x)
        r = np.empty_like(x)
        target = None
        for it in range(NEWTON_MAX_ITERS):
            np.multiply(alpha, self.source(t, x), out=r)
            np.subtract(x, r, out=r)
            r -= rhs
            norm = float(max(r.max(), -r.min()))   # max |r|, with no |r| field
            if not np.isfinite(norm):
                raise NewtonError(
                    f"pointwise Newton residual is non-finite after {it} iterations",
                    iterations=it, residual_norm=norm, last_iterate=x, time=t)
            if target is None:
                target = NEWTON_TOL + NEWTON_TOL * norm
            if norm <= target:
                return x
            J = self.source_jacobian(t, x)
            if self.components == 1:
                np.multiply(alpha, J, out=det)
                np.subtract(1.0, det, out=det)
                num = r
            else:  # Cramer's rule on every node's 2x2 block, det as scratch first
                (j11, j12), (j21, j22) = J
                a11, a12 = 1.0 - alpha * j11, -alpha * j12
                a21, a22 = -alpha * j21, 1.0 - alpha * j22
                num = step
                np.multiply(a22, r[0], out=num[0])
                num[0] -= np.multiply(a12, r[1], out=det)
                np.multiply(a11, r[1], out=num[1])
                num[1] -= np.multiply(a21, r[0], out=det)
                np.multiply(a11, a22, out=det)
                det -= a12 * a21
            if not (np.isfinite(det).all() and det.all()):
                singular = (det == 0) | ~np.isfinite(det)
                node = tuple(int(i) for i in np.unravel_index(np.argmax(singular),
                                                              singular.shape))
                raise LinearSolveError(
                    f"singular pointwise Newton block at t={t} node {node}")
            x -= np.divide(num, det, out=step)
        worst = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(r)), r.shape))
        raise NewtonError(
            f"pointwise Newton stalled at node {worst} (residual {norm:.3e})",
            iterations=NEWTON_MAX_ITERS, residual_norm=norm, time=t)


class SemiDiscreteSystem:
    """A 2D parabolic problem reduced to a split IVP.

    f_1 holds the x-direction terms, f_2 the y-direction terms and f_3 the
    pointwise source (when present).  A tuple or list of two or more
    coefficients gives one constant diffusion coefficient per component, each
    None or finite >= 0 (0 or None: no diffusion), on a periodic grid only; a
    CoefficientField or a real constant is the one coefficient of a scalar
    problem.  Anything else raises UsageError.
    """

    def __init__(self, grid, coefficients, order=6, boundary=None,
                 source=None, source_jacobian=None):
        self.grid = grid
        self.order = order
        self.boundary = boundary
        if isinstance(coefficients, (tuple, list)):
            coefficients = tuple(coefficients)
            if len(coefficients) < 2 or not all(
                    D is None or (isinstance(D, numbers.Real) and 0 <= D < np.inf)
                    for D in coefficients):
                raise UsageError(f"a system takes two or more diffusion coefficients, "
                                 f"each None or finite >= 0: {coefficients!r}")
            if grid.bc != "periodic":
                raise UsageError("multi-component systems need a periodic grid")
        elif isinstance(coefficients, numbers.Real):
            coefficients = CoefficientField.constant(grid, coefficients)
        elif not isinstance(coefficients, CoefficientField):
            raise UsageError(f"a scalar problem takes a real or a CoefficientField; a tuple "
                             f"or list gives one coefficient per component: {coefficients!r}")
        self.coefficients = coefficients
        per_component = coefficients if isinstance(coefficients, tuple) else (coefficients,)
        self.components = len(per_component)
        # one operator per direction and component, None where D is 0 or None
        ops_x, ops_y = ([DirectionalDiffusionOperator(grid, axis, D, order=order,
                                                      boundary=boundary) if D else None
                         for D in per_component] for axis in ("x", "y"))
        if self.components == 1:
            (self.op_x,), (self.op_y,) = ops_x, ops_y
        else:
            self.op_x = ComponentWiseOperator(ops_x)
            self.op_y = ComponentWiseOperator(ops_y)
        self.op_source = None
        if source is not None:
            if source_jacobian is None:
                raise UsageError("a pointwise source needs its jacobian for Newton")
            self.op_source = PointwiseSourceOperator(source, source_jacobian,
                                                     components=self.components)

    @property
    def state_shape(self):
        return self.grid.shape if self.components == 1 else (self.components,) + self.grid.shape

    def operators(self):
        ops = [self.op_x, self.op_y]
        if self.op_source is not None:
            ops.append(self.op_source)
        return tuple(ops)

    def split_ivp(self, initial_field, t_span):
        """Expose the semi-discrete system as a split IVP.

        IDC marches one stepper per sweep: the prediction's on this problem,
        each correction's on its sweep's ``ErrorProblem``.  Lie-Trotter and
        Strang march their generic steppers, correcting with the residual
        integral at node values (``ErrorProblem.nodal_shift``).  Only ADI on
        linear scalar problems has overrides, marched in place of
        ``adi_step``.  Its prediction takes the Peaceman-Rachford
        intermediate wall values, so the boundary data enter consistently
        with Crank-Nicolson (see ``adi_pde_step``).  Its factored correction
        gives other numbers than the generic ADI corrector, and the
        benchmark's ADI ladders, blow-up fixture and tracer are built on
        both overrides.
        """
        initial_field = np.asarray(initial_field, dtype=float)
        if initial_field.shape != self.state_shape:
            raise UsageError(
                f"initial field shape {initial_field.shape} does not match "
                f"{self.state_shape}")
        overrides = {}
        corrector_overrides = {}
        if self.op_source is None and self.components == 1:
            overrides["adi"] = lambda problem, t, dt, u: adi_pde_step(self, t, dt, u)
            corrector_overrides["adi"] = self._factored_adi_correction
        return SplitIVP(operators=self.operators(), initial_state=initial_field,
                        t_span=t_span, predictor_overrides=overrides,
                        corrector_overrides=corrector_overrides)

    def _factored_adi_correction(self, ep, t, h, w):
        """Factored node-value step for the linear error equation ``ep``.

        The Crank-Nicolson update of Q' = L(Q - Int(t)) factors into two
        half-step line sweeps once the residual term
        R = -(J1+J2)(Int_m + Int_{m+1}) is split equally between them; the
        equal split makes the pair algebraically identical to the factored
        one-step scheme.  Only node values of the residual integral enter,
        which keeps stiff modes from amplifying off-node interpolation error.
        The x-sweep's explicit term comes from its own solve: (I - J1) mid =
        rhs1 gives (I + J1) mid = 2 mid - rhs1, exact up to the banded solve's
        roundoff, so a step applies L three times, twice for R.
        """
        opx, opy = self.op_x, self.op_y
        half = 0.5 * h
        I_sum = ep.shift(t) + ep.shift(t + h)
        half_R = -0.5 * half * (opx.apply_homogeneous(t, I_sum)
                                + opy.apply_homogeneous(t, I_sum))
        rhs1 = w + half * opy.apply_homogeneous(t, w) + half_R
        mid = opx.solve_homogeneous(t, half, rhs1)
        rhs2 = 2.0 * mid - rhs1 + half_R
        return opy.solve_homogeneous(t, half, rhs2)


def adi_pde_step(system, t, dt, field):
    """Factored alternating-direction (Peaceman-Rachford) sweep for the
    linear scalar problem.

    x-sweep: (I - J1) U* = (I + J2) U + S1* + S2(t),
    y-sweep: (I - J2) U_new = (I + J1) U* + S1* + S2(t + dt),
    with J = (dt/2) L per direction and S the matching boundary terms.  The
    intermediate U* is not the solution at any time; algebraically it is
    1/2 (I + J2) U + 1/2 (I - J2) U_new, so its x-wall values S1* are built
    from the same combination of the boundary data (Fairweather & Mitchell
    1967):  g* = 1/2 (I + (dt/2) L_y) g(t) + 1/2 (I - (dt/2) L_y) g(t + dt),
    with L_y applied along each x-wall and the corner values as its walls.
    Wall values taken at the step endpoints instead leave an error next to
    the walls that grows as the grid is refined.  The y-sweep's (I + J1) U*
    is 2 U* - rhs1, rhs1 the whole x-sweep right-hand side, walls included:
    no second operator call, exact up to the banded solve's roundoff.

    On Dirichlet grids the coefficient must be constant: the correction
    needs L_y on the walls themselves, where no coefficient is stored.
    """
    if system.op_source is not None or system.components != 1:
        raise UsageError("the factored sweep applies to linear scalar problems")
    opx, opy = system.op_x, system.op_y
    half = 0.5 * dt
    dirichlet = system.grid.bc == "dirichlet"
    if dirichlet and not opy.constant:
        raise UsageError("the factored sweep on a Dirichlet grid needs a "
                         "constant diffusion coefficient")
    rhs1 = field + half * opy.apply_homogeneous(t, field)
    if dirichlet:
        S1 = half * opx.wall_contribution(*_intermediate_x_walls(system, t, dt))
        rhs1 = rhs1 + S1 + half * opy.boundary_contribution(t)
    mid = opx.solve_homogeneous(t, half, rhs1)
    rhs2 = 2.0 * mid - rhs1    # (I + J1) U*, since (I - J1) U* = rhs1
    if dirichlet:
        rhs2 = rhs2 + S1 + half * opy.boundary_contribution(t + dt)
    return opy.solve_homogeneous(t, half, rhs2)


def _intermediate_x_walls(system, t, dt):
    """The Peaceman-Rachford intermediate's values on the two x-walls.

    Per wall, g* = 1/2 (g(t) + g(t+dt)) + (dt/4) L_y (g(t) - g(t+dt)), with
    L_y the y-operator's shared line and its wall weights (``op_y.L`` and
    ``op_y.wall_weights``) along the wall, whose own walls are the corners.
    """
    opx, opy = system.op_x, system.op_y
    (w_lo,), (w_hi,) = opy.wall_weights
    g = system.boundary
    y_lo, y_hi = system.grid.y_span
    walls = []
    for x, now, new in zip(system.grid.x_span, opx.wall_values(t),
                           opx.wall_values(t + dt)):
        curvature = (opy.L @ (now - new) + w_lo * (g(x, y_lo, t) - g(x, y_lo, t + dt))
                     + w_hi * (g(x, y_hi, t) - g(x, y_hi, t + dt)))
        walls.append(0.5 * (now + new) + 0.25 * dt * curvature)
    return walls

