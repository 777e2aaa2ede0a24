"""Integral deferred correction driver over splitting steppers.

Each macro interval is split into M uniform sub-intervals, and one loop
marches a splitting stepper across them: on the problem for the prediction,
and on the transformed error equation for every correction sweep,

    Q'(t) = G(t, Q),   Q(t0) = 0,
    G_nu(t, Q) = f_nu(t, ups(t) + Q - Int(t)) - f_nu(t, ups(t)),

posed as a split problem (``ErrorProblem``), where ups(t) interpolates the
previous level and Int(t) is the integral of its residual.  The update
recovers the error estimate delta_m = Q_m - Int(t_m) and adds it to the
level.  Each sweep lifts the observable order by the corrector's order until
the M+1-node quadrature saturates.

Every residual integral (``polyint.integral_weights``) and interpolation
between nodes (``polyint.lagrange_eval``) is a row of the one exact cardinal
generator: the M+1 node integrals are one product per sweep, and a stage time
builds its own rows.  At a node time ups(t) is the node value itself.  A
sweep memoises its stage-time reads, and each entry lives for one sub-interval.
"""

from dataclasses import dataclass
import re
import warnings
import weakref

import numpy as np

from . import polyint
from .errors import SolverError, StepperError, UnsupportedSchemeError, UsageError
from .polyint import NODE_TOL, UniformNodeSet, lagrange_eval, node_index, partial_integral
from .steppers import STEPPER_ORDERS, get_stepper

_OVERSAMPLED_RE = re.compile(r"oversampled\((\d+)\)$")


def parse_residual_mode(mode):
    """Normalize a residual mode string: 'interpolant' or 'oversampled(N)'."""
    if mode == "interpolant":
        return ("interpolant", None)
    m = _OVERSAMPLED_RE.match(mode)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= polyint.MAX_SUBINTERVALS - 1:
            raise UsageError(f"oversampled node count {n} out of range")
        return ("oversampled", n)
    raise UsageError(f"unknown residual mode {mode!r}")


@dataclass(frozen=True)
class IDCConfig:
    """Configuration of one prediction + corrections pipeline.

    M is the number of sub-intervals per macro step; when omitted it defaults
    to max(sum of scheme orders, 3), which keeps the quadrature accurate
    enough for the requested number of corrections.  Construction checks it
    against the uniform-node range, so a run can reject it before any output.
    """

    corrections: int = 0
    predictor: str = "lie-trotter"
    correctors: object = None  # None (= predictor), a name, or one name per sweep
    M: int = None
    residual_mode: str = "interpolant"

    def __post_init__(self):
        if self.corrections < 0:
            raise UsageError("number of corrections cannot be negative")
        parse_residual_mode(self.residual_mode)
        if isinstance(self.correctors, (list, tuple)):
            if len(self.correctors) != self.corrections:
                raise UsageError("need one corrector name per correction sweep")
        named = [self.correctors] if isinstance(self.correctors, str) else self.correctors or ()
        for name in (self.predictor, *named):
            if name not in STEPPER_ORDERS:
                raise UnsupportedSchemeError(
                    f"unknown scheme {name!r}; choose from {sorted(STEPPER_ORDERS)}")
        polyint.check_subintervals(self.resolved_M())

    def corrector_name(self, k):
        """Scheme used in sweep k (1-based)."""
        if self.correctors is None:
            return self.predictor
        if isinstance(self.correctors, str):
            return self.correctors
        return self.correctors[k - 1]

    def scheme_orders(self):
        orders = [STEPPER_ORDERS[self.predictor]]
        for k in range(1, self.corrections + 1):
            orders.append(STEPPER_ORDERS[self.corrector_name(k)])
        return orders

    def target_order(self):
        return sum(self.scheme_orders())

    def resolved_M(self):
        return self.M if self.M is not None else max(self.target_order(), 3)

    def warn_if_saturated(self):
        """Warn, at the caller's caller, when the target order exceeds M+1."""
        if self.target_order() > self.resolved_M() + 1:
            warnings.warn(f"requested order {self.target_order()} exceeds M+1="
                          f"{self.resolved_M() + 1}; the order will saturate at the "
                          "quadrature accuracy", stacklevel=3)


@dataclass(frozen=True)
class IDCLevelResult:
    """Node values of one level; a sweep reading it evaluates f there itself."""

    nodes: UniformNodeSet
    values: np.ndarray       # (M+1, *state shape)

    @property
    def final_state(self):
        return self.values[-1]


def _cache_rhs(problem, nodes, values):
    """Total rhs f(t_m, values[m]) at every node, shape (M+1, *state shape)."""
    return np.stack([problem.f_total(t, u) for t, u in zip(nodes.times, values)])


def _march_sub_intervals(problem, stepper, nodes, start, sweep):
    """The M+1 states of ``stepper`` marched from ``start``, stacked; a
    SolverError becomes a StepperError naming the node, time and sweep."""
    times = nodes.times
    states = [start]
    for m in range(nodes.M):
        try:
            states.append(stepper(problem, times[m], nodes.h, states[m]))
        except SolverError as exc:
            what = f"correction sweep {sweep}" if sweep else "prediction"
            raise StepperError(f"{what} failed on sub-interval {m}: {exc}",
                               node=m, time=times[m], sweep=sweep) from exc
    return np.stack(states)


def predict(problem, nodes, u0, cfg):
    """March the base stepper across the sub-intervals (level 0)."""
    stepper = problem.predictor_overrides.get(cfg.predictor) or get_stepper(cfg.predictor)
    values = _march_sub_intervals(problem, stepper, nodes, np.asarray(u0), 0)
    return IDCLevelResult(nodes=nodes, values=values)


def _oversampled_rhs(level, problem, n_interior):
    """Total rhs sampled on a finer uniform grid over the macro interval."""
    nodes = level.nodes
    span = nodes.M * nodes.h
    fine = UniformNodeSet(t0=nodes.t0, h=span / (n_interior + 1), M=n_interior + 1)
    g = []
    for t in fine.times:
        ups = lagrange_eval(nodes, level.values, t)
        g.append(problem.f_total(t, ups))
    return fine, np.stack(g)


class _CorrectionOperator:
    """Operator G_nu of the error equation, wrapping a base operator.

    Implicit solves substitute z = ups(t) - shift(t) + Q so all work happens
    in the base operator's own solver.  A base operator with a boundary-free
    linear action L (``apply_homogeneous``/``solve_homogeneous``) gives
    G = L(Q - s), s = ``nodal_shift(t)``, solved as (I - alpha*L)(x - s) = rhs - s.
    """

    def __init__(self, error_problem, nu):
        # weak: the problem holds its operators, and a strong reference back
        # would keep each sweep's caches alive until the cyclic collector runs
        self.ep = weakref.proxy(error_problem)
        self.nu = nu
        base = error_problem.base.operators[nu]
        self.homogeneous = getattr(base, "apply_homogeneous", None)
        self.solve_hom = getattr(base, "solve_homogeneous", None)

    def __call__(self, t, w):
        ep = self.ep
        if self.homogeneous is not None:
            return self.homogeneous(t, w - ep.nodal_shift(t))
        arg = ep.interpolant(t) + w - ep.shift(t)
        return np.asarray(ep.base.operators[self.nu](t, arg)) - ep.f_at_interpolant(self.nu, t)

    def solve_implicit(self, t, alpha, rhs, guess=None):
        ep = self.ep
        # each solve returns a new array, updated here in place
        if self.solve_hom is not None:
            s = ep.nodal_shift(t)
            x = self.solve_hom(t, alpha, rhs - s)
            x += s
            return x
        # substitute z = offset + w, solve the base problem's sub-step for z
        offset = ep.interpolant(t) - ep.shift(t)
        rhs_z = rhs + offset
        rhs_z -= alpha * ep.f_at_interpolant(self.nu, t)
        g = offset + (guess if guess is not None else np.zeros_like(offset))
        z = ep.base.operators[self.nu].solve_implicit(t, alpha, rhs_z, guess=g)
        z -= offset
        return z


class ErrorProblem:
    """The error equation of one correction sweep, posed as a split problem.

    A stepper reads its ``operators`` (the G_nu) as a ``SplitIVP``'s; a
    corrector override may read the shifts and the base problem too.

    The residual mode chooses only the quadrature data: f at the level's
    nodes ('interpolant') or, through its interpolant, on a finer grid
    ('oversampled(N)'), evaluated here: this sweep is the only reader.
    Either way every integral is a row of ``polyint.integral_weights`` over
    that data.  The M+1 node shifts are one product, made here; a read at a
    node time (``polyint.node_index``) is a row of it, and the interpolant
    there is the node value itself.  A time between nodes interpolates the
    level and builds its own weight row.

    The four per-time reads (ups, shift, nodal shift, f at ups) are memoised
    for one sub-interval.  A read at node t_m ends sub-interval m-1, and one
    between nodes lies in floor(tau).  Steppers read forward only, so once
    reads reach a later sub-interval the entries before its start go, and a
    sweep holds a few stage fields, not O(M).
    """

    def __init__(self, problem, level, residual_mode="interpolant"):
        kind, n_over = parse_residual_mode(residual_mode)
        self.base = problem
        self.level = level
        self._ups = {}
        self._shift = {}
        self._nodal_shift = {}
        self._feval = {}             # t -> {nu: f_nu(t, ups(t))}
        self._sub = 0                # sub-interval of the latest read
        if kind == "oversampled":
            self._quad_nodes, self._quad_values = _oversampled_rhs(level, problem, n_over)
        else:
            self._quad_nodes = level.nodes
            self._quad_values = _cache_rhs(problem, level.nodes, level.values)
        shifts = (level.values - level.values[0]) - partial_integral(
            self._quad_nodes, self._quad_values, level.nodes.times)
        shifts.setflags(write=False)
        self.node_shifts = shifts
        self.num_operators = problem.num_operators
        self.operators = tuple(_CorrectionOperator(self, nu)
                               for nu in range(self.num_operators))

    def _node(self, t):
        """Index of the node at time t, or None between nodes; a read in a
        later sub-interval first drops the memo entries before its start."""
        nodes = self.level.nodes
        tau = nodes.local(t)
        m = node_index(nodes.M, tau)
        sub = int(np.floor(tau)) if m is None else m - 1
        if sub > self._sub:
            self._sub = sub
            start = nodes.t0 + nodes.h * (sub - NODE_TOL)
            for memo in (self._ups, self._shift, self._nodal_shift, self._feval):
                for old in [k for k in memo if k < start]:
                    del memo[old]
        return m

    def interpolant(self, t):
        m = self._node(t)
        if m is not None:
            return self.level.values[m]
        if t not in self._ups:
            self._ups[t] = lagrange_eval(self.level.nodes, self.level.values, t)
        return self._ups[t]

    def shift(self, t):
        """Integral of the residual from t0 to t."""
        m = self._node(t)
        if m is not None:
            return self.node_shifts[m]
        if t not in self._shift:
            self._shift[t] = (self.interpolant(t) - self.level.values[0]
                              - partial_integral(self._quad_nodes, self._quad_values, t))
        return self._shift[t]

    def nodal_shift(self, t):
        """``shift(t)`` at a node time, linear in t between the two nodes.

        Stiff modes oscillate from node to node after an implicit-trapezoid
        prediction, and interpolating them to mid-cell amplifies the
        oscillation by the binomial growth of the cardinal functions.  Node
        values keep the corrector's order and its practical stability on
        semi-discrete diffusion.
        """
        if self._node(t) is not None:
            return self.shift(t)
        if t not in self._nodal_shift:
            nodes = self.level.nodes
            tau = nodes.local(t)
            m = int(np.floor(tau))
            t_m = nodes.t0 + nodes.h * m
            theta = tau - m
            self._nodal_shift[t] = ((1.0 - theta) * self.shift(t_m)
                                    + theta * self.shift(t_m + nodes.h))
        return self._nodal_shift[t]

    def f_at_interpolant(self, nu, t):
        self._node(t)
        at_t = self._feval.setdefault(t, {})
        if nu not in at_t:
            at_t[nu] = np.asarray(self.base.operators[nu](t, self.interpolant(t)))
        return at_t[nu]


def correct_once(problem, level, sweep_index, cfg):
    """One correction sweep: march the error equation, add the recovered error."""
    if sweep_index < 1:
        raise UsageError("sweep index is 1-based")
    ep = ErrorProblem(problem, level, residual_mode=cfg.residual_mode)
    name = cfg.corrector_name(sweep_index)
    stepper = problem.corrector_overrides.get(name) or get_stepper(name)
    Q = _march_sub_intervals(ep, stepper, level.nodes, np.zeros_like(level.values[0]),
                             sweep_index)
    # in place, so a sweep allocates no second level: delta = Q - Int, plus the level
    Q -= ep.node_shifts
    Q += level.values
    return IDCLevelResult(nodes=level.nodes, values=Q)


def solve_macro_interval(problem, nodes, u0, cfg):
    """Prediction plus all correction sweeps on one macro interval."""
    level = predict(problem, nodes, u0, cfg)
    for k in range(1, cfg.corrections + 1):
        level = correct_once(problem, level, k, cfg)
    return level


def idc_march(problem, macro_steps, cfg):
    """Iterate (nodes, level) over N uniform macro steps of the time span.

    Step n covers [t0 + n*H, t0 + (n+1)*H] and starts from the final state of
    step n-1; its level is the last correction level.  The step count and
    the initial state are checked, and the order-saturation warning given,
    when this is called: a non-finite initial state is a UsageError.  A step
    that fails, or whose final state is non-finite, raises StepperError
    naming its ``macro_step`` (``_march``); no yielded state is non-finite.
    """
    if macro_steps < 1:
        raise UsageError("need at least one macro step")
    if not np.isfinite(problem.initial_state).all():
        raise UsageError("initial value contains non-finite entries")
    cfg.warn_if_saturated()
    return _march(problem, macro_steps, cfg)


def _march(problem, macro_steps, cfg):
    """``idc_march``'s loop, and the one finiteness check of a marched state:
    a step ending non-finite fails with its step, end time and first
    non-finite node, and a sweep's failure gets ``macro step n at t=...: ``."""
    t0, t1 = problem.t_span
    M = cfg.resolved_M()
    H = (t1 - t0) / macro_steps
    u = np.asarray(problem.initial_state)
    for n in range(macro_steps):
        nodes = UniformNodeSet(t0=t0 + n * H, h=H / M, M=M)
        try:
            # overflow is this loop's to report, as a non-finite step below
            with np.errstate(over="ignore", invalid="ignore"):
                level = solve_macro_interval(problem, nodes, u, cfg)
        except StepperError as exc:
            exc.macro_step = n
            exc.args = (f"macro step {n} at t={exc.time}: {exc}",)
            raise
        u = level.final_state
        if not np.isfinite(u).all():
            node = tuple(map(int, np.unravel_index(np.argmin(np.isfinite(u)), u.shape)))
            raise StepperError(f"macro step {n} at t={nodes.t_end}: non-finite state at "
                               f"node {node}", time=nodes.t_end, macro_step=n)
        yield nodes, level


def idc_solve(problem, macro_steps, cfg):
    """Final state after N uniform macro steps of ``idc_march`` over the time span."""
    for _, level in idc_march(problem, macro_steps, cfg):
        pass
    return np.array(level.final_state)  # a copy: a view would keep the whole level
