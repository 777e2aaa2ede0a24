"""Integral deferred correction driver over splitting steppers.

Each macro time interval is subdivided into M uniform sub-intervals.  A base
splitting stepper produces the prediction level; every correction sweep then
solves the transformed error equation

    Q'(t) = G(t, Q),   Q(t0) = 0,
    G_nu(t, Q) = f_nu(t, ups(t) + Q - Int(t)) - f_nu(t, ups(t)),

with the same kind of splitting stepper, where ups(t) interpolates the
previous level and Int(t) is the integral of its residual.  The update
recovers the error estimate delta_m = Q_m - Int(t_m) and adds it to the
level.  Each sweep lifts the observable order by the corrector's order until
the M+1-node quadrature saturates.
"""

from dataclasses import dataclass
import re
import warnings
import weakref

import numpy as np

from . import polyint
from .errors import SolverError, StepperError, UsageError
from .ode import SplitIVP, Trajectory
from .polyint import UniformNodeSet, lagrange_eval, partial_integral
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
    enough for the requested number of corrections.
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


def predict(problem, nodes, u0, cfg):
    """March the base stepper across the sub-intervals (level 0)."""
    u0 = np.asarray(u0)
    if not np.isfinite(u0).all():
        raise UsageError("initial value contains non-finite entries")
    override = problem.predictor_overrides.get(cfg.predictor)
    stepper = override if override is not None else get_stepper(cfg.predictor)
    times = nodes.times
    values = [u0]
    for m in range(nodes.M):
        try:
            values.append(stepper(problem, times[m], nodes.h, values[m]))
        except SolverError as exc:
            raise StepperError(f"prediction failed on sub-interval {m}: {exc}",
                               node=m, time=times[m], sweep=0) from exc
    return IDCLevelResult(nodes=nodes, values=np.stack(values))


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
        if self.solve_hom is not None:
            s = ep.nodal_shift(t)
            return self.solve_hom(t, alpha, rhs - s) + s
        # substitute z = offset + w, solve the base problem's sub-step for z
        offset = ep.interpolant(t) - ep.shift(t)
        rhs_z = rhs + offset - alpha * ep.f_at_interpolant(self.nu, t)
        g = offset + (guess if guess is not None else np.zeros_like(offset))
        z = ep.base.operators[self.nu].solve_implicit(t, alpha, rhs_z, guess=g)
        return z - offset


class ErrorProblem:
    """The error equation of one correction sweep, posed as a split IVP.

    The residual quadrature reads f at the level's nodes ('interpolant') or,
    through its interpolant, on a finer grid ('oversampled(N)'), evaluated
    here: this sweep is the only reader.
    """

    def __init__(self, problem, level, residual_mode="interpolant"):
        kind, n_over = parse_residual_mode(residual_mode)
        self.base = problem
        self.level = level
        self._ups = {}
        self._shift = {}
        self._nodal_shift = {}
        self._feval = {}
        if kind == "oversampled":
            self._quad_nodes, self._quad_values = _oversampled_rhs(level, problem, n_over)
        else:
            self._quad_nodes = level.nodes
            self._quad_values = _cache_rhs(problem, level.nodes, level.values)
        ops = tuple(_CorrectionOperator(self, nu)
                    for nu in range(problem.num_operators))
        self.ivp = SplitIVP(operators=ops,
                            initial_state=np.zeros_like(level.values[0]),
                            t_span=(level.nodes.t0, level.nodes.t_end))

    def interpolant(self, t):
        if t not in self._ups:
            self._ups[t] = lagrange_eval(self.level.nodes, self.level.values, t)
        return self._ups[t]

    def shift(self, t):
        """Integral of the residual from t0 to t."""
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
        nodes = self.level.nodes
        tau = nodes.local(t)
        if abs(tau - round(tau)) <= 1e-12:
            return self.shift(t)
        if t not in self._nodal_shift:
            m = int(np.floor(tau))
            t_m = nodes.t0 + nodes.h * m
            theta = tau - m
            self._nodal_shift[t] = ((1.0 - theta) * self.shift(t_m)
                                    + theta * self.shift(t_m + nodes.h))
        return self._nodal_shift[t]

    def f_at_interpolant(self, nu, t):
        if (nu, t) not in self._feval:
            self._feval[nu, t] = np.asarray(
                self.base.operators[nu](t, self.interpolant(t)))
        return self._feval[nu, t]


def correct_once(problem, level, sweep_index, cfg):
    """One correction sweep: march the error equation, add the recovered error."""
    if sweep_index < 1:
        raise UsageError("sweep index is 1-based")
    ep = ErrorProblem(problem, level, residual_mode=cfg.residual_mode)
    name = cfg.corrector_name(sweep_index)
    override = problem.corrector_overrides.get(name)
    stepper = None if override is not None else get_stepper(name)
    nodes = level.nodes
    times = nodes.times
    w = np.zeros_like(level.values[0])
    deltas = [np.zeros_like(w)]
    for m in range(nodes.M):
        try:
            if override is not None:
                w = override(ep, times[m], nodes.h, w)
            else:
                w = stepper(ep.ivp, times[m], nodes.h, w)
        except SolverError as exc:
            raise StepperError(
                f"correction sweep {sweep_index} failed on sub-interval {m}: {exc}",
                node=m, time=times[m], sweep=sweep_index) from exc
        deltas.append(w - ep.shift(times[m + 1]))
    values = level.values + np.stack(deltas)
    return IDCLevelResult(nodes=nodes, values=values)


def solve_macro_interval(problem, nodes, u0, cfg):
    """Prediction plus all correction sweeps on one macro interval."""
    level = predict(problem, nodes, u0, cfg)
    for k in range(1, cfg.corrections + 1):
        level = correct_once(problem, level, k, cfg)
    return level


def idc_march(problem, macro_steps, cfg):
    """Iterate (nodes, level) over N uniform macro steps of the time span.

    Step n covers [t0 + n*H, t0 + (n+1)*H] and starts from the final state of
    step n-1; its level is the last correction level.  The step count is
    checked, and the order-saturation warning given, when this is called;
    a failed step raises StepperError annotated with its ``macro_step``.
    """
    if macro_steps < 1:
        raise UsageError("need at least one macro step")
    M = cfg.resolved_M()
    if cfg.target_order() > M + 1:
        warnings.warn(
            f"requested order {cfg.target_order()} exceeds M+1={M + 1}; "
            "the order will saturate at the quadrature accuracy", stacklevel=2)
    return _march(problem, macro_steps, cfg, M)


def _march(problem, macro_steps, cfg, M):
    t0, t1 = problem.t_span
    H = (t1 - t0) / macro_steps
    u = np.asarray(problem.initial_state)
    for n in range(macro_steps):
        nodes = UniformNodeSet(t0=t0 + n * H, h=H / M, M=M)
        try:
            level = solve_macro_interval(problem, nodes, u, cfg)
        except StepperError as exc:
            exc.macro_step = n
            raise
        u = level.final_state
        yield nodes, level


def idc_solve(problem, macro_steps, cfg, keep="macro"):
    """Integrate the problem over its time span with N uniform macro steps.

    Collects the steps of ``idc_march`` into a Trajectory:
    keep  -- 'macro' records macro-node states, 'subnodes' every sub-node,
             'final' only the end state.
    """
    if keep not in ("macro", "subnodes", "final"):
        raise UsageError(f"unknown keep mode {keep!r}")
    steps = idc_march(problem, macro_steps, cfg)
    times = [problem.t_span[0]]
    states = [np.asarray(problem.initial_state)]
    for nodes, level in steps:
        if keep == "subnodes":
            times.extend(nodes.times[1:])
            states.extend(level.values[1:])
        elif keep == "macro":
            times.append(nodes.t_end)
            states.append(level.final_state)
    if keep == "final":
        times.append(nodes.t_end)
        states.append(level.final_state)
    return Trajectory(times=np.asarray(times), states=np.stack(states))
