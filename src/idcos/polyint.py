"""Exact Lagrange cardinals, and interpolation and quadrature on uniform nodes.

One exact generator: ``_cardinal_coefficients`` gives the Lagrange cardinals
on any distinct nodes as rational polynomials, and every weight row is a
linear functional of them, evaluated exactly and rounded once.  There are
three: the cardinals at a point are the interpolation rows
(``lagrange_eval``), their integrals the residual quadrature rows
(``integral_weights``), and their derivatives at the row's own node,
offset 0, the finite-difference rows of ``stencils.fd_weights``.

Interpolation and quadrature work on M+1 equispaced nodes t_m = t0 + m*h.
There is one interpolant and one quadrature: ``integral_weights(M, tau)``
integrates the cardinals on 0..M from 0 to tau, so every integral of the
interpolant (``partial_integral``, to a node or to any time between nodes)
is exact on polynomials up to degree M.  Uniform-node interpolation degrades
quickly beyond moderate M (Runge phenomenon), so M is capped at
MAX_SUBINTERVALS.

One rule decides whether a time is a node (``UniformNodeSet.local``): a
time within rounding of t_m reads as the whole number m, with a tolerance
that scales with |t|/h, as does the error of a node time reached by
repeated ``t + dt``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
import operator

import numpy as np

from .errors import UsageError

MAX_SUBINTERVALS = 16
NODE_TOL = 1e-12
NODE_ROUNDING = 8 * np.finfo(float).eps  # per unit of max(|t|, |t0|)/h


@dataclass(frozen=True)
class UniformNodeSet:
    """M+1 uniformly spaced nodes t0, t0+h, ..., t0+M*h."""

    t0: float
    h: float
    M: int

    def __post_init__(self):
        check_subintervals(self.M)
        if not self.h > 0:
            raise UsageError(f"sub-step size must be positive, got h={self.h}")

    @property
    def times(self):
        return self.t0 + self.h * np.arange(self.M + 1)

    @property
    def t_end(self):
        return self.t0 + self.M * self.h

    def local(self, t):
        """tau = (t - t0)/h, a node's an exact whole number; an array of times
        maps elementwise.

        The one node rule: tau within max(NODE_TOL, NODE_ROUNDING *
        max(|t|, |t0|)/h) of m in 0..M is m.  A node time reached by repeated
        ``t + dt`` is off by about eps*|t|, so in tau by eps times the global
        sub-step index.  A time outside [t0, t_end] raises UsageError.
        """
        if isinstance(t, np.ndarray):
            if t.ndim:
                return np.array([self.local(x) for x in t.flat]).reshape(t.shape)
            t = t[()]
        if isinstance(t, float):
            t = float(t)  # exact for np.float64, and Python floats are faster
        # plain float arithmetic: every read of the error equation comes here
        t0, h, M = self.t0, self.h, self.M
        tau = (t - t0) / h
        if -1 < tau < M + 1:  # not nan or inf
            m = round(tau)
            d = abs(tau - m)
            if d and 0 <= m <= M and (
                    d <= NODE_TOL or d * h <= NODE_ROUNDING * max(abs(t), abs(t0))):
                tau = float(m)
        if not 0 <= tau <= M:
            raise UsageError(f"t={t} outside the node range [{t0}, {self.t_end}]")
        return tau


def check_subintervals(M):
    """Raise UsageError unless 1 <= M <= MAX_SUBINTERVALS."""
    if M < 1:
        raise UsageError(f"need at least one sub-interval, got M={M}")
    if M > MAX_SUBINTERVALS:
        raise UsageError(
            f"M={M} exceeds the uniform-node cap {MAX_SUBINTERVALS}; "
            "interpolation on more equispaced nodes is not trustworthy")


def _cardinal_coefficients(nodes):
    """Exact coefficients (ascending powers) of the Lagrange cardinals on the
    distinct nodes, each read as an exact Fraction; an int M means 0..M."""
    nodes = nodes if isinstance(nodes, tuple) else range(nodes + 1)
    nodes = [Fraction(x) for x in nodes]
    cards = []
    for j, xj in enumerate(nodes):
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for n, xn in enumerate(nodes):
            if n == j:
                continue
            # multiply by (tau - xn)
            coeffs = [Fraction(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= xn * coeffs[k + 1]
            denom *= xj - xn
        cards.append([c / denom for c in coeffs])
    return cards


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_antiderivative(coeffs):
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)]


@lru_cache(maxsize=None)
def _cardinal_numerators(M, integrated):
    # the cardinals on 0..M, or their antiderivatives, as integer coefficients
    # over one common denominator, so a row needs integer arithmetic and one
    # division each
    polys = _cardinal_coefficients(M)
    if integrated:
        polys = [_poly_antiderivative(c) for c in polys]
    den = math.lcm(*(c.denominator for a in polys for c in a))
    return tuple(tuple(int(c * den) for c in a) for a in polys), den


def _weight_row(M, tau, integrated=True):
    """The cardinals on 0..M at tau, or their integrals from 0 to tau, each
    evaluated exactly at the float's rational value and rounded once."""
    nums, den = _cardinal_numerators(M, integrated)
    # tau = p/q exactly (q a power of two); P_j(p/q) = sum_k c_jk p^k q^(K-k) / (den q^K)
    p, q = float(tau).as_integer_ratio()
    K = len(nums[0]) - 1
    powers = [p ** k * q ** (K - k) for k in range(K + 1)]
    scale = den * q ** K
    return np.array([sum(map(operator.mul, c, powers)) / scale for c in nums])


@lru_cache(maxsize=None)
def _node_weights(M):
    W = np.stack([_weight_row(M, m) for m in range(M + 1)])
    W.setflags(write=False)
    return W


def integral_weights(M, tau):
    """Weights w_j = integral_0^tau l_j of the cardinal functions l_j on 0..M.

    The one residual quadrature: the integral of the degree-M interpolant
    from t0 to t0 + tau*h is h * sum_j w_j f_j.  Each weight is the exact
    cardinal antiderivative at the exact rational value of the float tau,
    rounded once, so rows are exact on polynomials of degree <= M up to that
    rounding.  A tau at a node (``node_index``) reads the node row, cached
    per M; rows between nodes are built per call.
    """
    m = node_index(M, tau)
    return _node_weights(M)[m] if m is not None else _weight_row(M, tau)


def _stack_values(nodes, values):
    # an array is read in place: stacking would copy the whole level per call
    vals = values if isinstance(values, np.ndarray) else np.stack(
        [np.asarray(v) for v in values])
    if vals.shape[0] != nodes.M + 1:
        raise UsageError(
            f"expected {nodes.M + 1} node values, got {vals.shape[0]}")
    return vals


def node_index(M, tau):
    """Index of the node at local coordinate tau, or None between nodes.

    A node is an exact whole number 0..M: ``UniformNodeSet.local`` has
    already snapped a time within rounding of a node to it, with a
    tolerance that scales with |t|/h.
    """
    tau = float(tau)
    return int(tau) if tau.is_integer() and 0 <= tau <= M else None


def lagrange_eval(nodes, values, t):
    """Evaluate the degree-M interpolant of the node values at time t.

    t must lie in the node range [t0, t_end]; the interpolant is never
    extrapolated.  At a node the result is a copy of that node's value, so
    a non-finite value elsewhere does not reach it.  Between nodes it is the
    node values weighted by the exact cardinals at tau, each rounded once.
    """
    vals = _stack_values(nodes, values)
    tau = nodes.local(t)
    m = node_index(nodes.M, tau)
    if m is not None:
        return np.array(vals[m])
    return np.tensordot(_weight_row(nodes.M, tau, integrated=False), vals, axes=(0, 0))


def partial_integral(nodes, values, t_upper):
    """Exact integral of the degree-M interpolant from t0 to t_upper.

    t_upper is one time, or an array of times that adds its leading axes to
    the result.  Each integral is h times a row of ``integral_weights``.
    """
    vals = _stack_values(nodes, values)
    taus = np.asarray(nodes.local(np.asarray(t_upper)))
    W = np.array([integral_weights(nodes.M, tau) for tau in taus.flat])
    out = nodes.h * (W @ vals.reshape(len(vals), -1))
    return out.reshape(taus.shape + vals.shape[1:])
