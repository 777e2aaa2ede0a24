"""Lagrange interpolation and quadrature on uniform nodes.

Everything here works on M+1 equispaced nodes t_m = t0 + m*h.  Quadrature
weights are generated in exact rational arithmetic and stored as floats, which
keeps them reproducible and exact on polynomials up to degree M.  The
integration matrix serves the integrals from t0 to every node at once
(``node_integrals``, one matrix product); ``partial_integral`` serves any
other upper limit by Gauss quadrature of the interpolant.  Uniform-node
interpolation degrades quickly beyond moderate M (Runge phenomenon), so M is
capped at MAX_SUBINTERVALS.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np

from .errors import UsageError

MAX_SUBINTERVALS = 16


@dataclass(frozen=True)
class UniformNodeSet:
    """M+1 uniformly spaced nodes t0, t0+h, ..., t0+M*h."""

    t0: float
    h: float
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise UsageError(f"need at least one sub-interval, got M={self.M}")
        if self.M > MAX_SUBINTERVALS:
            raise UsageError(
                f"M={self.M} exceeds the uniform-node cap {MAX_SUBINTERVALS}; "
                "interpolation on more equispaced nodes is not trustworthy")
        if not self.h > 0:
            raise UsageError(f"sub-step size must be positive, got h={self.h}")

    @property
    def times(self):
        return self.t0 + self.h * np.arange(self.M + 1)

    @property
    def t_end(self):
        return self.t0 + self.M * self.h

    def local(self, t):
        """Map a time to the unit-spacing coordinate tau = (t - t0)/h."""
        return (t - self.t0) / self.h


@dataclass(frozen=True)
class IntegrationMatrix:
    """Weights gamma with  integral_{t0}^{t_{m+1}} p = (t_{m+1}-t0) * sum_j gamma[m,j] p(t_j)

    for every polynomial p of degree <= M.  Row m has M+1 entries; each row
    sums to one (exactness on constants).  The weights depend only on M.
    """

    M: int
    gamma: np.ndarray


def _cardinal_coefficients(M):
    """Exact coefficients (ascending powers) of the Lagrange cardinals on 0..M."""
    cards = []
    for j in range(M + 1):
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for n in range(M + 1):
            if n == j:
                continue
            # multiply by (tau - n)
            coeffs = [Fraction(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= n * coeffs[k + 1]
            denom *= Fraction(j - n)
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
def _gamma_table(M):
    cards = _cardinal_coefficients(M)
    anti = [_poly_antiderivative(c) for c in cards]
    gamma = np.empty((M, M + 1))
    for m in range(M):
        for j in range(M + 1):
            gamma[m, j] = float(_poly_eval(anti[j], Fraction(m + 1)) / (m + 1))
    gamma.setflags(write=False)
    return gamma


@lru_cache(maxsize=None)
def _node_weights(M):
    # row m integrates the interpolant from 0 to m: m * gamma[m-1]; row 0 is zero
    W = np.zeros((M + 1, M + 1))
    W[1:] = np.arange(1, M + 1)[:, None] * _gamma_table(M)
    W.setflags(write=False)
    return W


@lru_cache(maxsize=None)
def _barycentric_weights(M):
    # Uniform-node barycentric weights (-1)^j * binomial(M, j); the common
    # scale cancels in the barycentric ratio.
    w = np.array([(-1.0) ** j * math.comb(M, j) for j in range(M + 1)])
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _gauss_rule(M):
    # Enough Gauss points to integrate a degree-M interpolant exactly.
    npts = M // 2 + 1
    x, w = np.polynomial.legendre.leggauss(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _stack_values(nodes, values):
    # an array is read in place: stacking would copy the whole level per call
    vals = values if isinstance(values, np.ndarray) else np.stack(
        [np.asarray(v) for v in values])
    if vals.shape[0] != nodes.M + 1:
        raise UsageError(
            f"expected {nodes.M + 1} node values, got {vals.shape[0]}")
    return vals


def _node_at(M, tau):
    """Index of the node at local coordinate tau, or None between nodes."""
    m = np.rint(tau)
    if abs(tau - m) < 1e-14 * max(1.0, abs(tau)) and 0 <= m <= M:
        return int(m)
    return None


def _cardinal_row(M, tau):
    """Values of all cardinal functions at local coordinate tau (stable form)."""
    row = np.zeros(M + 1)
    m = _node_at(M, tau)
    if m is not None:
        row[m] = 1.0
        return row
    q = _barycentric_weights(M) / (tau - np.arange(M + 1.0))
    return q / q.sum()


def lagrange_eval(nodes, values, t):
    """Evaluate the degree-M interpolant of the node values at time t.

    t must lie in the node range [t0, t_end]; the interpolant is never
    extrapolated.  At a node the result is a copy of that node's value, so
    a non-finite value elsewhere does not reach it.
    """
    vals = _stack_values(nodes, values)
    tau = nodes.local(t)
    if tau < -1e-12 or tau > nodes.M + 1e-12:
        raise UsageError(f"t={t} outside the node range [{nodes.t0}, {nodes.t_end}]")
    m = _node_at(nodes.M, tau)
    if m is not None:
        return np.array(vals[m])
    return np.tensordot(_cardinal_row(nodes.M, tau), vals, axes=(0, 0))


def integration_matrix(nodes):
    """Quadrature weights for integrals from t0 to each interior/right node.

    The weights are affine invariant: they depend on M only, never on t0 or h.
    """
    return IntegrationMatrix(M=nodes.M, gamma=_gamma_table(nodes.M))


def node_integrals(nodes, values):
    """Exact integrals of the degree-M interpolant from t0 to every node.

    Row m integrates up to t_m (row 0 is zero): the integration matrix's
    weights applied to all node values in one matrix product.
    """
    vals = _stack_values(nodes, values)
    return nodes.h * np.tensordot(_node_weights(nodes.M), vals, axes=(1, 0))


def partial_integral(nodes, values, t_upper):
    """Exact integral of the degree-M interpolant from t0 to t_upper.

    Evaluated by Gauss quadrature of the barycentric interpolant, which is
    exact for polynomials of degree <= M and numerically stable for all
    admissible M.
    """
    vals = _stack_values(nodes, values)
    tau_up = nodes.local(t_upper)
    if tau_up < -1e-12 or tau_up > nodes.M + 1e-12:
        raise UsageError(
            f"t_upper={t_upper} outside the macro interval [{nodes.t0}, {nodes.t_end}]")
    tau_up = min(max(tau_up, 0.0), float(nodes.M))
    if tau_up == 0.0:
        return np.zeros_like(vals[0])
    gx, gw = _gauss_rule(nodes.M)
    # map [-1, 1] -> [0, tau_up]
    taus = 0.5 * tau_up * (gx + 1.0)
    rows = np.stack([_cardinal_row(nodes.M, tau) for tau in taus])
    weights = (0.5 * tau_up * nodes.h) * (gw @ rows)
    return np.tensordot(weights, vals, axes=(0, 0))
