"""Central finite-difference stencils of order 2, 4 or 6 along one grid axis.

Interior rows are the classical centered coefficients; Dirichlet rows within
reach of a wall switch to biased stencils of the same formal order that
reference only grid nodes and the wall itself.  Wall coefficients are kept
separate so the known boundary values enter as an additive contribution.
A row's weights are the d-th derivatives at its own node of the exact
Lagrange cardinals on its offsets (Fornberg 1988): d! times their d-th
coefficients from ``polyint``'s one generator, each rounded once.  Rows
therefore annihilate constants exactly and differentiate polynomials of
degree below the stencil size without roundoff beyond that rounding.
Each operator is a dense n x n numpy array, so the module needs no scipy.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import UsageError
from .polyint import _cardinal_coefficients

SUPPORTED_ORDERS = (2, 4, 6)


@lru_cache(maxsize=None)
def fd_weights(offsets, derivative):
    """Finite-difference weights on distinct offsets for the given
    derivative: each cardinal's derivative at offset 0, as a read-only
    (cached) float array; multiply by spacing**-derivative to use them.
    """
    offsets = tuple(offsets)
    if derivative >= len(offsets):
        raise UsageError("need more points than the derivative order")
    if len(set(offsets)) != len(offsets):
        raise UsageError(f"stencil offsets must be distinct, got {offsets}")
    w = np.array([float(card[derivative] * math.factorial(derivative))
                  for card in _cardinal_coefficients(offsets)])
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class StencilOperator:
    """Differentiation along one axis of a 2D grid, as a per-line operator.

    ``matrix`` acts on the line's grid values; for Dirichlet lines,
    ``wall_left``/``wall_right`` hold the coefficients multiplying the known
    wall values (zero away from the walls).
    """

    axis: str                 # "x" or "y"
    derivative: int           # 1 or 2
    order: int                # formal order of accuracy
    n: int                    # nodes along the line
    spacing: float
    bc: str                   # "dirichlet" or "periodic"
    matrix: np.ndarray        # (n, n) dense array
    wall_left: np.ndarray = None
    wall_right: np.ndarray = None

    def apply_line(self, values, g_left=0.0, g_right=0.0):
        """Derivative of one line of data (wall values supplied for Dirichlet)."""
        out = self.matrix @ np.asarray(values)
        if self.bc == "dirichlet":
            out = out + self.wall_left * g_left + self.wall_right * g_right
        return out


def build_stencil(grid, axis, derivative, order):
    """Stencil operator for one axis of the grid.

    One loop builds the rows of both boundary kinds.  Periodic rows take the
    centered offsets modulo n.  Dirichlet lines have the walls as extended
    nodes -1 and n; rows whose centered stencil would leave them use a
    one-sided stencil of ``order + derivative`` points anchored at the wall,
    which keeps the formal order and a bandwidth of at most six.

    Periodic lines need n >= 2*reach nodes (reach = order/2).  At exactly
    n = 2*reach the offsets +reach and -reach land on the same node, and
    their two weights are summed into one entry: the stencil applied to
    period-n samples, which is still well defined.
    """
    if axis not in ("x", "y"):
        raise UsageError(f"axis must be 'x' or 'y', got {axis!r}")
    if derivative not in (1, 2):
        raise UsageError(f"derivative must be 1 or 2, got {derivative}")
    if order not in SUPPORTED_ORDERS:
        raise UsageError(f"order must be one of {SUPPORTED_ORDERS}, got {order}")
    n = grid.N_x if axis == "x" else grid.N_y
    spacing = grid.dx if axis == "x" else grid.dy
    reach = order // 2
    biased_points = order + derivative
    scale = spacing ** (-derivative)

    periodic = grid.bc == "periodic"
    if periodic and n < 2 * reach:
        raise UsageError(f"periodic line of {n} nodes is too small for order {order}")
    if not periodic and n < biased_points - 1:
        raise UsageError(f"Dirichlet line of {n} nodes is too small for order {order}")
    centered = tuple(range(-reach, reach + 1))
    rows, cols, vals = [], [], []
    wall_left, wall_right = (None, None) if periodic else (np.zeros(n), np.zeros(n))
    for i in range(n):
        # node i's offsets; Dirichlet walls are the extended nodes -1 and n
        if periodic or -1 <= i - reach and i + reach <= n:
            offs = centered
        elif i - reach < -1:
            offs = tuple(range(-1 - i, biased_points - 1 - i))
        else:
            offs = tuple(range(n + 1 - biased_points - i, n + 1 - i))
        for o, w in zip(offs, (fd_weights(offs, derivative) * scale).tolist()):
            j = i + o
            if periodic or 0 <= j < n:
                rows.append(i)
                cols.append(j % n)
                vals.append(w)
            elif j < 0:
                wall_left[i] = w
            else:
                wall_right[i] = w
    # np.add.at sums the two weights of an n = 2*reach periodic line that
    # land on one node
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rows, cols), vals)
    return StencilOperator(axis=axis, derivative=derivative, order=order,
                           n=n, spacing=spacing, bc=grid.bc, matrix=matrix,
                           wall_left=wall_left, wall_right=wall_right)
