"""Stacks of banded line systems, factored once and solved many times.

Grid-line operators from the finite-difference stencils are banded with
bandwidths at most six.  A ``BandedMatrix`` holds L independent lines of
length n, each with its own matrix: the variable-coefficient lines of a
direction, one per grid line.  (A constant coefficient gives one line shared
by every grid line; ``pde2d`` keeps that as a dense numpy inverse and never
loads this module, nor scipy.)  The L lines are factored as one band of
length L*n by a single LAPACK gbtrf; no entry couples two lines, so partial
pivoting stays inside each line and every line gets the factor it would get
on its own.  Periodic lines carry a handful of wrap entries in the corners;
each line is handled as a banded core plus a low-rank correction (Woodbury
identity).

Lines are solved through that banded LU and Woodbury correction, O(n) per
line.  When gbtrf swapped no row, L and U are plain bands, and a solve of
the whole stack is two BLAS tbsv sweeps over one vector of length L*n;
gbtrs would make one rank-1 update per column.  Each row of U is divided by
its pivot at factor time, so both sweeps run with a unit diagonal, which
OpenBLAS sweeps about twice as fast, and a solve scales by the kept
reciprocal pivots once between them.  gbtrs still serves stacks in which
some line swapped rows and the multi-column solves of the Woodbury factors
at construction.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import LinearSolveError, UsageError


class BandedMatrix:
    """L factored banded lines, each optionally with a low-rank wrap correction.

    ``ab`` holds the lines in LAPACK band storage, shape (L, kl + ku + 1, n);
    ``wrap_U`` holds the wrap entries of columns ``wrap_cols``, shape (L, n, r).
    The lines keep their Woodbury factors and either the two triangular
    bands of an LU without row swaps, U with a unit diagonal and its pivots
    kept as reciprocals, solved by two unit-diagonal tbsv sweeps with one
    scaling between them, or gbtrf's pivoted factor, solved by gbtrs.
    """

    def __init__(self, ab, kl, ku, wrap_cols=None, wrap_U=None):
        self.lines, rows, self.n = ab.shape
        self.kl = kl
        self.ku = ku
        gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._gbtrs = gbtrs
        # gbtrf wants kl extra rows on top for fill-in
        work = np.zeros((kl + rows, self.lines * self.n), dtype=ab.dtype, order="F")
        work[kl:, :] = ab.transpose(1, 0, 2).reshape(rows, -1)
        lu, piv, info = gbtrf(work, kl, ku)
        if info > 0:
            raise LinearSolveError(f"banded LU factorization failed: line "
                                   f"{(info - 1) // self.n} is singular")
        if info < 0:
            raise LinearSolveError(f"banded LU factorization failed (info={info})")
        self._lu = lu
        self._piv = piv
        self._bands = None
        self._wrap = None
        if wrap_cols is not None and len(wrap_cols):
            # Woodbury: x = y - Z C^-1 y[wrap_cols] with Z = core^-1 U and
            # capacitance C = I + Z[wrap_cols]; each line's Z C^-1 comes
            # from one batched LU solve of its r x r system C^T W^T = Z^T
            Z = self._solve_core(wrap_U)
            cap = np.eye(len(wrap_cols)) + Z[:, wrap_cols, :]
            try:
                W = np.linalg.solve(cap.transpose(0, 2, 1), Z.transpose(0, 2, 1))
            except np.linalg.LinAlgError as exc:
                raise LinearSolveError("singular wrap correction") from exc
            self._wrap = (wrap_cols, W.transpose(0, 2, 1))
        if np.array_equal(piv, np.arange(len(piv))):
            # no row swapped: L and U are plain bands, each one triangular
            # sweep over the whole stack.  U = D V with D its diagonal and V
            # unit upper: V's band row r holds U[j - ku + r, j] / d[j - ku + r]
            self._tbsv = scipy.linalg.get_blas_funcs("tbsv", (ab,))
            upper = lu[kl:kl + ku + 1]
            d = upper[ku].copy()
            for r in range(ku):
                upper[r, ku - r:] /= d[:r - ku]
            self._bands = (np.asfortranarray(lu[kl + ku:]), np.asfortranarray(upper),
                           1.0 / d)
            del self._gbtrs, self._lu, self._piv

    @classmethod
    def from_sparse(cls, A):
        """Build from sparse line matrices stacked as an (L*n, n) matrix, line l
        in rows l*n to l*n + n - 1; far-corner entries become the wrap.  A
        canonical CSR (sorted, no duplicates) is read in place; any other
        input is copied to COO with its duplicates summed."""
        if sp.issparse(A) and A.format == "csr" and A.has_canonical_format:
            row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
            j, data = A.indices, A.data
        else:
            A = sp.coo_matrix(A, copy=True)
            A.sum_duplicates()
            row, j, data = A.row, A.col, A.data
        rows, n = A.shape
        if n == 0 or rows % n:
            raise UsageError("line matrices must be square, stacked as (L*n, n)")
        line, i = np.divmod(row, n)
        off = j - i
        band = np.abs(off) <= n // 2
        kl = int(max(0, (-off[band]).max(initial=0)))
        ku = int(max(0, off[band].max(initial=0)))
        ab = np.zeros((rows // n, kl + ku + 1, n), dtype=A.dtype)
        ab[line[band], ku - off[band], j[band]] = data[band]
        wrap_cols, wrap_col = np.unique(j[~band], return_inverse=True)
        wrap_U = np.zeros((rows // n, n, len(wrap_cols)), dtype=A.dtype)
        wrap_U[line[~band], i[~band], wrap_col] = data[~band]
        return cls(ab, kl, ku, wrap_cols=wrap_cols, wrap_U=wrap_U)

    def _solve_core(self, B):
        """Banded solve of an (L, n, m) stack, m right-hand sides per line;
        with bands kept, m = 1 and B is a copy the sweeps may overwrite."""
        if self._bands is not None:
            lower, upper, inv_diag = self._bands
            x = self._tbsv(self.kl, lower, B.reshape(-1), lower=1, diag=1,
                           overwrite_x=1)
            x *= inv_diag
            x = self._tbsv(self.ku, upper, x, diag=1, overwrite_x=1)
            return x.reshape(B.shape)
        x, info = self._gbtrs(self._lu, self.kl, self.ku,
                              np.asarray(B.reshape(-1, B.shape[2]), order="F"),
                              self._piv)
        if info != 0:
            raise LinearSolveError(f"banded solve failed (info={info})")
        return x.reshape(B.shape)

    def _solve_lines(self, B):
        """Banded solve plus wrap correction of an (L, n, m) stack."""
        X = self._solve_core(B)
        if self._wrap is not None:
            cols, W = self._wrap
            X -= W @ X[:, cols, :]
        return X

    def solve(self, b):
        """Solve an (n, L) batch, column k line k's right-hand side."""
        b = np.asarray(b)
        if b.shape != (self.n, self.lines):
            raise UsageError(f"{self.lines} lines of {self.n} unknowns need one "
                             f"right-hand side each, shape ({self.n}, {self.lines}), "
                             f"got shape {b.shape}")
        return self._solve_lines(b.T.copy()[:, :, None])[:, :, 0].T
