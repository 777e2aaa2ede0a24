import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from idcos.banded import BandedMatrix
from idcos.errors import LinearSolveError, UsageError
from idcos.pde2d import (ROW_BLOCK, CoefficientField, DirectionalDiffusionOperator,
                         Grid2D, _row_blocks)
from idcos.stencils import build_stencil


def random_banded(rng, n, kl, ku, shift=10.0):
    A = sp.diags([rng.normal(size=n - abs(o)) for o in range(-kl, ku + 1)],
                 list(range(-kl, ku + 1))).tocsr()
    return A + sp.eye(n) * shift


def random_periodic(rng, n, w, shift=12.0):
    rows = sp.lil_matrix((n, n))
    weights = rng.normal(size=2 * w + 1)
    for i in range(n):
        for k, o in enumerate(range(-w, w + 1)):
            rows[i, (i + o) % n] += weights[k]
    return rows.tocsr() + sp.eye(n) * shift


class TestBandedMatrix:
    @pytest.mark.parametrize("n,kl,ku", [(8, 1, 1), (25, 3, 2), (60, 6, 6)])
    def test_solve_residual(self, n, kl, ku):
        rng = np.random.default_rng(n)
        A = random_banded(rng, n, kl, ku)
        bm = BandedMatrix.from_sparse(A)
        b = rng.normal(size=(n, 1))
        x = bm.solve(b)
        assert np.max(np.abs(A @ x - b)) <= 1e-11 * np.max(np.abs(b))

    def test_batched_solve(self):
        # six stacked copies of one line, one right-hand side each
        rng = np.random.default_rng(7)
        A = random_banded(rng, 30, 2, 4)
        bm = BandedMatrix.from_sparse(sp.vstack([A] * 6))
        B = rng.normal(size=(30, 6))
        X = bm.solve(B)
        assert X.shape == (30, 6)
        assert np.max(np.abs(A @ X - B)) <= 1e-11 * np.max(np.abs(B))

    @pytest.mark.parametrize("n,w", [(20, 1), (41, 3), (64, 6)])
    def test_periodic_wrap(self, n, w):
        rng = np.random.default_rng(n + w)
        A = random_periodic(rng, n, w)
        bm = BandedMatrix.from_sparse(A)
        b = rng.normal(size=(n, 1))
        x = bm.solve(b)
        assert np.max(np.abs(A @ x - b)) <= 1e-11 * np.max(np.abs(b))
        stack = BandedMatrix.from_sparse(sp.vstack([A] * 3))
        B = rng.normal(size=(n, 3))
        assert np.max(np.abs(A @ stack.solve(B) - B)) <= 1e-11 * np.max(np.abs(B))

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        A = random_banded(rng, 15, 2, 2)
        bm = BandedMatrix.from_sparse(A)
        b = rng.normal(size=(15, 1))
        assert np.allclose(bm.solve(b), np.linalg.solve(A.toarray(), b))

    def test_singular_matrix(self):
        A = sp.csr_matrix(np.zeros((4, 4)))
        with pytest.raises(LinearSolveError):
            BandedMatrix.from_sparse(A)

    def test_non_square(self):
        with pytest.raises(UsageError):
            BandedMatrix.from_sparse(sp.csr_matrix(np.ones((3, 4))))

    def test_canonical_csr_matches_coo(self):
        # a canonical CSR is read in place; the COO path sums duplicates
        rng = np.random.default_rng(11)
        A = sp.vstack([random_periodic(rng, 20, 3) for _ in range(3)], format="csr")
        assert A.has_canonical_format
        before = (A.data.copy(), A.indices.copy(), A.indptr.copy())
        fast = BandedMatrix.from_sparse(A)
        for kept, now in zip(before, (A.data, A.indices, A.indptr)):
            assert np.array_equal(kept, now)
        coo = A.tocoo()
        half = coo.data / 2  # every entry split into two duplicates
        dup = sp.coo_matrix((np.concatenate([half, coo.data - half]),
                             (np.tile(coo.row, 2), np.tile(coo.col, 2))), shape=A.shape)
        B = rng.normal(size=(20, 3))
        assert np.array_equal(fast.solve(B), BandedMatrix.from_sparse(coo).solve(B))
        assert np.allclose(BandedMatrix.from_sparse(dup).solve(B), fast.solve(B),
                           rtol=1e-13, atol=0)


def closure_line(n, alpha=1e-3):
    """I - alpha*d2 on a sixth-order Dirichlet line: kl = ku = 6 from the
    one-sided wall closures."""
    grid = Grid2D((0.0, 1.0), (0.0, 1.0), n, n)
    return np.eye(n) - alpha * build_stencil(grid, "x", 2, 6).matrix


def shared_line_operator(bc, n, axis, order=6):
    """A constant-coefficient direction operator on an n-node line, with 9
    lines of it (a non-square grid, so a transposed sweep shows)."""
    n_x, n_y = (n, 9) if axis == "x" else (9, n)
    grid = Grid2D((0.0, 1.0), (0.0, 2.0), n_x, n_y, bc=bc)
    op = DirectionalDiffusionOperator(grid, axis, 1.5, order=order,
                                      boundary=lambda x, y, t: x + y + t)
    assert op.constant and op.L.shape == (n, n)
    return op


def dense_apply(op, U):
    """op's line applied to every line of the field U, as one dense product."""
    return U @ op.L.T if op.axis == "x" else op.L @ U


class TestSharedLine:
    """A constant coefficient's one line is a dense numpy array: solved by its
    inverse and applied by the band's row blocks, with no ``BandedMatrix``."""

    @pytest.mark.parametrize("bc,n", [("dirichlet", 60), ("periodic", 64)],
                             ids=["closure", "periodic"])
    def test_matches_dense_solve(self, bc, n):
        # the sixth-order closure rows (kl = ku = 6), and a periodic line
        # whose corners hold the wrap entries
        rng = np.random.default_rng(21)
        for axis in ("x", "y"):
            op = shared_line_operator(bc, n, axis)
            A = np.eye(n) - 1e-3 * op.L
            U = rng.normal(size=op.grid.shape)
            X = op.solve_homogeneous(0.0, 1e-3, U)
            ref = np.linalg.solve(A, U.T).T if axis == "x" else np.linalg.solve(A, U)
            assert X.shape == U.shape
            assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_closure_bandwidth(self):
        bm = BandedMatrix.from_sparse(closure_line(30))
        assert (bm.kl, bm.ku) == (6, 6)
        op = shared_line_operator("dirichlet", 30, "x")
        rows, cols = np.nonzero(op.L)
        assert np.max(np.abs(cols - rows)) == 6

    def test_transposed_batch(self):
        # x-direction sweeps solve the rows of a field through its transpose
        rng = np.random.default_rng(22)
        op = shared_line_operator("periodic", 40, "x", order=4)
        F = rng.normal(size=op.grid.shape)
        ref = np.linalg.solve(np.eye(40) - 0.02 * op.L, F.T).T
        X = op.solve_homogeneous(0.0, 0.02, F)
        assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_input_unchanged(self):
        rng = np.random.default_rng(23)
        for axis in ("x", "y"):
            op = shared_line_operator("periodic", 30, axis, order=4)
            B = rng.normal(size=op.grid.shape)
            before = B.copy()
            op.solve_homogeneous(0.0, 0.01, B)
            op.apply_homogeneous(0.0, B)
            assert np.array_equal(B, before)

    def test_singular_wrap_capacitance(self):
        # the banded core is the identity, but the wrap entries (0, 3) and
        # (3, 0) make rows 0 and 3 equal: only the capacitance is singular
        A = sp.eye(4, format="lil")
        A[0, 3] = A[3, 0] = 1.0
        with pytest.raises(LinearSolveError, match="singular wrap"):
            BandedMatrix.from_sparse(A.tocsr())

    @pytest.mark.parametrize("bc,order,n", [
        ("dirichlet", 6, 60), ("periodic", 6, 64),
        ("dirichlet", 6, 8), ("dirichlet", 6, 10), ("dirichlet", 6, 12),
        ("dirichlet", 4, 9), ("periodic", 2, 2), ("periodic", 4, 4), ("periodic", 6, 6),
    ])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_apply_matches_dense_product(self, bc, order, n, axis):
        # the closure rows and the periodic corners of long lines, and lines
        # no longer than twice the bandwidth, where the wall closures or the
        # wraps of the two ends reach the same rows (n = 2*reach periodic
        # lines sum two weights on one node); blocks of 1 to 3 rows split the
        # short lines as the default 32 splits the long ones
        op = shared_line_operator(bc, n, axis, order=order)
        U = np.random.default_rng(n).normal(size=op.grid.shape)
        ref = dense_apply(op, U)
        for rows in (1, 2, 3, ROW_BLOCK):
            op._row_blocks = _row_blocks(op.L, rows)
            assert np.max(np.abs(op.apply_homogeneous(0.0, U) - ref)) \
                <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_singular_line_names_axis_and_alpha(self, axis):
        # three nodes, spacing 1/4: I - alpha*L with alpha = -1/32 is the
        # tridiagonal (1/2, 0, 1/2), whose first and last rows are equal
        grid = Grid2D((0.0, 1.0), (0.0, 1.0), 3, 3)
        op = DirectionalDiffusionOperator(grid, axis, 1.0, order=2,
                                          boundary=lambda x, y, t: 0.0 * x)
        with pytest.raises(LinearSolveError,
                           match=rf"the {axis} line .* singular at alpha=-0\.03125"):
            op.solve_homogeneous(0.0, -1 / 32, np.ones(grid.shape))


class TestStackedLines:
    @pytest.mark.parametrize("build", [
        lambda rng, n: random_banded(rng, n, 3, 2),
        lambda rng, n: random_periodic(rng, n, 3),
    ], ids=["banded", "periodic"])
    def test_each_line_matches_its_dense_solve(self, build):
        rng = np.random.default_rng(11)
        n, lines = 23, 5
        mats = [build(rng, n) for _ in range(lines)]
        bm = BandedMatrix.from_sparse(sp.vstack(mats))
        assert bm.lines == lines
        B = rng.normal(size=(n, lines))
        X = bm.solve(B)
        for k, A in enumerate(mats):
            assert np.max(np.abs(X[:, k] - np.linalg.solve(A.toarray(), B[:, k]))) \
                <= 1e-12 * np.max(np.abs(X[:, k]))

    def test_zero_line_is_singular(self):
        rng = np.random.default_rng(12)
        mats = [random_banded(rng, 10, 1, 1), sp.csr_matrix((10, 10)),
                random_banded(rng, 10, 1, 1)]
        with pytest.raises(LinearSolveError, match="line 1"):
            BandedMatrix.from_sparse(sp.vstack(mats))

    def test_needs_one_column_per_line(self):
        rng = np.random.default_rng(13)
        bm = BandedMatrix.from_sparse(sp.vstack([random_banded(rng, 8, 1, 1)] * 3))
        with pytest.raises(UsageError):
            bm.solve(rng.normal(size=(8, 2)))

    @pytest.mark.parametrize("shape", [(7, 3), (9, 3), (8, 3, 1)])
    def test_needs_n_rows_per_line(self, shape):
        rng = np.random.default_rng(15)
        bm = BandedMatrix.from_sparse(sp.vstack([random_banded(rng, 8, 1, 1)] * 3))
        with pytest.raises(UsageError, match=r"3 lines of 8 unknowns.*got shape"):
            bm.solve(np.ones(shape))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged(self, order):
        # the triangular sweeps overwrite their vector: it must be a copy
        rng = np.random.default_rng(16)
        bm = BandedMatrix.from_sparse(sp.vstack([random_periodic(rng, 20, 2)
                                                 for _ in range(4)]))
        assert bm._bands is not None
        B = np.asarray(rng.normal(size=(20, 4)), order=order)
        before = B.copy()
        bm.solve(B)
        assert np.array_equal(B, before)

    @pytest.mark.parametrize("build", [
        lambda rng, n: random_banded(rng, n, 3, 2),
        lambda rng, n: random_periodic(rng, n, 3),
    ], ids=["banded", "periodic"])
    def test_row_swaps_keep_gbtrs(self, build):
        # a zero first diagonal entry on line 2 makes gbtrf swap rows there,
        # so the stack keeps the pivoted factor and solves through gbtrs
        rng = np.random.default_rng(14)
        n, lines = 23, 5
        mats = [build(rng, n).tolil() for _ in range(lines)]
        mats[2][0, 0] = 0.0
        mats = [A.tocsr() for A in mats]
        bm = BandedMatrix.from_sparse(sp.vstack(mats))
        core = sp.tril(sp.triu(sp.block_diag(mats), -bm.kl), bm.ku).todia()
        ab = np.zeros((2 * bm.kl + bm.ku + 1, n * lines))
        ab[bm.kl + bm.ku - core.offsets] = core.data
        _, piv, info = scipy.linalg.lapack.dgbtrf(ab, bm.kl, bm.ku)
        assert info == 0
        swapped = piv != np.arange(n * lines)
        assert swapped[2 * n:3 * n].any()
        assert bm._bands is None
        B = rng.normal(size=(n, lines))
        before = B.copy()
        X = bm.solve(B)
        assert np.array_equal(B, before)
        for k, A in enumerate(mats):
            assert np.max(np.abs(X[:, k] - np.linalg.solve(A.toarray(), B[:, k]))) \
                <= 1e-12 * np.max(np.abs(X[:, k]))


def variable_coefficient_lines(bc, n, axis, ratio):
    """I - alpha*L for example2's coefficient on an n x n grid, one line per
    grid line of ``axis``, with alpha = ratio * dx**2."""
    grid = Grid2D((-1.0, 1.0), (-1.0, 1.0), n, n, bc=bc)
    coeff = CoefficientField.from_callables(
        grid, a=lambda x, y: 2.0 + 0.5 * np.sin(np.pi * (4 * x + y)),
        a_x=lambda x, y: 2.0 * np.pi * np.cos(np.pi * (4 * x + y)),
        a_y=lambda x, y: 0.5 * np.pi * np.cos(np.pi * (4 * x + y)))
    op = DirectionalDiffusionOperator(grid, axis, coeff, boundary=lambda x, y, t: 0.0 * x)
    eye = sp.vstack([sp.eye(n, format="csr")] * n, format="csr")
    return eye - ratio * grid.dx ** 2 * op.L


class TestUnitDiagonalSweeps:
    """Stacked lines whose LU swapped no row solve by two unit-diagonal band
    sweeps with U's pivots divided out; a stack that swapped rows keeps gbtrs."""

    @pytest.mark.parametrize("bc,ratio,sweeps", [
        ("dirichlet", 0.1, True), ("periodic", 5.0, True), ("dirichlet", 5.0, False),
    ], ids=["dirichlet", "periodic", "dirichlet-row-swaps"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("n", [40, 200])
    def test_matches_per_line_dense_solve(self, n, axis, bc, ratio, sweeps):
        # the sixth-order Dirichlet closures make gbtrf swap rows once
        # alpha*a/dx^2 passes about 0.2; periodic lines swap none here
        A = variable_coefficient_lines(bc, n, axis, ratio)
        bm = BandedMatrix.from_sparse(A)
        assert bm.lines == n
        assert (bm._bands is not None) == sweeps
        B = np.random.default_rng(n).normal(size=(n, n))
        before = B.copy()
        X = bm.solve(B)
        assert np.array_equal(B, before)
        ref = np.stack([np.linalg.solve(A[k * n:(k + 1) * n].toarray(), B[:, k])
                        for k in range(n)], axis=1)
        assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))
