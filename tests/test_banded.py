import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from idcos.banded import BandedMatrix
from idcos.errors import LinearSolveError, UsageError
from idcos.pde2d import CoefficientField, DirectionalDiffusionOperator, Grid2D
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
        b = rng.normal(size=n)
        x = bm.solve(b)
        assert np.max(np.abs(A @ x - b)) <= 1e-11 * np.max(np.abs(b))

    def test_batched_solve(self):
        rng = np.random.default_rng(7)
        A = random_banded(rng, 30, 2, 4)
        bm = BandedMatrix.from_sparse(A)
        B = rng.normal(size=(30, 6))
        X = bm.solve(B)
        assert X.shape == (30, 6)
        assert np.max(np.abs(A @ X - B)) <= 1e-11 * np.max(np.abs(B))

    @pytest.mark.parametrize("n,w", [(20, 1), (41, 3), (64, 6)])
    def test_periodic_wrap(self, n, w):
        rng = np.random.default_rng(n + w)
        A = random_periodic(rng, n, w)
        bm = BandedMatrix.from_sparse(A)
        b = rng.normal(size=n)
        x = bm.solve(b)
        assert np.max(np.abs(A @ x - b)) <= 1e-11 * np.max(np.abs(b))
        B = rng.normal(size=(n, 3))
        assert np.max(np.abs(A @ bm.solve(B) - B)) <= 1e-11 * np.max(np.abs(B))

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        A = random_banded(rng, 15, 2, 2)
        bm = BandedMatrix.from_sparse(A)
        b = rng.normal(size=15)
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
    return sp.eye(n, format="csr") - alpha * build_stencil(grid, "x", 2, 6).matrix


class TestSharedLine:
    @pytest.mark.parametrize("build", [
        lambda rng: closure_line(60),
        lambda rng: random_banded(rng, 60, 6, 6),
        lambda rng: random_periodic(rng, 64, 6),
    ], ids=["closure", "banded", "periodic"])
    def test_matches_dense_solve(self, build):
        rng = np.random.default_rng(21)
        A = build(rng)
        bm = BandedMatrix.from_sparse(A)
        assert bm.lines == 1
        n = A.shape[0]
        for b in (rng.normal(size=n), rng.normal(size=(n, 7))):
            x = bm.solve(b)
            ref = np.linalg.solve(A.toarray(), b)
            assert x.shape == b.shape
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_closure_bandwidth(self):
        bm = BandedMatrix.from_sparse(closure_line(30))
        assert (bm.kl, bm.ku) == (6, 6)

    def test_transposed_batch(self):
        # x-direction sweeps solve the rows of a field through its transpose
        rng = np.random.default_rng(22)
        A = random_periodic(rng, 40, 3)
        bm = BandedMatrix.from_sparse(A)
        F = rng.normal(size=(9, 40))
        ref = np.linalg.solve(A.toarray(), F.T)
        assert np.max(np.abs(bm.solve(F.T) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_input_unchanged(self):
        rng = np.random.default_rng(23)
        bm = BandedMatrix.from_sparse(random_periodic(rng, 30, 2))
        B = rng.normal(size=(30, 4))
        before = B.copy()
        bm.solve(B)
        bm.solve(B[:, 0])
        assert np.array_equal(B, before)

    @pytest.mark.parametrize("shape", [(4,), (6, 2), (5, 2, 2)])
    def test_batch_needs_n_rows(self, shape):
        bm = BandedMatrix.from_sparse(random_banded(np.random.default_rng(24), 5, 1, 1))
        with pytest.raises(UsageError, match=r"shared line of 5 unknowns.*got shape"):
            bm.solve(np.ones(shape))

    def test_singular_wrap_capacitance(self):
        # the banded core is the identity, but the wrap entries (0, 3) and
        # (3, 0) make rows 0 and 3 equal: only the capacitance is singular
        A = sp.eye(4, format="lil")
        A[0, 3] = A[3, 0] = 1.0
        with pytest.raises(LinearSolveError, match="singular wrap"):
            BandedMatrix.from_sparse(A.tocsr())


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
