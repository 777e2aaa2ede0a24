import numpy as np
import pytest
import scipy.sparse as sp

from idcos.banded import BandedMatrix
from idcos.errors import LinearSolveError, UsageError


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
