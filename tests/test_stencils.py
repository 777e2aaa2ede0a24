import numpy as np
import pytest

from idcos.banded import BandedMatrix
from idcos.errors import UsageError
from idcos.pde2d import Grid2D
from idcos.stencils import build_stencil, fd_weights


def dirichlet_grid(n, span=(-1.0, 1.0)):
    return Grid2D(x_span=span, y_span=span, N_x=n, N_y=3, bc="dirichlet")


def periodic_grid(n, span=(0.0, 1.0)):
    return Grid2D(x_span=span, y_span=span, N_x=n, N_y=3, bc="periodic")


class TestWeights:
    def test_centered_second_difference(self):
        assert np.allclose(fd_weights((-1, 0, 1), 2), [1.0, -2.0, 1.0])

    def test_centered_first_difference(self):
        assert np.allclose(fd_weights((-1, 0, 1), 1), [-0.5, 0.0, 0.5])

    def test_order6_second_derivative(self):
        w = fd_weights(tuple(range(-3, 4)), 2)
        ref = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
        assert np.allclose(w, ref, atol=1e-15)

    def test_biased_row_against_vandermonde(self):
        # independent float Vandermonde solve as oracle
        offs = tuple(range(-1, 7))
        w = fd_weights(offs, 2)
        V = np.vander(np.array(offs, dtype=float), increasing=True).T
        rhs = np.zeros(len(offs))
        rhs[2] = 2.0
        ref = np.linalg.solve(V, rhs)
        assert np.allclose(w, ref, atol=1e-10)

    @pytest.mark.parametrize("offs", [(-2, 0, 1, 3), (-0.5, 0.5, 1.5, 2.5)],
                             ids=["gapped", "half-integer"])
    @pytest.mark.parametrize("derivative", [1, 2])
    def test_uneven_row_against_vandermonde(self, offs, derivative):
        V = np.vander(np.array(offs, dtype=float), increasing=True).T
        rhs = np.zeros(len(offs))
        rhs[derivative] = float(derivative)  # d! for d = 1, 2
        assert np.allclose(fd_weights(offs, derivative), np.linalg.solve(V, rhs),
                           atol=1e-13)

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            fd_weights((0, 1), 2)

    @pytest.mark.parametrize("offsets", [(0, 0, 1), (-1, 1, 0, 1)])
    def test_repeated_offsets(self, offsets):
        with pytest.raises(UsageError, match="distinct"):
            fd_weights(offsets, 1)

    def test_cached_weights_are_read_only(self):
        # the array is cached: an in-place write would reach every later stencil
        with pytest.raises(ValueError, match="read-only"):
            fd_weights((-1, 0, 1), 2)[0] = 5.0
        assert np.array_equal(fd_weights((-1, 0, 1), 2), [1.0, -2.0, 1.0])


class TestBuildStencil:
    def test_interior_second_order_row(self):
        st = build_stencil(dirichlet_grid(12), "x", 2, 2)
        row = st.matrix[5] * st.spacing ** 2
        assert np.allclose(row[4:7], [1.0, -2.0, 1.0])

    def test_interior_order6_row(self):
        st = build_stencil(dirichlet_grid(20), "x", 2, 6)
        row = st.matrix[9] * st.spacing ** 2
        ref = [1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90]
        assert np.allclose(row[6:13], ref)

    @pytest.mark.parametrize("order,deriv", [(2, 1), (2, 2), (4, 1), (4, 2),
                                             (6, 1), (6, 2)])
    def test_constants_annihilated(self, order, deriv):
        st = build_stencil(dirichlet_grid(16), "x", deriv, order)
        out = st.apply_line(np.ones(16), g_left=1.0, g_right=1.0)
        assert np.max(np.abs(out)) <= 1e-12 / st.spacing ** deriv

    def test_linear_slope_exact(self):
        g = dirichlet_grid(16)
        st = build_stencil(g, "x", 1, 6)
        xs = g.xs
        out = st.apply_line(2.5 * xs, g_left=2.5 * g.x_span[0],
                            g_right=2.5 * g.x_span[1])
        assert np.allclose(out, 2.5, atol=1e-9)

    def test_bandwidth_bound(self):
        st = build_stencil(dirichlet_grid(25), "x", 2, 6)
        rows, cols = np.nonzero(st.matrix)
        assert np.max(np.abs(cols - rows)) <= 6

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_convergence_order_dirichlet(self, order):
        errs = []
        hs = []
        for n in (20, 40, 80):
            g = dirichlet_grid(n)
            st = build_stencil(g, "x", 2, order)
            vals = np.exp(g.xs)
            d2 = st.apply_line(vals, g_left=np.exp(g.x_span[0]),
                               g_right=np.exp(g.x_span[1]))
            errs.append(np.max(np.abs(d2 - vals)))
            hs.append(st.spacing)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, abs=0.2)

    @pytest.mark.parametrize("order", [4, 6])
    def test_boundary_row_order(self, order):
        # error measured at the first interior node only
        errs, hs = [], []
        for n in (20, 40, 80):
            g = dirichlet_grid(n)
            st = build_stencil(g, "x", 2, order)
            vals = np.exp(g.xs)
            d2 = st.apply_line(vals, g_left=np.exp(g.x_span[0]),
                               g_right=np.exp(g.x_span[1]))
            errs.append(abs(d2[0] - vals[0]))
            hs.append(st.spacing)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, abs=0.35)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_convergence_order_periodic(self, order):
        # manufactured derivatives of sin(2*pi*x); the first derivative also
        # fixes the sign convention of the periodic operator
        exact = {1: lambda x: 2 * np.pi * np.cos(2 * np.pi * x),
                 2: lambda x: -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)}
        for deriv in (1, 2):
            errs, hs = [], []
            for n in (16, 32, 64):
                g = periodic_grid(n)
                st = build_stencil(g, "x", deriv, order)
                d = st.apply_line(np.sin(2 * np.pi * g.xs))
                errs.append(np.max(np.abs(d - exact[deriv](g.xs))))
                hs.append(st.spacing)
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert slope == pytest.approx(order, abs=0.2)

    def test_periodic_matches_rolled_dense(self):
        g = periodic_grid(17)
        st = build_stencil(g, "x", 1, 4)
        w = fd_weights((-2, -1, 0, 1, 2), 1) / g.dx
        # row i of roll(eye, o) holds its 1 at column i+o: w_o multiplies u_{i+o}
        dense = sum(np.roll(np.eye(17), o, axis=1) * w[k]
                    for k, o in enumerate(range(-2, 3)))
        assert np.allclose(st.matrix, dense)

    @pytest.mark.parametrize("order,deriv", [(2, 1), (2, 2), (4, 1), (4, 2),
                                             (6, 1), (6, 2)])
    def test_smallest_periodic_line(self, order, deriv):
        # at n = 2*reach the offsets +reach and -reach alias to one node,
        # where the rolled oracle sums both weights
        reach = order // 2
        n = 2 * reach
        g = periodic_grid(n)
        st = build_stencil(g, "x", deriv, order)
        offsets = range(-reach, reach + 1)
        w = fd_weights(tuple(offsets), deriv) / g.dx ** deriv
        dense = sum(np.roll(np.eye(n), o, axis=1) * w[k]
                    for k, o in enumerate(offsets))
        assert np.allclose(st.matrix, dense)
        # the banded core plus wrap correction solves the aliased line system
        A = np.eye(n) - 0.01 * st.matrix
        rhs = np.random.default_rng(order + deriv).normal(size=(n, 1))
        x = BandedMatrix.from_sparse(A).solve(rhs)
        assert np.allclose(x, np.linalg.solve(A, rhs), rtol=0.0, atol=1e-13)

    def test_grid_too_small(self):
        with pytest.raises(UsageError):
            build_stencil(dirichlet_grid(5), "x", 2, 6)
        with pytest.raises(UsageError):
            build_stencil(periodic_grid(4), "x", 2, 6)

    def test_bad_arguments(self):
        g = dirichlet_grid(12)
        with pytest.raises(UsageError):
            build_stencil(g, "z", 2, 2)
        with pytest.raises(UsageError):
            build_stencil(g, "x", 3, 2)
        with pytest.raises(UsageError):
            build_stencil(g, "x", 2, 8)
