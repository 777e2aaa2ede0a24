import numpy as np
import pytest

from idcos.errors import UsageError
from idcos.polyint import (UniformNodeSet, integration_matrix, lagrange_eval, node_integrals,
                           partial_integral)


def nodes_for(M, t0=0.0, h=1.0):
    return UniformNodeSet(t0=t0, h=h, M=M)


class TestNodeSet:
    def test_times(self):
        n = nodes_for(3, t0=1.0, h=0.5)
        assert np.allclose(n.times, [1.0, 1.5, 2.0, 2.5])
        assert n.t_end == 2.5

    def test_validation(self):
        with pytest.raises(UsageError):
            nodes_for(0)
        with pytest.raises(UsageError):
            nodes_for(17)
        with pytest.raises(UsageError):
            UniformNodeSet(t0=0.0, h=-1.0, M=2)


class TestIntegrationMatrix:
    def test_trapezoid(self):
        gamma = integration_matrix(nodes_for(1)).gamma
        assert np.allclose(gamma, [[0.5, 0.5]], atol=1e-15)

    def test_simpson_row(self):
        gamma = integration_matrix(nodes_for(2)).gamma
        assert np.allclose(gamma[1], [1 / 6, 2 / 3, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("M", range(1, 14))
    def test_rows_sum_to_one(self, M):
        gamma = integration_matrix(nodes_for(M)).gamma
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3, 5, 8])
    def test_polynomial_exactness(self, M):
        # row-m integral of a random degree-M polynomial vs its antiderivative
        rng = np.random.default_rng(42 + M)
        t0, h = 0.3, 0.25
        n = nodes_for(M, t0=t0, h=h)
        gamma = integration_matrix(n).gamma
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, M + 1)
            p = np.polynomial.Polynomial(coeffs)
            P = p.integ()
            vals = p(n.times)
            for m in range(M):
                quad = (n.times[m + 1] - t0) * (gamma[m] @ vals)
                ref = P(n.times[m + 1]) - P(t0)
                assert abs(quad - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("M", [1, 2, 5, 8])
    def test_node_integrals_exact_on_polynomials(self, M):
        # every node at once: row 0 is zero, row m the integral up to t_m
        rng = np.random.default_rng(7 + M)
        n = nodes_for(M, t0=0.3, h=0.25)
        p = np.polynomial.Polynomial(rng.uniform(-1, 1, M + 1))
        out = node_integrals(n, np.stack([p(n.times), 2 * p(n.times)], axis=1))
        ref = p.integ()(n.times) - p.integ()(n.t0)
        assert out.shape == (M + 1, 2) and np.all(out[0] == 0)
        assert np.allclose(out, np.stack([ref, 2 * ref], axis=1), rtol=0, atol=1e-12)

    def test_affine_invariance(self):
        a = integration_matrix(nodes_for(4, t0=0.0, h=1.0)).gamma
        b = integration_matrix(nodes_for(4, t0=-3.7, h=0.013)).gamma
        assert np.array_equal(a, b)


class TestLagrangeEval:
    def test_linear_midpoint(self):
        assert lagrange_eval(nodes_for(1), [0.0, 1.0], 0.5) == pytest.approx(0.5)

    def test_quadratic_exact(self):
        n = nodes_for(2, h=0.5)
        vals = n.times ** 2
        assert lagrange_eval(n, vals, 0.25) == pytest.approx(0.0625, abs=1e-15)

    def test_sin_within_remainder_bound(self):
        n = UniformNodeSet(t0=0.0, h=1.0 / 3.0, M=3)
        vals = np.sin(n.times)
        approx = lagrange_eval(n, vals, 0.5)
        # classical remainder: max|sin''''| * prod|t - t_j| / 4!
        bound = np.prod(np.abs(0.5 - n.times)) / 24.0
        assert abs(approx - np.sin(0.5)) <= bound

    def test_exact_at_nodes(self):
        n = nodes_for(4, h=0.2)
        vals = np.cos(n.times)
        for t, v in zip(n.times, vals):
            assert lagrange_eval(n, vals, t) == v

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(), (2, 3)], ids=["scalar", "field"])
    def test_node_read_ignores_non_finite_neighbours(self, bad, shape):
        # a one-hot cardinal row would give 0 * inf = nan at every other node
        nodes = UniformNodeSet(0.0, 0.1, 2)
        values = np.stack([np.full(shape, 1.0), np.full(shape, bad), np.full(shape, 2.0)])
        for m, t in ((0, 0.0), (2, 0.2)):
            out = lagrange_eval(nodes, values, t)
            assert np.array_equal(out, values[m])
            out[...] = -1.0  # a copy: the node values stay
            assert np.array_equal(values[m], np.full(shape, 1.0 + m // 2))

    def test_vector_values(self):
        n = nodes_for(1)
        vals = [np.array([0.0, 2.0]), np.array([1.0, 4.0])]
        out = lagrange_eval(n, vals, 0.5)
        assert np.allclose(out, [0.5, 3.0])

    def test_extrapolation_flagged(self):
        n = nodes_for(2)
        for t in (-0.5, -1.5, n.t_end + 0.5):
            with pytest.raises(UsageError, match="outside the node range"):
                lagrange_eval(n, [0.0, 1.0, 2.0], t)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            lagrange_eval(nodes_for(2), [0.0, 1.0], 0.5)


class TestPartialIntegral:
    def test_zero_data(self):
        n = nodes_for(3, h=0.1)
        assert partial_integral(n, np.zeros(4), n.t0 + 0.17) == pytest.approx(0.0)

    def test_constant_integrand(self):
        n = nodes_for(1, h=0.4)
        out = partial_integral(n, [1.0, 1.0], n.t0 + 0.3 * n.h)
        assert out == pytest.approx(0.3 * n.h, abs=1e-15)

    def test_linear_integrand(self):
        n = UniformNodeSet(t0=0.0, h=0.5, M=2)
        out = partial_integral(n, n.times, 0.5)
        assert out == pytest.approx(0.125, abs=1e-15)

    def test_matches_gamma_rows(self):
        rng = np.random.default_rng(3)
        n = nodes_for(5, t0=0.2, h=0.3)
        vals = rng.normal(size=6)
        gamma = integration_matrix(n).gamma
        for m in range(n.M):
            ref = (n.times[m + 1] - n.t0) * (gamma[m] @ vals)
            out = partial_integral(n, vals, n.times[m + 1])
            assert out == pytest.approx(ref, abs=1e-13)

    def test_out_of_range(self):
        n = nodes_for(2)
        with pytest.raises(UsageError):
            partial_integral(n, [0.0, 0.0, 0.0], n.t_end + 0.5)


class TestNodeValueInputs:
    """An array of node values is read in place; a sequence is stacked first."""

    def values(self, M):
        rng = np.random.default_rng(11)
        return rng.normal(size=(M + 1, 3, 4)) + 1j * rng.normal(size=(M + 1, 3, 4))

    @pytest.mark.parametrize("M", [1, 3, 5])
    def test_array_and_list_agree_bitwise(self, M):
        n = nodes_for(M, t0=0.4, h=0.07)
        arr = self.values(M)
        seq = list(arr.copy())
        for t in (n.t0, n.t0 + 0.37 * n.h, n.t_end - 0.11 * n.h, n.t_end):
            for fn in (lagrange_eval, partial_integral):
                a, b = fn(n, arr, t), fn(n, seq, t)
                assert a.shape == b.shape == (3, 4)
                assert a.tobytes() == b.tobytes()

    def test_array_is_not_modified(self):
        n = nodes_for(3, h=0.2)
        arr = self.values(3)
        before = arr.copy()
        lagrange_eval(n, arr, 0.1)[...] = 0.0
        partial_integral(n, arr, 0.3)[...] = 0.0
        assert np.array_equal(arr, before)

    @pytest.mark.parametrize("as_list", [False, True])
    def test_wrong_row_count(self, as_list):
        n = nodes_for(3, h=0.2)
        vals = self.values(4)
        if as_list:
            vals = list(vals)
        for fn in (lagrange_eval, partial_integral):
            with pytest.raises(UsageError, match="expected 4 node values, got 5"):
                fn(n, vals, 0.1)
