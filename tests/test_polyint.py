from fractions import Fraction

import numpy as np
import pytest

from idcos import polyint
from idcos.errors import UsageError
from idcos.polyint import UniformNodeSet, integral_weights, lagrange_eval, partial_integral


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


def long_run_nodes():
    """The sub-intervals of a 10,240-sub-step ladder to t=0.025 that start at
    t=0.015625 (M=2), and their node times reached by repeated t + h, which
    drift from t0 + m*h by 5.1e-13 and 1.02e-12 in tau."""
    nodes = UniformNodeSet(t0=0.015625, h=0.025 / 10240, M=2)
    drifted = [nodes.t0]
    for _ in range(nodes.M):
        drifted.append(drifted[-1] + nodes.h)
    return nodes, drifted


class TestNodeRule:
    """``UniformNodeSet.local`` alone decides whether a time is a node."""

    def test_drifted_node_times_are_nodes(self):
        nodes, drifted = long_run_nodes()
        assert (drifted[-1] - nodes.t0) / nodes.h - nodes.M > polyint.NODE_TOL
        vals = np.random.default_rng(12).normal(size=(nodes.M + 1, 3))
        for m, t in enumerate(drifted):
            assert nodes.local(t) == m
            assert polyint.node_index(nodes.M, nodes.local(t)) == m
            assert np.array_equal(lagrange_eval(nodes, vals, t), vals[m])
            assert np.array_equal(partial_integral(nodes, vals, t),
                                  partial_integral(nodes, vals, nodes.times[m]))

    def test_tolerance_scales_with_t_over_h(self):
        # 8e-12 off node 1 in tau is rounding near t=0.0156 with h=2.4e-6
        # (within 1.1e-11), and a time between nodes near t=0 (1e-12)
        h = 0.025 / 10240
        for t0, snapped in ((0.015625, True), (0.0, False)):
            nodes = UniformNodeSet(t0=t0, h=h, M=2)
            assert (nodes.local(t0 + (1 + 8e-12) * h) == 1.0) is snapped

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_off_range_times_raise(self, side):
        # past either end by more than rounding, even on a long run's nodes
        nodes, _ = long_run_nodes()
        t = nodes.t0 - 1e-9 * nodes.h if side == "before" else nodes.t_end + 1e-9 * nodes.h
        vals = np.zeros((nodes.M + 1, 2))
        for read in (nodes.local, lambda t: lagrange_eval(nodes, vals, t),
                     lambda t: partial_integral(nodes, vals, t)):
            with pytest.raises(UsageError, match="outside the node range"):
                read(t)
        with pytest.raises(UsageError, match="outside the node range"):
            nodes.local(np.array([nodes.t0, t]))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_raise(self, t):
        nodes, _ = long_run_nodes()
        for read in (t, np.float64(t), np.array(t), np.array([t])):
            with pytest.raises(UsageError, match="outside the node range"):
                nodes.local(read)

    def test_array_reads_each_time(self):
        nodes, drifted = long_run_nodes()
        times = np.array([drifted + [nodes.t0 + 0.3 * nodes.h],
                          [nodes.t0 + 0.5 * nodes.h, nodes.times[1], nodes.t_end,
                           np.nextafter(drifted[-1], 0)]])
        taus = nodes.local(times)
        assert taus.shape == times.shape
        for idx in np.ndindex(times.shape):
            assert taus[idx] == nodes.local(float(times[idx]))
        assert list(taus[0, :3]) == [0.0, 1.0, 2.0]
        assert nodes.local(np.asarray(drifted[2])) == 2.0


class TestIntegrationMatrix:
    """Rows of the one weight generator: w_j = integral_0^tau of cardinal j."""

    def test_trapezoid(self):
        assert np.array_equal(integral_weights(1, 1.0), [0.5, 0.5])

    def test_simpson_row(self):
        assert np.array_equal(integral_weights(2, 2.0), [1 / 3, 4 / 3, 1 / 3])

    @pytest.mark.parametrize("M", range(1, 14))
    def test_rows_sum_to_one(self, M):
        # per unit of tau: exact on constants, at nodes and between them
        for tau in [*range(1, M + 1), 0.5, M - 0.3]:
            assert integral_weights(M, tau).sum() / tau == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3, 5, 8])
    def test_polynomial_exactness(self, M):
        # integral to every node and to stage times of a random degree-M
        # polynomial vs its antiderivative
        rng = np.random.default_rng(42 + M)
        t0, h = 0.3, 0.25
        n = nodes_for(M, t0=t0, h=h)
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, M + 1)
            p = np.polynomial.Polynomial(coeffs)
            P = p.integ()
            vals = p(n.times)
            for tau in [*range(1, M + 1), 0.5, M - 0.3]:
                quad = h * (integral_weights(M, tau) @ vals)
                ref = P(t0 + tau * h) - P(t0)
                assert abs(quad - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("M", [1, 2, 5, 8])
    def test_node_integrals_exact_on_polynomials(self, M):
        # every node at once: row 0 is zero, row m the integral up to t_m
        rng = np.random.default_rng(7 + M)
        n = nodes_for(M, t0=0.3, h=0.25)
        p = np.polynomial.Polynomial(rng.uniform(-1, 1, M + 1))
        out = partial_integral(n, np.stack([p(n.times), 2 * p(n.times)], axis=1), n.times)
        ref = p.integ()(n.times) - p.integ()(n.t0)
        assert out.shape == (M + 1, 2) and np.all(out[0] == 0)
        assert np.allclose(out, np.stack([ref, 2 * ref], axis=1), rtol=0, atol=1e-12)

    def test_affine_invariance(self):
        # the weights depend on M and tau only: integrals scale with h alone
        vals = np.random.default_rng(4).normal(size=5)
        a, b = nodes_for(4, t0=0.0, h=1.0), nodes_for(4, t0=-3.7, h=0.125)
        for tau in (1.0, 3.0, 0.5, 2.75):
            assert (partial_integral(b, vals, b.t0 + tau * b.h)
                    == 0.125 * partial_integral(a, vals, a.t0 + tau * a.h))

    @pytest.mark.parametrize("M", range(1, 17))
    def test_rows_are_rounded_rational_integrals(self, M):
        # bit for bit the cardinal antiderivatives evaluated in Fraction
        # arithmetic at the float's exact value, rounded once
        anti = [polyint._poly_antiderivative(c) for c in polyint._cardinal_coefficients(M)]
        for tau in (0.0, 1.0, float(M), 0.5, M / 3, M - 0.3, 1e-3):
            ref = [float(polyint._poly_eval(a, Fraction(tau))) for a in anti]
            assert np.array_equal(integral_weights(M, tau), ref)


class TestLagrangeEval:
    @pytest.mark.parametrize("M", range(1, 17))
    def test_rows_are_rounded_rational_cardinals(self, M):
        # between nodes, bit for bit the cardinals evaluated in Fraction
        # arithmetic at the float's exact value, rounded once
        cards = polyint._cardinal_coefficients(M)
        for tau in (0.5, M / 3, M - 0.3, 1e-3, M - 1e-3):
            if polyint.node_index(M, tau) is not None:
                continue
            ref = [float(polyint._poly_eval(c, Fraction(tau))) for c in cards]
            assert np.array_equal(lagrange_eval(nodes_for(M), np.eye(M + 1), tau), ref)

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

    def test_one_node_test_for_every_reader(self):
        # 5e-13 off t_1 in tau is the node for interpolation and integration
        n = nodes_for(3, h=0.1)
        vals = np.random.default_rng(9).normal(size=(4, 3))
        t = n.times[1] + 5e-14
        assert polyint.node_index(n.M, n.local(t)) == 1
        assert np.array_equal(lagrange_eval(n, vals, t), vals[1])
        assert np.array_equal(partial_integral(n, vals, t),
                              partial_integral(n, vals, n.times[1]))
        assert polyint.node_index(n.M, n.local(n.times[1] + 2e-13)) is None

    def test_drifted_node_times_are_nodes(self):
        # node times reached by repeated t + dt late in a long run
        n = UniformNodeSet(t0=9.995, h=0.005 / 3, M=3)
        vals = np.random.default_rng(10).normal(size=(4, 3))
        t = n.t0
        for m in range(1, n.M + 1):
            t = t + n.h
            assert np.array_equal(lagrange_eval(n, vals, t), vals[m])
            assert np.array_equal(integral_weights(n.M, n.local(t)), integral_weights(n.M, m))


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
        # node times read the generator's node rows, one at a time or all at once
        rng = np.random.default_rng(3)
        n = nodes_for(5, t0=0.2, h=0.3)
        vals = rng.normal(size=6)
        rows = np.stack([integral_weights(n.M, m) for m in range(n.M + 1)])
        assert np.array_equal(partial_integral(n, vals, n.times), n.h * (rows @ vals))
        for m in range(n.M + 1):
            out = partial_integral(n, vals, n.times[m])
            assert out == pytest.approx(n.h * (rows[m] @ vals), abs=1e-15)

    def test_array_upper_limits(self):
        # an array of times adds its axes in front of the value axes
        n = nodes_for(3, t0=0.2, h=0.3)
        vals = np.random.default_rng(8).normal(size=(4, 2, 5))
        times = np.array([[n.t0, n.t0 + 0.4 * n.h], [n.times[2], n.t_end]])
        out = partial_integral(n, vals, times)
        assert out.shape == (2, 2, 2, 5)
        for idx in np.ndindex(times.shape):
            assert np.allclose(out[idx], partial_integral(n, vals, times[idx]),
                               rtol=0, atol=1e-15)

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
