import warnings

import numpy as np
import pytest

from idcos.errors import PoleError, UsageError
from idcos.ode import DiagonalLinearOperator, MatrixLinearOperator, SplitIVP, ZeroOperator
from idcos.pde2d import PointwiseSourceOperator
from idcos.problems import fhn


def linear_problem(lams=(-1.0, -1.0), u0=1.0):
    ops = tuple(DiagonalLinearOperator(lam) for lam in lams)
    return SplitIVP(operators=ops, initial_state=np.array(u0), t_span=(0.0, 1.0))


class TestSplitIVP:
    def test_construction(self):
        p = linear_problem()
        assert p.num_operators == 2

    def test_needs_operator(self):
        with pytest.raises(UsageError):
            SplitIVP(operators=(), initial_state=np.array(1.0), t_span=(0.0, 1.0))

    def test_operator_without_implicit_solve(self):
        with pytest.raises(UsageError, match="operator 2 has no solve_implicit"):
            SplitIVP(operators=(ZeroOperator(), lambda t, u: -u),
                     initial_state=np.array(1.0), t_span=(0.0, 1.0))

    def test_time_span(self):
        with pytest.raises(UsageError):
            linear_problem().__class__(
                operators=(ZeroOperator(),), initial_state=np.array(1.0),
                t_span=(1.0, 1.0))

    @pytest.mark.parametrize("t_span", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan),
                                        (np.nan, 1.0)])
    def test_non_finite_time_span(self, t_span):
        with pytest.raises(UsageError, match="finite"):
            SplitIVP(operators=(ZeroOperator(),), initial_state=np.array(1.0),
                     t_span=t_span)

    def test_total_rhs_matches_sum(self):
        rng = np.random.default_rng(0)
        p = SplitIVP(
            operators=(PointwiseSourceOperator(lambda t, u: np.sin(u) + t,
                                               lambda t, u: np.cos(u)),
                       PointwiseSourceOperator(lambda t, u: u ** 2,
                                               lambda t, u: 2.0 * u),
                       DiagonalLinearOperator(-3.0)),
            initial_state=np.zeros(4), t_span=(0.0, 2.0))
        for _ in range(100):
            t = rng.uniform(0, 2)
            u = rng.normal(size=4)
            total = p.f_total(t, u)
            parts = sum(np.asarray(op(t, u)) for op in p.operators)
            scale = 1.0 + np.max(np.abs(total))
            assert np.max(np.abs(total - parts)) <= 1e-12 * scale


class TestEvalSplitRhs:
    def test_linear_scalar(self):
        p = linear_problem((-1.0, -1.0))
        assert p.operators[0](0.3, np.array(1.0)) == pytest.approx(-1.0)

    def test_zero_operator(self):
        p = SplitIVP(operators=(ZeroOperator(),), initial_state=np.zeros(3),
                     t_span=(0.0, 1.0))
        assert np.array_equal(p.operators[0](0.0, np.ones(3)), np.zeros(3))

    def test_fhn_reaction_at_origin(self):
        prob = fhn(N=8)
        ivp = prob.split_ivp(1.0)
        state = np.zeros_like(prob.initial)
        out = ivp.operators[2](0.0, state)
        assert np.array_equal(out[0], np.zeros(prob.grid.shape))
        assert np.array_equal(out[1], np.zeros(prob.grid.shape))


class TestOperators:
    def test_diagonal_solve(self):
        op = DiagonalLinearOperator(-2.0)
        out = op.solve_implicit(0.0, 0.5, np.array(4.0))
        assert out == pytest.approx(2.0)

    def test_diagonal_pole(self):
        op = DiagonalLinearOperator(2.0)
        with pytest.raises(PoleError):
            op.solve_implicit(0.0, 0.5, np.array(1.0))
        # lenient: the pole element comes back inf, without a warning
        op = DiagonalLinearOperator(np.array([2.0, -2.0]), strict=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = op.solve_implicit(0.0, 0.5, np.array([1.0, 4.0]))
        assert out[0] == np.inf
        assert out[1] == pytest.approx(2.0)

    def test_matrix_solve(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        op = MatrixLinearOperator(A)
        rhs = np.array([1.0, 2.0])
        x = op.solve_implicit(0.0, 0.3, rhs)
        assert np.allclose(x - 0.3 * A @ x, rhs)
