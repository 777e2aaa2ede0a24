import numpy as np
import pytest

from idcos.errors import UnsupportedSchemeError
from idcos.ode import DiagonalLinearOperator, MatrixLinearOperator, SplitIVP, ZeroOperator
from idcos.pde2d import PointwiseSourceOperator
from idcos.steppers import (STEPPER_ORDERS, adi_step, check_operator_count, get_stepper,
                            lie_trotter_step, strang_step)

QUAD_ROOT = (-1.0 + np.sqrt(1.4)) / 0.2  # root of x + 0.1 x^2 = 1 in (0, 1)


def scalar_problem(*lams):
    return SplitIVP(operators=tuple(DiagonalLinearOperator(lam) for lam in lams),
                    initial_state=np.array(1.0), t_span=(0.0, 1.0))


def zero_problem(n_ops, dim=3):
    return SplitIVP(operators=tuple(ZeroOperator() for _ in range(n_ops)),
                    initial_state=np.zeros(dim), t_span=(0.0, 1.0))


class TestLieTrotter:
    def test_linear_two_operators(self):
        p = scalar_problem(-1.0, -1.0)
        out = lie_trotter_step(p, 0.0, 0.1, np.array(1.0))
        assert out == pytest.approx(1.0 / 1.21, rel=1e-13)

    def test_zero_operators(self):
        p = zero_problem(3)
        u = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(lie_trotter_step(p, 0.0, 0.1, u), u)

    def test_nonlinear_backward_euler(self):
        square = PointwiseSourceOperator(lambda t, u: -u * u, lambda t, u: -2.0 * u)
        p = SplitIVP(operators=(square, ZeroOperator()),
                     initial_state=np.array(1.0), t_span=(0.0, 1.0))
        out = lie_trotter_step(p, 0.0, 0.1, np.array(1.0))
        assert out == pytest.approx(QUAD_ROOT, abs=1e-10)


class TestStrang:
    def test_trapezoid_factors(self):
        p = scalar_problem(-0.5, -0.5)
        out = strang_step(p, 0.0, 0.1, np.array(1.0))
        factor = (1 - 0.0125) / (1 + 0.0125)
        assert out == pytest.approx(factor ** 4, rel=1e-13)

    def test_zero_operators(self):
        p = zero_problem(2)
        u = np.ones(3)
        assert np.array_equal(strang_step(p, 0.0, 0.1, u), u)

    def test_three_operator_sequence(self):
        p = scalar_problem(-0.3, -0.4, -0.3)
        out = strang_step(p, 0.0, 0.1, np.array(1.0))
        # hand-composed trapezoidal factors of the five sub-steps
        def trap(lam, width):
            return (1 + width * lam / 2) / (1 - width * lam / 2)
        ref = (trap(-0.3, 0.05) ** 2 * trap(-0.4, 0.05) ** 2 * trap(-0.3, 0.1))
        assert out == pytest.approx(ref, rel=1e-13)

    def test_too_many_operators(self):
        with pytest.raises(UnsupportedSchemeError):
            strang_step(zero_problem(4), 0.0, 0.1, np.zeros(3))

    def test_palindromic_reversal(self):
        rng = np.random.default_rng(5)
        A1 = rng.normal(size=(3, 3))
        A2 = rng.normal(size=(3, 3))
        fwd = SplitIVP(operators=(MatrixLinearOperator(A1), MatrixLinearOperator(A2)),
                       initial_state=np.zeros(3), t_span=(0.0, 1.0))
        rev = SplitIVP(operators=(MatrixLinearOperator(-A1), MatrixLinearOperator(-A2)),
                       initial_state=np.zeros(3), t_span=(0.0, 1.0))
        u0 = rng.normal(size=3)
        u1 = strang_step(fwd, 0.0, 0.05, u0)
        back = strang_step(rev, 0.0, 0.05, u1)
        assert np.max(np.abs(back - u0)) <= 1e-10

    def test_non_autonomous_second_order(self):
        lam = -1.0

        def exact(t, u0=1.0):
            part = lambda s: (lam * -np.cos(s) + np.sin(s)) / (1 + lam * lam)
            return (u0 - part(0.0)) * np.exp(lam * t) + part(t)

        forcing = PointwiseSourceOperator(lambda t, u: np.cos(t) * np.ones_like(u),
                                          lambda t, u: np.zeros_like(u))
        p = SplitIVP(operators=(DiagonalLinearOperator(lam), forcing),
                     initial_state=np.array(1.0), t_span=(0.0, 1.0))
        errs = []
        for n in (20, 40, 80):
            u = np.array(1.0)
            dt = 1.0 / n
            for k in range(n):
                u = strang_step(p, k * dt, dt, u)
            errs.append(abs(float(u) - exact(1.0)))
        slope = np.log(errs[0] / errs[-1]) / np.log(4.0)
        assert slope == pytest.approx(2.0, abs=0.1)


class TestADI:
    def test_rational_factor(self):
        p = scalar_problem(-1.0, -1.0)  # lambda/2 = -1 each
        out = adi_step(p, 0.0, 1.0, np.array(1.0))
        assert out == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_zero_operators(self):
        p = zero_problem(2)
        u = np.ones(4)
        assert np.array_equal(adi_step(p, 0.0, 0.5, u), u)

    def test_wrong_operator_count(self):
        with pytest.raises(UnsupportedSchemeError):
            adi_step(zero_problem(3), 0.0, 0.1, np.zeros(3))

    def test_one_explicit_call_per_step(self):
        # the x-sweep's solve gives mid + (dt/2) f_1(mid) as 2 mid - rhs1
        rng = np.random.default_rng(8)
        A1 = rng.normal(size=(6, 6)) - 6.0 * np.eye(6)
        A2 = rng.normal(size=(6, 6)) - 6.0 * np.eye(6)
        assert np.max(np.abs(A1 @ A2 - A2 @ A1)) > 1.0
        calls = []

        class Counted(MatrixLinearOperator):
            def __call__(self, t, u):
                calls.append(self)
                return super().__call__(t, u)

        op1, op2 = Counted(A1), Counted(A2)
        p = SplitIVP(operators=(op1, op2), initial_state=np.zeros(6), t_span=(0.0, 1.0))
        t, dt, u = 0.3, 0.2, rng.normal(size=6)
        out = adi_step(p, t, dt, u)
        assert calls == [op2]
        # the two-evaluation form
        I, half = np.eye(6), 0.5 * dt
        mid = np.linalg.solve(I - half * A1, u + half * A2 @ u)
        ref = np.linalg.solve(I - half * A2, mid + half * A1 @ mid)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("scheme", sorted(STEPPER_ORDERS))
def test_steppers_take_the_declared_operator_counts(scheme):
    # a driver's up-front check and the stepper's own check agree, message included
    for n in range(1, 5):
        try:
            check_operator_count(scheme, n)
            declared = None
        except UnsupportedSchemeError as exc:
            declared = str(exc)
        try:
            get_stepper(scheme)(zero_problem(n), 0.0, 0.1, np.zeros(3))
            stepped = None
        except UnsupportedSchemeError as exc:
            stepped = str(exc)
        assert stepped == declared, n
    # four operators: only Lie-Trotter takes them
    assert (declared is None) == (scheme == "lie-trotter")


class TestOrders:
    @pytest.mark.parametrize("stepper,order", [
        (lie_trotter_step, 1.0), (strang_step, 2.0), (adi_step, 2.0)])
    def test_global_convergence_order(self, stepper, order):
        p = scalar_problem(-0.5, -0.5)
        errs = []
        ns = [40, 80, 160, 320]
        for n in ns:
            dt = 1.0 / n
            u = np.array(1.0)
            for k in range(n):
                u = stepper(p, k * dt, dt, u)
            errs.append(abs(float(u) - np.exp(-1.0)))
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, abs=0.1)
