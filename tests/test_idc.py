import gc
import warnings
import weakref

import numpy as np
import pytest

from idcos.errors import StepperError, UsageError
from idcos import idc
from idcos.idc import (ErrorProblem, IDCConfig, IDCLevelResult, correct_once, idc_march,
                       idc_solve, predict, solve_macro_interval)
from idcos.ode import DiagonalLinearOperator, SplitIVP, ZeroOperator
from idcos.pde2d import PointwiseSourceOperator
from idcos.polyint import UniformNodeSet

LD = np.longdouble


def scalar_problem(lams=(-0.5, -0.5), u0=1.0, T=1.0, dtype=float):
    ops = tuple(DiagonalLinearOperator(np.asarray(lam, dtype=dtype)) for lam in lams)
    return SplitIVP(operators=ops,
                    initial_state=np.array(u0, dtype=dtype),
                    t_span=(np.asarray(0.0, dtype=dtype), np.asarray(T, dtype=dtype)))


def polynomial_problem(dtype=float):
    # u' = 3t^2 split over two operators; exact solution t^3 + 1 has degree 3
    f1 = PointwiseSourceOperator(lambda t, u: 1.5 * t * t * np.ones_like(u),
                                 lambda t, u: np.zeros_like(u))
    return SplitIVP(operators=(f1, f1), initial_state=np.array(1.0, dtype=dtype),
                    t_span=(0.0, 1.0))


def residual_integrals(level, problem, mode="interpolant"):
    """Integrals of the level's residual from t0 to each node t_{m+1}."""
    ep = ErrorProblem(problem, level, residual_mode=mode)
    return np.stack([ep.shift(t) for t in level.nodes.times[1:]])


def global_slope(problem, cfg, macro_counts, exact):
    errs = []
    for n in macro_counts:
        traj = idc_solve(problem, n, cfg)
        errs.append(float(np.max(np.abs(traj.states - exact(traj.times)))))
    return np.polyfit(np.log([1.0 / n for n in macro_counts]), np.log(errs), 1)[0]


class TestConfig:
    def test_defaults(self):
        cfg = IDCConfig(corrections=2, predictor="strang")
        assert cfg.target_order() == 6
        assert cfg.resolved_M() == 6

    def test_mixed_correctors(self):
        cfg = IDCConfig(corrections=2, predictor="lie-trotter",
                        correctors=("strang", "lie-trotter"))
        assert cfg.scheme_orders() == [1, 2, 1]

    def test_corrector_count_mismatch(self):
        with pytest.raises(UsageError):
            IDCConfig(corrections=2, correctors=("strang",))

    def test_bad_residual_mode(self):
        with pytest.raises(UsageError):
            IDCConfig(residual_mode="nonsense")


class TestPredict:
    def test_closed_form_nodes(self):
        p = scalar_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.1, M=3)
        level = predict(p, nodes, np.array(1.0), IDCConfig(predictor="lie-trotter"))
        factor = 1.0 / 1.05 ** 2
        assert np.allclose(level.values, [factor ** m for m in range(4)], rtol=1e-13)

    def test_zero_rhs(self):
        p = SplitIVP(operators=(ZeroOperator(), ZeroOperator()),
                     initial_state=np.array(2.0), t_span=(0.0, 1.0))
        nodes = UniformNodeSet(t0=0.0, h=0.25, M=4)
        level = predict(p, nodes, np.array(2.0), IDCConfig())
        assert np.array_equal(level.values, np.full(5, 2.0))

    def test_single_interval_is_one_step(self):
        from idcos.steppers import lie_trotter_step
        p = scalar_problem((-0.3, -0.8))
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=1)
        level = predict(p, nodes, np.array(1.0), IDCConfig(predictor="lie-trotter"))
        ref = lie_trotter_step(p, 0.0, 0.2, np.array(1.0))
        assert level.values[1] == pytest.approx(float(ref), rel=1e-14)


class TestResidualIntegrals:
    def test_exact_polynomial_solution(self):
        p = polynomial_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.25, M=3)
        values = nodes.times ** 3 + 1.0
        level = IDCLevelResult(nodes=nodes, values=values)
        res = residual_integrals(level, p)
        assert np.max(np.abs(res)) <= 1e-12

    def test_zero_rhs_constant_values(self):
        p = SplitIVP(operators=(ZeroOperator(),), initial_state=np.array(1.0),
                     t_span=(0.0, 1.0))
        nodes = UniformNodeSet(t0=0.0, h=0.5, M=2)
        values = np.full(3, 4.0)
        level = IDCLevelResult(nodes=nodes, values=values)
        assert np.max(np.abs(residual_integrals(level, p))) == 0.0

    def test_unit_rhs_linear_values(self):
        unit = PointwiseSourceOperator(lambda t, u: np.ones_like(u),
                                       lambda t, u: np.zeros_like(u))
        p = SplitIVP(operators=(unit,),
                     initial_state=np.array(0.0), t_span=(0.0, 1.0))
        nodes = UniformNodeSet(t0=0.0, h=0.5, M=2)
        values = nodes.times.copy()
        level = IDCLevelResult(nodes=nodes, values=values)
        assert np.max(np.abs(residual_integrals(level, p))) <= 1e-14

    def test_oversampled_agrees_on_polynomials(self):
        p = polynomial_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.25, M=3)
        values = nodes.times ** 3 + 1.0
        level = IDCLevelResult(nodes=nodes, values=values)
        a = residual_integrals(level, p, mode="interpolant")
        b = residual_integrals(level, p, mode="oversampled(13)")
        assert np.max(np.abs(a - b)) <= 1e-12


class TestCorrectOnce:
    def test_fixed_point_on_polynomial_solution(self):
        p = polynomial_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.25, M=3)
        values = nodes.times ** 3 + 1.0
        level = IDCLevelResult(nodes=nodes, values=values)
        out = correct_once(p, level, 1, IDCConfig(corrections=1))
        assert np.max(np.abs(out.values - values)) <= 1e-12

    def test_zero_rhs_unchanged(self):
        p = SplitIVP(operators=(ZeroOperator(), ZeroOperator()),
                     initial_state=np.array(1.5), t_span=(0.0, 1.0))
        nodes = UniformNodeSet(t0=0.0, h=0.1, M=2)
        level = predict(p, nodes, np.array(1.5), IDCConfig())
        out = correct_once(p, level, 1, IDCConfig(corrections=1))
        assert np.array_equal(out.values, level.values)

    def test_single_correction_slope(self):
        p = scalar_problem(dtype=LD)
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=2)
        # macro step starts at H = 0.2 and halves five times
        slope = global_slope(p, cfg, [5, 10, 20, 40, 80, 160],
                             lambda t: np.exp(-t))
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_initial_node_invariance(self):
        p = scalar_problem((-0.4, -0.9))
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=3)
        u0 = np.array(0.8)
        level = predict(p, nodes, u0, IDCConfig())
        for k in (1, 2):
            level = correct_once(p, level, k, IDCConfig(corrections=2))
            assert level.values[0] == u0


class TestIdcSolve:
    def test_single_macro_matches_manual(self):
        p = scalar_problem()
        cfg = IDCConfig(corrections=2, predictor="lie-trotter", M=3)
        traj = idc_solve(p, 1, cfg)
        nodes = UniformNodeSet(t0=0.0, h=1.0 / 3.0, M=3)
        level = solve_macro_interval(p, nodes, p.initial_state, cfg)
        assert traj.final_state == pytest.approx(float(level.final_state), rel=1e-15)

    def test_lie_two_corrections_third_order(self):
        p = scalar_problem(dtype=LD)
        cfg = IDCConfig(corrections=2, predictor="lie-trotter", M=3)
        slope = global_slope(p, cfg, [5, 10, 20, 40, 80], lambda t: np.exp(-t))
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_strang_one_correction_fourth_order(self):
        p = scalar_problem(dtype=LD)
        cfg = IDCConfig(corrections=1, predictor="strang", M=4)
        slope = global_slope(p, cfg, [5, 10, 20, 40, 80], lambda t: np.exp(-t))
        assert slope == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize("predictor,corrector,cs,expected", [
        ("lie-trotter", None, 3, 4.0),
        ("adi", None, 2, 6.0),
        ("strang", None, 2, 6.0),
        ("lie-trotter", "strang", 2, 5.0),
        ("strang", "lie-trotter", 2, 4.0),
    ])
    def test_order_lift_combinations(self, predictor, corrector, cs, expected):
        p = scalar_problem(dtype=LD)
        cfg = IDCConfig(corrections=cs, predictor=predictor, correctors=corrector)
        runs = [1, 2, 4, 8, 16] if expected >= 5 else [5, 10, 20, 40, 80]
        slope = global_slope(p, cfg, runs, lambda t: np.exp(-t))
        assert slope == pytest.approx(expected, abs=0.25)

    def test_order_saturates_at_quadrature(self):
        # corrections on M=1 nodes saturate at the trapezoid's order M+1=2
        p = scalar_problem(dtype=LD)
        cfg = IDCConfig(corrections=3, predictor="lie-trotter", M=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slope = global_slope(p, cfg, [5, 10, 20, 40, 80], lambda t: np.exp(-t))
        assert slope == pytest.approx(2.0, abs=0.25)

    def test_warns_when_order_exceeds_quadrature(self):
        p = scalar_problem()
        cfg = IDCConfig(corrections=3, predictor="lie-trotter", M=2)
        with pytest.warns(UserWarning, match="saturate"):
            idc_solve(p, 2, cfg)

    def test_keep_modes(self):
        p = scalar_problem()
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        macro = idc_solve(p, 4, cfg, keep="macro")
        sub = idc_solve(p, 4, cfg, keep="subnodes")
        final = idc_solve(p, 4, cfg, keep="final")
        assert len(macro) == 5
        assert len(sub) == 13
        assert len(final) == 2
        assert final.final_state == macro.final_state

    def test_march_steps_and_eager_checks(self):
        p = scalar_problem()
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        steps = list(idc_march(p, 4, cfg))
        assert [nodes.t0 for nodes, _ in steps] == [0.0, 0.25, 0.5, 0.75]
        assert steps[-1][1].final_state == idc_solve(p, 4, cfg, keep="final").final_state
        with pytest.raises(UsageError):
            idc_march(p, 0, cfg)  # raised by the call, before any step runs
        with pytest.raises(UsageError):
            idc_solve(p, 4, cfg, keep="all")

    def test_residual_modes_agree_for_linear(self):
        p = scalar_problem()
        out = {}
        for mode in ("interpolant", "oversampled(13)"):
            cfg = IDCConfig(corrections=2, predictor="lie-trotter", M=3,
                            residual_mode=mode)
            out[mode] = float(idc_solve(p, 4, cfg).final_state)
        assert out["interpolant"] == pytest.approx(out["oversampled(13)"], abs=1e-13)

    def test_error_annotation(self):
        bad = PointwiseSourceOperator(lambda t, u: u * np.inf,
                                      lambda t, u: np.full_like(u, np.inf))
        p = SplitIVP(operators=(bad, ZeroOperator()), initial_state=np.array(1.0),
                     t_span=(0.0, 1.0))
        cfg = IDCConfig(corrections=0, predictor="lie-trotter", M=2)
        with pytest.raises(StepperError) as err:
            with np.errstate(invalid="ignore"):
                idc_solve(p, 3, cfg)
        assert err.value.macro_step == 0
        assert err.value.node == 0
        assert err.value.sweep == 0


class CountingOperator(DiagonalLinearOperator):
    """lam * u, counting evaluations; implicit solves do not evaluate."""

    def __init__(self, lam):
        super().__init__(lam)
        self.calls = 0

    def __call__(self, t, u):
        self.calls += 1
        return super().__call__(t, u)


class TestNodeRhs:
    """f is evaluated at a level's nodes only by the sweep that reads it."""

    @pytest.fixture
    def node_rhs_levels(self, monkeypatch):
        levels = []
        cache_rhs = idc._cache_rhs

        def recording(problem, nodes, values):
            levels.append(np.array(values))
            return cache_rhs(problem, nodes, values)

        monkeypatch.setattr(idc, "_cache_rhs", recording)
        return levels

    def problem(self):
        ops = (CountingOperator(-0.4), CountingOperator(-0.9))
        return SplitIVP(operators=ops, initial_state=np.array(1.0), t_span=(0.0, 1.0))

    def test_prediction_only_evaluates_nothing(self, node_rhs_levels):
        p = self.problem()
        idc_solve(p, 3, IDCConfig(corrections=0, predictor="lie-trotter", M=3))
        assert [op.calls for op in p.operators] == [0, 0]
        assert node_rhs_levels == []

    def test_one_correction_reads_prediction_level_once(self, node_rhs_levels):
        p = self.problem()
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        steps = list(idc_march(p, 3, cfg))
        assert len(node_rhs_levels) == 3
        u = p.initial_state
        for (nodes, level), seen in zip(steps, node_rhs_levels):
            assert np.array_equal(seen, predict(p, nodes, u, cfg).values)
            u = level.final_state

    def test_oversampled_never_evaluates_nodes(self, node_rhs_levels):
        p = self.problem()
        idc_solve(p, 3, IDCConfig(corrections=2, predictor="lie-trotter", M=3,
                                  residual_mode="oversampled(3)"))
        assert node_rhs_levels == []


class TestErrorProblem:
    def test_shift_vanishes_at_start(self):
        p = scalar_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=3)
        level = predict(p, nodes, np.array(1.0), IDCConfig())
        ep = ErrorProblem(p, level)
        assert np.max(np.abs(ep.shift(nodes.t0))) == 0.0

    def test_nodal_shift(self):
        # the node values of shift, joined linearly between nodes
        p = scalar_problem(lams=(np.array([-0.5, -3.0]), np.array([-2.0, -0.1])),
                           u0=np.array([1.0, 2.0]))
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=3)
        level = predict(p, nodes, np.array([1.0, 2.0]), IDCConfig())
        ep = ErrorProblem(p, level)
        times = nodes.times
        for t in times:
            assert np.array_equal(ep.nodal_shift(t), ep.shift(t))
        for m in range(nodes.M):
            lo, hi = ep.shift(times[m]), ep.shift(times[m + 1])
            mid = times[m] + 0.5 * nodes.h
            assert np.allclose(ep.nodal_shift(mid), 0.5 * (lo + hi), rtol=0, atol=1e-15)
            assert not np.allclose(ep.nodal_shift(mid), ep.shift(mid), rtol=0, atol=1e-12)
            for theta in (0.1, 0.3, 0.75, 0.9):
                assert np.allclose(ep.nodal_shift(times[m] + theta * nodes.h),
                                   (1 - theta) * lo + theta * hi, rtol=0, atol=1e-15)

    def test_freed_without_cyclic_collector(self):
        # the sweep's caches go with the problem, not at the next gc pass
        p = scalar_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=3)
        level = predict(p, nodes, np.array(1.0), IDCConfig())
        enabled = gc.isenabled()
        gc.disable()
        try:
            ep = ErrorProblem(p, level)
            ep.ivp.operators[0](0.1, ep.shift(0.1))
            ref = weakref.ref(ep)
            del ep
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_correction_operator_vanishes_on_interpolated_solution(self):
        # G evaluated along Q = shift is identically zero
        p = scalar_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=3)
        level = predict(p, nodes, np.array(1.0), IDCConfig())
        ep = ErrorProblem(p, level)
        for t in (0.05, 0.33, 0.55):
            w = ep.shift(t)
            for op in ep.ivp.operators:
                assert np.max(np.abs(op(t, w))) <= 1e-14
