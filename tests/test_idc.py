from fractions import Fraction
import gc
import warnings
import weakref

import numpy as np
import pytest

from idcos.errors import NewtonError, StepperError, UnsupportedSchemeError, UsageError
from idcos import idc, polyint
from idcos.idc import (ErrorProblem, IDCConfig, IDCLevelResult, correct_once, idc_march,
                       idc_solve, predict, solve_macro_interval)
from idcos.ode import DiagonalLinearOperator, SplitIVP, ZeroOperator
from idcos.pde2d import DirectionalDiffusionOperator, PointwiseSourceOperator
from idcos.polyint import UniformNodeSet, lagrange_eval, partial_integral
from idcos.problems import example2
from idcos.steppers import get_stepper

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


def rational_integral(nodes, F, tau):
    """Integral of the node values' interpolant from t0 to t0 + tau*h (tau a
    Fraction), in rational arithmetic and rounded once per component."""
    anti = [polyint._poly_antiderivative(c)
            for c in polyint._cardinal_coefficients(nodes.M)]
    weights = [Fraction(nodes.h) * polyint._poly_eval(a, tau) for a in anti]
    cols = F.reshape(nodes.M + 1, -1).T
    return np.array([float(sum(w * Fraction(x) for w, x in zip(weights, col)))
                     for col in cols]).reshape(F.shape[1:])


def global_slope(problem, cfg, macro_counts, exact):
    # the largest error over the macro-node states
    errs = []
    for n in macro_counts:
        errs.append(max(float(np.max(np.abs(level.final_state - exact(nodes.t_end))))
                        for nodes, level in idc_march(problem, n, cfg)))
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

    @pytest.mark.parametrize("kwargs", [
        dict(predictor="rk4"),
        dict(predictor="strang", correctors="bogus", corrections=1),
        dict(predictor="strang", correctors=("strang", "rk4"), corrections=2),
        dict(predictor="strang", correctors="bogus"),
    ], ids=["predictor", "corrector", "one-of-two-correctors", "unused-corrector"])
    def test_unknown_scheme_rejected(self, kwargs):
        with pytest.raises(UnsupportedSchemeError, match="unknown scheme"):
            IDCConfig(**kwargs)
        assert issubclass(UnsupportedSchemeError, UsageError)


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
        final = idc_solve(p, 1, cfg)
        nodes = UniformNodeSet(t0=0.0, h=1.0 / 3.0, M=3)
        level = solve_macro_interval(p, nodes, p.initial_state, cfg)
        assert final == pytest.approx(float(level.final_state), rel=1e-15)

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

    def test_march_steps_and_eager_checks(self):
        p = scalar_problem()
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        steps = list(idc_march(p, 4, cfg))
        assert [nodes.t0 for nodes, _ in steps] == [0.0, 0.25, 0.5, 0.75]
        assert steps[-1][1].final_state == idc_solve(p, 4, cfg)
        with pytest.raises(UsageError):
            idc_march(p, 0, cfg)  # raised by the call, before any step runs

    def test_residual_modes_agree_for_linear(self):
        p = scalar_problem()
        out = {}
        for mode in ("interpolant", "oversampled(13)"):
            cfg = IDCConfig(corrections=2, predictor="lie-trotter", M=3,
                            residual_mode=mode)
            out[mode] = float(idc_solve(p, 4, cfg))
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
        assert str(err.value).startswith("macro step 0 at t=0.0: prediction failed on "
                                         "sub-interval 0: ")

    def test_overflow_mid_march_fails_the_step(self):
        # h*lam = 1 - 1e-12: every backward Euler step grows 1e12-fold, so
        # the state of macro step 4 ends inf.  That fails the run at that
        # step, naming its end time; it is not a bad initial value.
        p = scalar_problem(lams=(3 * (1 - 1e-12),), T=6.0)
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        with pytest.raises(StepperError, match=r"^macro step 4 at t=5\.0: non-finite state") \
                as err:
            with np.errstate(over="ignore", invalid="ignore"):
                idc_solve(p, 6, cfg)
        assert (err.value.macro_step, err.value.time) == (4, 5.0)

    def test_overflow_at_the_last_step_fails_it(self):
        # the same growth over five steps: the last one ends non-finite, and
        # the march raises there instead of yielding or returning that state
        p = scalar_problem(lams=(3 * (1 - 1e-12),), T=5.0)
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        finals = []
        with pytest.raises(StepperError, match=r"^macro step 4 at t=5\.0: non-finite state") \
                as err:
            with np.errstate(over="ignore", invalid="ignore"):
                for _, level in idc_march(p, 5, cfg):
                    finals.append(level.final_state)
        assert (err.value.macro_step, err.value.time) == (4, 5.0)
        assert len(finals) == 4 and np.isfinite(finals).all()
        with pytest.raises(StepperError, match=r"^macro step 4 at t=5\.0: non-finite state"):
            with np.errstate(over="ignore", invalid="ignore"):
                idc_solve(p, 5, cfg)

    def test_non_finite_initial_value_rejected_by_the_call(self):
        with pytest.raises(UsageError, match="initial value contains non-finite"):
            idc_march(scalar_problem(u0=np.inf), 2, IDCConfig())


class TestOverrides:
    """An override is a stepper, called as (problem, t, dt, u); a corrector
    override's problem is its sweep's ErrorProblem."""

    @staticmethod
    def problem(**overrides):
        ops = (DiagonalLinearOperator(-0.4), DiagonalLinearOperator(-0.9))
        return SplitIVP(operators=ops, initial_state=np.array([1.0, -2.0]),
                        t_span=(0.0, 1.0), **overrides)

    def test_generic_stepper_as_corrector_override(self):
        cfg = IDCConfig(corrections=2, predictor="lie-trotter", M=3)
        nodes = UniformNodeSet(t0=0.0, h=0.1, M=3)
        plain = self.problem()
        overridden = self.problem(corrector_overrides={"lie-trotter": get_stepper("lie-trotter")})
        a = solve_macro_interval(plain, nodes, plain.initial_state, cfg)
        b = solve_macro_interval(overridden, nodes, overridden.initial_state, cfg)
        assert b.values.tobytes() == a.values.tobytes()

    @pytest.mark.parametrize("table,fail_at,sweep,what", [
        ("predictor_overrides", 4, 0, "prediction"),
        ("corrector_overrides", 10, 2, "correction sweep 2"),
    ], ids=["predictor", "corrector"])
    def test_failure_inside_an_override(self, table, fail_at, sweep, what):
        # three calls per sweep and macro step: call 4 of the predictor and
        # call 10 of the corrector are node 1 of macro step 1
        lie_trotter = get_stepper("lie-trotter")
        times = []

        def stepper(problem, t, dt, u):
            times.append(t)
            if len(times) == fail_at + 1:
                raise NewtonError("stalled")
            return lie_trotter(problem, t, dt, u)

        p = self.problem(**{table: {"lie-trotter": stepper}})
        cfg = IDCConfig(corrections=2, predictor="lie-trotter", M=3)
        with pytest.raises(StepperError, match=f"{what} failed on sub-interval 1: stalled") \
                as err:
            idc_solve(p, 3, cfg)
        e = err.value
        assert (e.macro_step, e.node, e.sweep, e.time) == (1, 1, sweep, times[-1])
        assert isinstance(e.__cause__, NewtonError)


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



class TestBoundedMemo:
    """A sweep's stage-time memo keeps one sub-interval: the march reads no
    earlier time, so dropping the rest recomputes nothing.  The pinned counts
    are those of a memo kept for the whole sweep."""

    @staticmethod
    def count(monkeypatch, counts, owner, *attrs):
        for attr in attrs:
            def counted(*args, _original=getattr(owner, attr), _name=attr, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

    @staticmethod
    def check_each_step(monkeypatch):
        """After every correction step from t, each memo holds no earlier time;
        returns the list of checked step times."""
        checked = []
        get_stepper = idc.get_stepper

        def bounded(name):
            stepper = get_stepper(name)

            def step(problem, t, h, u):
                out = stepper(problem, t, h, u)
                if isinstance(problem, ErrorProblem):
                    for memo in (problem._ups, problem._shift, problem._nodal_shift,
                                 problem._feval):
                        assert all(s >= t - polyint.NODE_TOL * h for s in memo)
                    checked.append(t)
                return out
            return step

        monkeypatch.setattr(idc, "get_stepper", bounded)
        return checked

    def test_strang_dahlquist(self, monkeypatch):
        # the interpolated path: ups, shift and f at the interpolant between nodes
        lam = np.linspace(-20, 4, 7)[:, None] + 1j * np.linspace(-12, 12, 5)[None, :]
        op = DiagonalLinearOperator(0.5 * lam, strict=False)
        p = SplitIVP(operators=(op, op), initial_state=np.ones_like(lam), t_span=(0.0, 1.0))
        counts = {name: 0 for name in ("lagrange_eval", "partial_integral", "shift",
                                       "__call__", "solve_implicit")}
        self.count(monkeypatch, counts, idc, "lagrange_eval", "partial_integral")
        self.count(monkeypatch, counts, ErrorProblem, "shift")
        self.count(monkeypatch, counts, DiagonalLinearOperator, "__call__", "solve_implicit")
        checked = self.check_each_step(monkeypatch)
        idc_solve(p, 1, IDCConfig(corrections=2, predictor="strang", M=6))
        assert len(checked) == 2 * 6
        assert counts == {"lagrange_eval": 12, "partial_integral": 14, "shift": 96,
                          "__call__": 152, "solve_implicit": 72}

    def test_strang_pde_correction(self, monkeypatch):
        # the linear branch: node shifts joined linearly between nodes
        ivp = example2(N=12).split_ivp(0.01)
        cfg = IDCConfig(corrections=2, predictor="strang", M=5)
        level = predict(ivp, UniformNodeSet(t0=0.0, h=0.002, M=5), ivp.initial_state, cfg)
        counts = {name: 0 for name in ("lagrange_eval", "partial_integral", "shift",
                                       "__call__", "apply_homogeneous", "solve_homogeneous")}
        self.count(monkeypatch, counts, idc, "lagrange_eval", "partial_integral")
        self.count(monkeypatch, counts, ErrorProblem, "shift")
        self.count(monkeypatch, counts, DirectionalDiffusionOperator,
                   "__call__", "apply_homogeneous", "solve_homogeneous")
        checked = self.check_each_step(monkeypatch)
        correct_once(ivp, level, 1, cfg)
        assert len(checked) == 5
        # shift is never read: nodal_shift reads the node rows by index, at
        # node times and between them
        assert counts == {"lagrange_eval": 0, "partial_integral": 1, "shift": 0,
                          "__call__": 12, "apply_homogeneous": 32, "solve_homogeneous": 20}


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

    @pytest.mark.parametrize("shape", [(), (4, 4), (2, 4, 4)],
                             ids=["scalar", "field", "two-component"])
    @pytest.mark.parametrize("M", range(1, 17))
    def test_node_shifts_match_gauss_path(self, M, shape):
        # node reads are rows of the one product over all nodes, or the node
        # values themselves, and match the per-time reads of polyint;
        # reads between nodes are those per-time reads
        p = self.two_sources(shape)
        nodes = UniformNodeSet(t0=0.3, h=0.7 / M, M=M)
        phase = np.random.default_rng(M).uniform(0, 2 * np.pi, shape)
        values = np.stack([np.cos(2 * t + phase) for t in nodes.times])
        ep = ErrorProblem(p, IDCLevelResult(nodes=nodes, values=values))
        F = np.stack([p.f_total(t, u) for t, u in zip(nodes.times, values)])
        scale = np.max(np.abs(F)) * M * nodes.h
        for m, t in enumerate(nodes.times):
            per_time = values[m] - values[0] - partial_integral(nodes, F, t)
            assert np.max(np.abs(ep.shift(t) - per_time)) <= 1e-14 * scale
            assert ep.interpolant(t).tobytes() == values[m].tobytes()
        assert np.all(ep.shift(nodes.t0) == 0)
        for t in (nodes.t0 + 0.5 * nodes.h, nodes.t_end - 0.3 * nodes.h):
            interp = lagrange_eval(nodes, values, t)
            per_time = interp - values[0] - partial_integral(nodes, F, t)
            assert ep.interpolant(t).tobytes() == interp.tobytes()
            assert ep.shift(t).tobytes() == per_time.tobytes()

    @pytest.mark.parametrize("M", [1, 2, 5, 8, 12, 16])
    def test_node_shifts_exact_on_rough_levels(self, M):
        # node values with no smoothness: against the integral of the
        # interpolant in rational arithmetic
        p = self.two_sources((3, 4))
        nodes = UniformNodeSet(t0=0.3, h=0.7 / M, M=M)
        values = np.random.default_rng(M).normal(size=(M + 1, 3, 4))
        ep = ErrorProblem(p, IDCLevelResult(nodes=nodes, values=values))
        F = np.stack([p.f_total(t, u) for t, u in zip(nodes.times, values)])
        scale = np.max(np.abs(F)) * M * nodes.h
        for m, t in enumerate(nodes.times):
            ref = values[m] - values[0] - rational_integral(nodes, F, Fraction(m))
            assert np.max(np.abs(ep.shift(t) - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("mode", ["interpolant", "oversampled(13)"])
    @pytest.mark.parametrize("M", range(1, 17))
    def test_stage_shifts_exact_on_rough_levels(self, M, mode):
        # times between nodes, against the rational-arithmetic integral of
        # the quadrature data's interpolant: f at the nodes, or f of the
        # level's interpolant on the fine grid of 14 sub-intervals.  Both
        # sides subtract from the interpolant, which reaches hundreds near
        # the ends at M=16, so one unit in the last place of the shift is
        # allowed on top of the integral's error.
        p = self.two_sources((3, 4))
        nodes = UniformNodeSet(t0=0.3, h=0.7 / M, M=M)
        values = np.random.default_rng(M).normal(size=(M + 1, 3, 4))
        ep = ErrorProblem(p, IDCLevelResult(nodes=nodes, values=values), residual_mode=mode)
        quad = nodes
        if mode != "interpolant":
            quad = UniformNodeSet(t0=nodes.t0, h=M * nodes.h / 14, M=14)
        F = np.stack([p.f_total(t, lagrange_eval(nodes, values, t)) for t in quad.times])
        scale = np.max(np.abs(F)) * M * nodes.h
        for t in (nodes.t0 + 0.5 * nodes.h, nodes.t0 + (M / 2 + 0.37) * nodes.h,
                  nodes.t_end - 0.3 * nodes.h):
            tau = (Fraction(t) - Fraction(quad.t0)) / Fraction(quad.h)
            ref = lagrange_eval(nodes, values, t) - values[0] - rational_integral(quad, F, tau)
            assert np.all(np.abs(ep.shift(t) - ref) <= 1e-14 * scale + np.spacing(np.abs(ref)))

    def test_readers_agree_near_a_node(self):
        # 5e-13 off t_1 in tau: every reader takes the node
        p = self.two_sources((3, 4))
        nodes = UniformNodeSet(t0=0.0, h=0.1, M=3)
        values = np.random.default_rng(5).normal(size=(4, 3, 4))
        ep = ErrorProblem(p, IDCLevelResult(nodes=nodes, values=values))
        F = np.stack([p.f_total(t, u) for t, u in zip(nodes.times, values)])
        t = nodes.times[1] + 5e-14
        assert ep.interpolant(t).tobytes() == lagrange_eval(nodes, values, t).tobytes()
        assert ep.interpolant(t).tobytes() == values[1].tobytes()
        assert np.array_equal(ep.shift(t), ep.shift(nodes.times[1]))
        assert np.allclose(ep.shift(t), values[1] - values[0] - partial_integral(nodes, F, t),
                           rtol=0, atol=1e-15)

    def test_drifted_node_times_read_as_nodes(self, monkeypatch):
        # the stepper's node times t + dt late in the paper's FHN run drift
        # from t0 + m*h by up to 4.7e-13 in tau; they still read node shifts
        p = scalar_problem()
        nodes = UniformNodeSet(t0=9.995, h=0.005 / 3, M=3)
        level = predict(p, nodes, np.array(1.0), IDCConfig())
        ep = ErrorProblem(p, level)
        node_shifts = [ep.shift(t_m) for t_m in nodes.times]

        def no_interpolation(*args):
            raise AssertionError("a node time was interpolated")

        monkeypatch.setattr(idc, "lagrange_eval", no_interpolation)
        t = nodes.t0
        for m in range(1, nodes.M + 1):
            t = t + nodes.h
            assert abs((t - nodes.t0) / nodes.h - m) > 1e-14 * m
            assert ep.shift(t) == node_shifts[m]
            assert ep.nodal_shift(t) == node_shifts[m]
            assert ep.interpolant(t) == level.values[m]

    def test_long_run_node_times_read_as_nodes(self, monkeypatch):
        # a 10,240-sub-step ladder to t=0.025, sub-intervals from t=0.015625:
        # node 2 reached by t + h is 1.02e-12 off in tau, past NODE_TOL
        p = scalar_problem(lams=(np.array([-0.5, -3.0]), np.array([-2.0, -0.1])),
                           u0=np.array([1.0, 2.0]))
        cfg = IDCConfig(corrections=1, M=2)
        nodes = UniformNodeSet(t0=0.015625, h=0.025 / 10240, M=2)
        level = predict(p, nodes, p.initial_state, cfg)
        ep = ErrorProblem(p, level)
        lo, hi = ep.node_shifts[1], ep.node_shifts[2]
        mid = nodes.times[1] + 0.5 * nodes.h
        assert np.allclose(ep.nodal_shift(mid), 0.5 * (lo + hi), rtol=0, atol=1e-20)
        t = nodes.t0 + nodes.h + nodes.h
        assert (t - nodes.t0) / nodes.h - nodes.M > polyint.NODE_TOL

        def no_interpolation(*args):
            raise AssertionError("a node time was interpolated")

        monkeypatch.setattr(idc, "lagrange_eval", no_interpolation)
        assert np.array_equal(ep.shift(t), hi)
        assert np.array_equal(ep.nodal_shift(t), hi)
        assert np.array_equal(ep.interpolant(t), level.values[2])
        # the operators do not depend on t: the sweep equals the same sweep
        # from t=0, bit for bit
        near = UniformNodeSet(t0=0.0, h=nodes.h, M=2)
        assert np.array_equal(correct_once(p, level, 1, cfg).values,
                              correct_once(p, predict(p, near, p.initial_state, cfg), 1,
                                           cfg).values)

    @staticmethod
    def two_sources(shape):
        source = PointwiseSourceOperator(lambda t, u: np.sin(u) + t, lambda t, u: np.cos(u))
        decay = PointwiseSourceOperator(lambda t, u: -0.5 * u * u, lambda t, u: -u)
        return SplitIVP(operators=(source, decay), initial_state=np.zeros(shape),
                        t_span=(0.3, 1.0))

    def test_freed_without_cyclic_collector(self):
        # the sweep's caches go with the problem, not at the next gc pass
        p = scalar_problem()
        nodes = UniformNodeSet(t0=0.0, h=0.2, M=3)
        level = predict(p, nodes, np.array(1.0), IDCConfig())
        enabled = gc.isenabled()
        gc.disable()
        try:
            ep = ErrorProblem(p, level)
            ep.operators[0](0.1, ep.shift(0.1))
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
            for op in ep.operators:
                assert np.max(np.abs(op(t, w))) <= 1e-14
