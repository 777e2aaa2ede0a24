import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from idcos.errors import LinearSolveError, NewtonError, UsageError
from idcos.harness import write_field_snapshot
from idcos.idc import ErrorProblem, IDCConfig, correct_once, idc_solve, predict
from idcos.pde2d import (NEWTON_MAX_ITERS, NEWTON_TOL, WALL_MEMO_TIMES, CoefficientField,
                         DirectionalDiffusionOperator, Grid2D, PointwiseSourceOperator,
                         SemiDiscreteSystem, _intermediate_x_walls, adi_pde_step)
from idcos.polyint import UniformNodeSet
from idcos.problems import example1, example2, example3, fhn, schnakenberg
from idcos.stencils import build_stencil
from idcos.steppers import strang_step

QUAD_ROOT = (-1.0 + np.sqrt(1.4)) / 0.2


class TestGrid:
    def test_dirichlet_spacing(self):
        g = Grid2D((-1, 1), (0, 2), N_x=9, N_y=19, bc="dirichlet")
        assert g.dx == pytest.approx(0.2)
        assert g.dy == pytest.approx(0.1)
        assert g.xs[0] == pytest.approx(-0.8)
        assert g.xs[-1] == pytest.approx(0.8)

    def test_periodic_spacing(self):
        g = Grid2D((0, 1), (0, 1), N_x=10, N_y=10, bc="periodic")
        assert g.dx == pytest.approx(0.1)
        assert g.xs[0] == 0.0
        assert g.xs[-1] == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(UsageError):
            Grid2D((0, 1), (0, 1), 4, 4, bc="neumann")
        with pytest.raises(UsageError):
            Grid2D((1, 0), (0, 1), 4, 4)

    @pytest.mark.parametrize("span", [(0, np.inf), (-np.inf, 1), (0, np.nan)])
    def test_rejects_non_finite_span(self, span):
        for x_span, y_span in ((span, (0, 1)), ((0, 1), span)):
            with pytest.raises(UsageError, match="finite"):
                Grid2D(x_span, y_span, 4, 4, bc="periodic")


class TestCoefficientField:
    def test_positive_required(self):
        g = Grid2D((0, 1), (0, 1), 4, 4, bc="periodic")
        with pytest.raises(UsageError):
            CoefficientField.from_callables(g, a=lambda x, y: x - 10.0)

    @pytest.mark.parametrize("field", ["a", "a_x", "a_y"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, field, bad):
        g = Grid2D((0, 1), (0, 1), 4, 4, bc="periodic")
        values = {"a": np.ones(g.shape), "a_x": np.zeros(g.shape), "a_y": np.zeros(g.shape)}
        values[field][1, 2] = bad
        with pytest.raises(UsageError, match="finite"):
            CoefficientField(**values)

    def test_constant(self):
        g = Grid2D((0, 1), (0, 1), 4, 4, bc="periodic")
        c = CoefficientField.constant(g, 2.0)
        assert np.all(c.a == 2.0)
        assert np.all(c.a_x == 0.0)


def example1_system(n=21):
    return example1(N=n).system


def assembled_L(system):
    """L_x + L_y on the raveled row-major field: kron products of the
    stencil matrices scaled by the coefficient field, independent of the
    direction operators."""
    grid, coeff = system.grid, system.coefficients
    Ix = sp.identity(grid.N_x, format="csr")
    Iy = sp.identity(grid.N_y, format="csr")

    def term(axis, derivative, coef):
        S = build_stencil(grid, axis, derivative, system.order).matrix
        along = sp.kron(Iy, S) if axis == "x" else sp.kron(S, Ix)
        return sp.diags(np.ravel(coef)) @ along

    return (term("x", 2, coeff.a) + term("x", 1, coeff.a_x)
            + term("y", 2, coeff.a) + term("y", 1, coeff.a_y))


class TestAssembleJ:
    def test_unit_coefficient_rows(self):
        # with a = 1 every line of L_x is the x stencil's matrix
        sys1 = example1_system()
        grid = sys1.grid
        Ax = build_stencil(grid, "x", 2, sys1.order).matrix
        Lx = sp.kron(sp.identity(grid.N_y), Ax, format="csr")
        U = np.random.default_rng(8).normal(size=grid.shape)
        assert np.allclose(sys1.op_x.apply_homogeneous(0.0, U),
                           (Lx @ U.ravel()).reshape(grid.shape))


class TestDirectionalOperator:
    def test_solve_implicit_consistency(self):
        prob = example1(N=12)
        op = prob.system.op_x
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=prob.grid.shape)
        x = op.solve_implicit(0.3, 0.05, rhs)
        assert np.max(np.abs(x - 0.05 * op(0.3, x) - rhs)) <= 1e-10

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_variable_coefficient_solve(self, bc, axis):
        g = Grid2D((-1, 1), (-1, 1), 14, 14, bc=bc)
        coeff = CoefficientField.from_callables(
            g, a=lambda x, y: 2.0 + np.sin(np.pi * (x + y)),
            a_x=lambda x, y: np.pi * np.cos(np.pi * (x + y)),
            a_y=lambda x, y: np.pi * np.cos(np.pi * (x + y)))
        boundary = None if bc == "periodic" else \
            (lambda x, y, t: np.cos(x) * np.exp(y) + t)
        op = DirectionalDiffusionOperator(g, axis, coeff, order=4, boundary=boundary)
        assert not op.constant
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=g.shape)
        x = op.solve_implicit(0.0, 0.01, rhs)
        assert np.max(np.abs(x - 0.01 * op(0.0, x) - rhs)) <= 1e-10

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_folded_operator_matches_stencils(self, bc, axis):
        # op(t, U) against a*(S2 U) + slope*(S1 U) + wall terms, each line
        # through the stencils; the coefficient is not symmetric in x and y
        # and the grid is not square, so a transposed fold shows
        g = Grid2D((-1, 1), (-1, 1), 14, 11, bc=bc)
        coeff = CoefficientField.from_callables(
            g, a=lambda x, y: 2.0 + np.sin(np.pi * (2 * x + y)),
            a_x=lambda x, y: 2 * np.pi * np.cos(np.pi * (2 * x + y)),
            a_y=lambda x, y: np.pi * np.cos(np.pi * (2 * x + y)))

        def boundary(x, y, t):
            return np.exp(0.5 * x + y) + t

        op = DirectionalDiffusionOperator(g, axis, coeff, order=4, boundary=boundary)
        U = np.random.default_rng(9).normal(size=g.shape)
        t = 0.3
        lines, across = (U, g.ys) if axis == "x" else (U.T, g.xs)
        lo, hi = g.x_span if axis == "x" else g.y_span

        def walls(p):
            if bc == "periodic":
                return 0.0, 0.0
            if axis == "x":
                return boundary(lo, p, t), boundary(hi, p, t)
            return boundary(p, lo, t), boundary(p, hi, t)

        ref = np.zeros(g.shape)
        for coef, derivative in ((coeff.a, 2), (coeff.a_x if axis == "x" else coeff.a_y, 1)):
            st = build_stencil(g, axis, derivative, 4)
            d = np.array([st.apply_line(line, *walls(p)) for line, p in zip(lines, across)])
            ref += coef * (d if axis == "x" else d.T)
        assert np.max(np.abs(op(t, U) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def dense_walls(op, g_lo, g_hi):
        w_lo, w_hi = op.wall_weights
        out = w_lo * g_lo[:, None] + w_hi * g_hi[:, None]
        return out if op.axis == "x" else out.T

    @pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("order,n", [(2, 3), (2, 9), (4, 5), (4, 9), (6, 7), (6, 12)])
    def test_wall_strips_match_dense_walls(self, order, n, axis, variable):
        # the smallest line of each order, and a longer one; a non-square grid
        g = Grid2D((-1, 1), (0, 2), n, n + 2)
        coeff = CoefficientField.from_callables(
            g, a=lambda x, y: 2.0 + np.sin(x + 2 * y),
            a_x=lambda x, y: np.cos(x + 2 * y),
            a_y=lambda x, y: 2 * np.cos(x + 2 * y)) if variable else 1.5
        op = DirectionalDiffusionOperator(
            g, axis, coeff, order=order,
            boundary=lambda x, y, t: np.exp(0.5 * x - y) * np.cos(t) - 1.0)
        assert op.constant is not variable
        assert op.strip == order // 2
        g_lo, g_hi = op.wall_values(0.7)
        # equal in value; outside the strips the dense sum can give -0.0
        assert np.array_equal(op.wall_contribution(g_lo, g_hi),
                              self.dense_walls(op, g_lo, g_hi))
        assert np.array_equal(op.boundary_contribution(0.7),
                              self.dense_walls(op, g_lo, g_hi))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overlapping_wall_strips(self, axis):
        # no admissible line is short enough for its two strips to overlap
        # (order 6 needs 7 nodes, strips 3 wide): set weights 4 wide on 7 nodes
        g = Grid2D((-1, 1), (0, 2), 7, 7)
        op = DirectionalDiffusionOperator(g, axis, 1.0, order=6,
                                          boundary=lambda x, y, t: x - y)
        rng = np.random.default_rng(5)
        w_lo, w_hi = np.zeros((1, 7)), np.zeros((1, 7))
        w_lo[0, :4], w_hi[0, 3:] = rng.normal(size=4), rng.normal(size=4)
        op.wall_weights, op.strip = (w_lo, w_hi), 4
        g_lo, g_hi = rng.normal(size=7), rng.normal(size=7)
        out = op.wall_contribution(g_lo, g_hi)
        assert out.tobytes() == self.dense_walls(op, g_lo, g_hi).tobytes()

    def test_scalar_wall_values(self):
        # a boundary function that returns a scalar fills every line
        g = Grid2D((-1, 1), (0, 2), 7, 9)
        for axis, lines in (("x", 9), ("y", 7)):
            op = DirectionalDiffusionOperator(g, axis, 1.0, order=6,
                                              boundary=lambda x, y, t: 2.5 * t)
            g_lo, g_hi = op.wall_values(2.0)
            assert g_lo.shape == g_hi.shape == (lines,)
            assert np.all(g_lo == 5.0) and np.all(g_hi == 5.0)
            assert np.array_equal(op.boundary_contribution(2.0),
                                  self.dense_walls(op, np.full(lines, 5.0),
                                                   np.full(lines, 5.0)))

    def test_deterministic_solves(self):
        prob = example1(N=10)
        op = prob.system.op_y
        rhs = np.arange(100, dtype=float).reshape(10, 10)
        a = op.solve_implicit(0.1, 0.02, rhs)
        b = op.solve_implicit(0.1, 0.02, rhs)
        assert np.array_equal(a, b)


class TestOneFactorPerStepSize:
    """A direction operator keeps the factor of the step size in use alone."""

    @pytest.mark.parametrize("build", [example1, example2], ids=["shared", "stacked"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_new_alpha_drops_the_old_factor(self, build, axis):
        op = getattr(build(N=12).system, "op_" + axis)
        rhs = np.random.default_rng(3).normal(size=op.grid.shape)
        for alpha in (0.01, 0.0025, 0.01):
            x = op.solve_homogeneous(0.0, alpha, rhs)
            assert list(op._solvers) == [alpha]
            fresh = getattr(build(N=12).system, "op_" + axis)
            assert x.tobytes() == fresh.solve_homogeneous(0.0, alpha, rhs).tobytes()

    def test_strang_step_factors_once_per_direction(self, line_factors):
        # 0.5*(th - t) and 0.5*(t1 - th) differ in the last bit at this t and dt
        t, dt = 0.1, 0.01
        assert 0.5 * ((t + 0.5 * dt) - t) != 0.5 * ((t + dt) - (t + 0.5 * dt))
        prob = example1(N=8)
        ivp = prob.system.split_ivp(prob.exact(0.0), (0.0, 1.0))
        strang_step(ivp, t, dt, prob.exact(t))
        assert len(line_factors) == 2
        assert [len(op._solvers) for op in (prob.system.op_x, prob.system.op_y)] == [1, 1]


class TestWallMemo:
    """Wall values and wall strips are kept per exact time t, shared and
    read-only; every boundary field is a fresh array."""

    # a node time, a stage time t + dt and the next float after the node time
    TIMES = (0.1, 0.1 + 0.01, np.nextafter(0.1, np.inf))

    @staticmethod
    def time_walls(axis):
        # wall values equal to t itself, so each time's are told apart
        return DirectionalDiffusionOperator(Grid2D((-1, 1), (0, 2), 7, 9), axis, 1.0,
                                            boundary=lambda x, y, t: t + 0.0 * (x + y))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_warm_equals_fresh(self, axis):
        warm = getattr(example1(N=12).system, "op_" + axis)
        for t in self.TIMES:
            warm.boundary_contribution(t)
        for t in self.TIMES:
            fresh = getattr(example1(N=12).system, "op_" + axis)
            assert warm.boundary_contribution(t).tobytes() == \
                fresh.boundary_contribution(t).tobytes()
            for a, b in zip(warm.wall_values(t), fresh.wall_values(t)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_key_is_the_exact_time(self, axis):
        op = self.time_walls(axis)
        dense = TestDirectionalOperator.dense_walls
        fields = []
        for t in self.TIMES + (0.1,):
            g_lo, g_hi = op.wall_values(t)
            assert np.all(g_lo == t) and np.all(g_hi == t)
            fields.append(op.boundary_contribution(t))
            assert np.array_equal(fields[-1], dense(op, g_lo, g_hi))
        # a g that changes with t gives each time its own field, and the
        # repeated time is read from the table
        assert not np.array_equal(fields[0], fields[1])
        assert not np.array_equal(fields[0], fields[2])
        assert list(op._strips) == list(op._walls) == list(self.TIMES)
        assert fields[3].tobytes() == fields[0].tobytes()

    def test_kept_strips_are_read_only_and_fields_fresh(self):
        op = example1(N=12).system.op_x
        t = 0.1
        kept = op.boundary_contribution(t).copy()
        for part in op._strips[t]:
            with pytest.raises(ValueError):
                part += 1.0
        field = op.boundary_contribution(t)
        assert field.flags.writeable
        field += 1.0
        assert op.boundary_contribution(t).tobytes() == kept.tobytes()
        U = np.random.default_rng(4).normal(size=op.grid.shape)
        first = op(t, U)
        assert first.flags.writeable
        assert first.tobytes() == (op.apply_homogeneous(t, U) + kept).tobytes()
        expected = first.copy()
        second = op(t, U)
        assert not np.shares_memory(first, second)
        second += 1.0
        assert first.tobytes() == expected.tobytes()
        assert op(t, U).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_bounded(self, axis):
        op = self.time_walls(axis)
        times = [0.01 * k for k in range(WALL_MEMO_TIMES + 5)]
        for t in times:
            op.boundary_contribution(t)
            assert len(op._strips) <= WALL_MEMO_TIMES
            assert len(op._walls) <= WALL_MEMO_TIMES
        # the oldest times were dropped, and read again as before
        assert list(op._strips) == times[-WALL_MEMO_TIMES:]
        fresh = self.time_walls(axis)
        assert op.boundary_contribution(times[0]).tobytes() == \
            fresh.boundary_contribution(times[0]).tobytes()


def ladder_alphas(end_time, nts, Ms=(1, 3, 5)):
    """The ADI half steps dt/2, dt = T/(N_t M), of an example2 self-convergence
    ladder: every rung and its N_t/2 reference, at M = 1, 3, 5 (cs = 0, 1, 2)."""
    nts = set(nts) | {nt // 2 for nt in nts}
    return sorted({end_time / (nt * M) / 2 for nt in nts for M in Ms})


def gbtrs_solve(A, n, kl, ku, B):
    """LAPACK gbtrf and gbtrs on the banded core of lines stacked as an
    (L*n, n) matrix, wrap entries dropped; column k of B is line k's."""
    lines = A.shape[0] // n
    core = sp.block_diag([A[k * n:(k + 1) * n] for k in range(lines)])
    core = sp.tril(sp.triu(core, -kl), ku).todia()
    ab = np.zeros((2 * kl + ku + 1, n * lines))
    ab[kl + ku - core.offsets] = core.data
    lu, piv, info = dgbtrf(ab, kl, ku)
    assert info == 0
    x, info = dgbtrs(lu, kl, ku, B.T.ravel(), piv)
    assert info == 0
    return x.reshape(lines, n).T


class TestStackedLineFactors:
    """example2's variable-coefficient lines swap no row in gbtrf, so every
    factor of the benchmark ladder (N=40) and of the paper's table (N=200)
    solves by the two triangular band sweeps."""

    def test_ladder_factors_match_gbtrs(self):
        prob = example2(N=40)
        rng = np.random.default_rng(31)
        for op in (prob.system.op_x, prob.system.op_y):
            n = op.L.shape[1]
            eye = sp.vstack([sp.eye(n, format="csr")] * (op.L.shape[0] // n))
            for alpha in ladder_alphas(0.05, (40, 80, 160)):
                solver = op._solver(alpha)
                assert solver._bands is not None
                B = rng.normal(size=(n, solver.lines))
                ref = gbtrs_solve(eye - alpha * op.L, n, solver.kl, solver.ku, B)
                X = solver._solve_core(B.T.copy()[:, :, None])[:, :, 0].T
                assert np.max(np.abs(X - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_paper_size_factors_swap_no_row(self):
        prob = example2(N=200)
        for op in (prob.system.op_x, prob.system.op_y):
            for alpha in ladder_alphas(0.05, (40, 80, 160, 320)):
                assert op._solver(alpha)._bands is not None


class TestSemiDiscreteResidual:
    def test_order6_residual_slope(self):
        # du/dt of the manufactured solution minus f_1 + f_2 on its samples
        errs, hs = [], []
        for n in (15, 30, 60):
            prob = example1(N=n)
            u = prob.exact(0.0)
            f = prob.system.op_x(0.0, u) + prob.system.op_y(0.0, u)
            errs.append(np.max(np.abs(u - f)))  # u_t = u for this solution
            hs.append(prob.grid.dx)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(6.0, abs=0.4)


def unfactored_cn_step(system, t, dt, field):
    """Crank-Nicolson step solving the full 2D operator at once (test oracle)."""
    opx, opy = system.op_x, system.op_y
    L = assembled_L(system)
    I = sp.identity(field.size, format="csr")
    S = 0.5 * (opx.boundary_contribution(t) + opx.boundary_contribution(t + dt)
               + opy.boundary_contribution(t) + opy.boundary_contribution(t + dt))
    rhs = (I + 0.5 * dt * L) @ field.reshape(-1) + dt * S.reshape(-1)
    out = splu(sp.csc_matrix(I - 0.5 * dt * L)).solve(rhs)
    return out.reshape(system.grid.shape)


class TestADIStep:
    def test_steady_state_preserved(self):
        # harmonic steady solution with time-independent boundary data
        g = Grid2D((-1, 1), (-1, 1), 20, 20, bc="dirichlet")
        sysd = SemiDiscreteSystem(g, CoefficientField.constant(g, 1.0), order=6,
                                  boundary=lambda x, y, t: x * y + 0.0 * t)
        X, Y = g.mesh()
        u = X * Y
        out = adi_pde_step(sysd, 0.0, 0.1, u)
        assert np.max(np.abs(out - u)) <= 1e-11

    def test_factored_vs_unfactored_third_order_gap(self):
        # the splitting term J1 J2 (U_new - U) is (dt^3/4) u_xxyyt to leading
        # order, which vanishes for example1 (linear in y); this solution,
        # u = e^t cosh(x/sqrt2) cosh(y/sqrt2), curves in both directions
        r = 1.0 / np.sqrt(2.0)

        def g(x, y, t):
            return np.exp(t) * np.cosh(r * x) * np.cosh(r * y)

        grid = Grid2D((-1, 1), (-1, 1), 20, 20, bc="dirichlet")
        sysd = SemiDiscreteSystem(grid, CoefficientField.constant(grid, 1.0),
                                  order=6, boundary=g)
        X, Y = grid.mesh()
        u0 = g(X, Y, 0.0)
        gaps, dts = [], []
        for dt in (0.02, 0.01, 0.005, 0.0025):
            a = adi_pde_step(sysd, 0.0, dt, u0)
            b = unfactored_cn_step(sysd, 0.0, dt, u0)
            gaps.append(np.max(np.abs(a - b)))
            dts.append(dt)
        slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.3)

    def test_rejects_variable_coefficient_dirichlet(self):
        # the wall correction needs L_y on the walls, where no coefficient
        # is stored
        g = Grid2D((-1, 1), (-1, 1), 12, 12, bc="dirichlet")
        coeff = CoefficientField.from_callables(
            g, a=lambda x, y: 2.0 + x * y, a_x=lambda x, y: y,
            a_y=lambda x, y: x)
        sysd = SemiDiscreteSystem(g, coeff, order=4,
                                  boundary=lambda x, y, t: x + y + 0.0 * t)
        with pytest.raises(UsageError):
            adi_pde_step(sysd, 0.0, 0.1, np.zeros(g.shape))

    def test_rejects_source_problems(self):
        from idcos.problems import example3
        prob = example3(N=12)
        with pytest.raises(UsageError):
            adi_pde_step(prob.system, 0.0, 0.1, prob.initial)


def count_applies(monkeypatch, system):
    """Record each direction operator's apply_homogeneous calls, by axis."""
    calls = []
    for op in (system.op_x, system.op_y):
        def counted(t, U, op=op, apply=op.apply_homogeneous):
            calls.append(op.axis)
            return apply(t, U)
        monkeypatch.setattr(op, "apply_homogeneous", counted)
    return calls


class TestExplicitHalfStepFromSolve:
    """(I - J1) mid = rhs1 gives (I + J1) mid = 2 mid - rhs1: an ADI step
    makes no explicit x-operator call on its intermediate mid."""

    def test_adi_pde_step(self, monkeypatch):
        prob = example1(N=20)
        system, t, dt = prob.system, 0.1, 0.01
        u = prob.exact(t)
        opx, opy = system.op_x, system.op_y
        # the two-evaluation form
        half = 0.5 * dt
        S1 = half * opx.wall_contribution(*_intermediate_x_walls(system, t, dt))
        rhs1 = (u + half * opy.apply_homogeneous(t, u) + S1
                + half * opy.boundary_contribution(t))
        mid = opx.solve_homogeneous(t, half, rhs1)
        rhs2 = (mid + half * opx.apply_homogeneous(t, mid) + S1
                + half * opy.boundary_contribution(t + dt))
        ref = opy.solve_homogeneous(t, half, rhs2)
        calls = count_applies(monkeypatch, system)
        out = adi_pde_step(system, t, dt, u)
        assert calls == ["y"]
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_factored_correction(self, monkeypatch):
        prob = example2(N=16)
        ep = adi_error_problem(prob)
        system, nodes = prob.system, ep.level.nodes
        t, h = nodes.times[1], nodes.h
        w = 1e-3 * np.random.default_rng(6).normal(size=prob.grid.shape)
        opx, opy = system.op_x, system.op_y
        # the two-evaluation form
        half = 0.5 * h
        I_sum = ep.shift(t) + ep.shift(t + h)
        R = -half * (opx.apply_homogeneous(t, I_sum) + opy.apply_homogeneous(t, I_sum))
        mid = opx.solve_homogeneous(t, half, w + half * opy.apply_homogeneous(t, w) + 0.5 * R)
        ref = opy.solve_homogeneous(t, half,
                                    mid + half * opx.apply_homogeneous(t, mid) + 0.5 * R)
        calls = count_applies(monkeypatch, system)
        out = system._factored_adi_correction(ep, t, h, w)
        # R takes one call per direction; the explicit half-steps take one
        assert sorted(calls) == ["x", "y", "y"]
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def adi_error_problem(prob, T=0.1, M=3):
    """The error equation of the first correction sweep after an ADI
    prediction over one macro step."""
    ivp = prob.split_ivp(T)
    nodes = UniformNodeSet(t0=0.0, h=T / M, M=M)
    level = predict(ivp, nodes, prob.initial, IDCConfig(predictor="adi", M=M))
    return ErrorProblem(ivp, level)


class TestErrorProblemBC:
    def test_dirichlet_contributions_zeroed(self):
        # G(t, Q) vanishes at Q = nodal_shift(t): no wall term leaks into
        # the error equation, at node times or between them
        ep = adi_error_problem(example1(N=10))
        nodes = ep.level.nodes
        for t in (*nodes.times, nodes.t0 + 0.5 * nodes.h):
            for op in ep.operators:
                assert np.max(np.abs(op(t, ep.nodal_shift(t)))) == 0.0

    def test_homogeneous_variant_matches_linear_action(self):
        prob = example1(N=10)
        ep = adi_error_problem(prob)
        rng = np.random.default_rng(2)
        w = rng.normal(size=prob.grid.shape)
        t = ep.level.nodes.times[1]
        G_x = ep.operators[0]
        assert np.allclose(G_x(t, w),
                           prob.system.op_x.apply_homogeneous(t, w - ep.shift(t)))

    def test_periodic_unchanged(self):
        prob = example2(N=10)
        ep = adi_error_problem(prob)
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=prob.grid.shape)
        t, alpha = ep.level.nodes.times[2], 0.02
        for op in ep.operators:
            x = op.solve_implicit(t, alpha, rhs)
            assert np.max(np.abs(x - alpha * op(t, x) - rhs)) <= 1e-10

    def test_solve_inverts_call_between_nodes(self):
        prob = example1(N=10)
        ep = adi_error_problem(prob)
        rhs = np.random.default_rng(4).normal(size=prob.grid.shape)
        nodes, alpha = ep.level.nodes, 0.02
        for t in (nodes.t0 + 0.5 * nodes.h, nodes.times[1] + 0.3 * nodes.h):
            for op in ep.operators:
                x = op.solve_implicit(t, alpha, rhs)
                assert np.max(np.abs(x - alpha * op(t, x) - rhs)) <= 1e-10


def broadcast_jacobian(J, shape):
    """The 2x2 entries of J, each a field or scalar, as one (2, 2) + shape array."""
    return np.array([[np.broadcast_to(entry, shape) for entry in row] for row in J])


def lapack_step(J, alpha, r):
    """Per-node np.linalg.solve of (I - alpha*J) d = r, J as 2x2 entries."""
    J = broadcast_jacobian(J, r.shape[1:])
    A = np.eye(2) - alpha * np.moveaxis(J, (0, 1), (-2, -1))
    return np.moveaxis(np.linalg.solve(A, np.moveaxis(r, 0, -1)[..., None])[..., 0], -1, 0)


def newton_reference(op, t, alpha, rhs):
    """The pointwise Newton loop with each node's block solved by LAPACK."""
    x = rhs.copy()
    target = None
    for _ in range(NEWTON_MAX_ITERS):
        r = x - alpha * op(t, x) - rhs
        norm = np.max(np.abs(r))
        if target is None:
            target = NEWTON_TOL + NEWTON_TOL * norm
        if norm <= target:
            return x
        x = x - lapack_step(op.source_jacobian(t, x), alpha, r)
    raise AssertionError("reference Newton did not converge")


def linear_source(J):
    """Source s(u) = J u with a fixed (2, 2, N_y, N_x) per-node Jacobian."""
    return PointwiseSourceOperator(lambda t, U: np.einsum("ij...,j...->i...", J, U),
                                   lambda t, U: J, components=2)


class TestPointwiseSolve:
    def test_zero_source(self):
        u = np.full((4, 4), 1.5)
        op = PointwiseSourceOperator(lambda t, x: np.zeros_like(x),
                                     lambda t, x: np.zeros_like(x))
        out = op.solve_implicit(0.1, 0.1, u, guess=u)
        assert np.array_equal(out, u)

    def test_quadratic_backward_euler(self):
        u = np.ones((3, 5))
        op = PointwiseSourceOperator(lambda t, x: -x * x, lambda t, x: -2.0 * x)
        out = op.solve_implicit(0.1, 0.1, u, guess=u)
        assert np.allclose(out, QUAD_ROOT, atol=1e-10)

    def test_fhn_origin_fixed_point(self):
        prob = fhn(N=6)
        op = prob.system.op_source
        u = np.zeros((2,) + prob.grid.shape)
        out = op.solve_implicit(0.0, 0.01, u, guess=u)
        assert np.max(np.abs(out)) <= 1e-12

    def test_trapezoid_mode(self):
        lam = -2.0
        u = np.full((2, 2), 1.0)
        op = PointwiseSourceOperator(lambda t, x: lam * x,
                                     lambda t, x: np.full_like(x, lam))
        out = op.solve_implicit(0.1, 0.05, u + 0.05 * lam * u, guess=u)
        ref = (1 + 0.05 * lam) / (1 - 0.05 * lam)
        assert np.allclose(out, ref, atol=1e-13)

    def test_failure_reports_node(self):
        def source(t, x):
            return x * x

        def jac(t, x):
            return 2.0 * x

        # x - 10 x^2 = 5 has no real root
        with pytest.raises(NewtonError, match=r"node \(0, 0\)"):
            op = PointwiseSourceOperator(source, jac)
            op.solve_implicit(0.0, 10.0, np.full((3, 3), 5.0))

    def test_affine_one_iteration(self):
        calls = []

        def source(t, x):
            calls.append(1)
            return -x

        op = PointwiseSourceOperator(source, lambda t, x: np.full_like(x, -1.0))
        out = op.solve_implicit(0.0, 0.5, np.full((2, 2), 1.5), guess=np.zeros((2, 2)))
        assert np.allclose(out, 1.0, rtol=0, atol=1e-15)
        assert len(calls) == 2  # initial check plus one verification

    def test_zero_residual_returns_guess(self):
        jac_calls = []

        def jac(t, x):
            jac_calls.append(1)
            return np.zeros_like(x)

        op = PointwiseSourceOperator(lambda t, x: -x * x, jac)
        guess = np.full((2, 3), 0.7)
        out = op.solve_implicit(0.1, 0.1, guess - 0.1 * op(0.1, guess), guess=guess)
        assert np.array_equal(out, guess)
        assert not jac_calls  # zero iterations

    def test_non_convergence(self):
        # pivot 1 with residual cos(x) + 2 >= 1: every step stays finite
        op = PointwiseSourceOperator(lambda t, x: x - np.cos(x) - 2.0,
                                     lambda t, x: np.zeros_like(x))
        with pytest.raises(NewtonError) as err:
            op.solve_implicit(0.0, 1.0, np.zeros((2, 2)))
        assert err.value.iterations == NEWTON_MAX_ITERS == 50
        assert err.value.residual_norm > 0

    def test_quadratic_convergence_observable(self):
        # x + 0.3 sin(x) = 1.2, from x = 0
        norms = []

        def source(t, x):
            s = -0.3 * np.sin(x)
            norms.append(float(np.max(np.abs(x - s - 1.2))))
            return s

        op = PointwiseSourceOperator(source, lambda t, x: -0.3 * np.cos(x))
        op.solve_implicit(0.0, 1.0, np.full((2, 2), 1.2), guess=np.zeros((2, 2)))
        small = [n for n in norms if 0 < n < 1e-3]
        assert len(small) >= 2
        for a, b in zip(small, small[1:]):
            # quadratic contraction until the roundoff floor
            assert b <= max(100.0 * a * a, 1e-14)

    def test_infinite_residual_raises(self):
        # one node's source is infinite; the other node's residual is finite
        def source(t, x):
            return np.where([[True, False]], np.inf, -x * x)

        op = PointwiseSourceOperator(source, lambda t, x: -2.0 * x)
        with pytest.raises(NewtonError) as err:
            op.solve_implicit(0.3, 0.1, np.ones((1, 2)))
        assert err.value.time == 0.3

    def test_closed_form_matches_lapack(self):
        # a linear source converges in one step to (I - alpha*J)^-1 rhs
        rng = np.random.default_rng(7)
        J = rng.normal(size=(2, 2, 6, 5))
        rhs = rng.normal(size=(2, 6, 5))
        alpha = 0.1
        A = np.eye(2) - alpha * np.moveaxis(J, (0, 1), (-2, -1))
        assert np.max(np.linalg.cond(A)) < 10.0
        out = linear_source(J).solve_implicit(0.0, alpha, rhs)
        ref = lapack_step(J, alpha, rhs)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("build, alpha", [(fhn, 0.01), (schnakenberg, 0.001)])
    def test_reaction_matches_lapack_newton(self, build, alpha):
        prob = build(N=16)
        rng = np.random.default_rng(11)
        rhs = prob.initial + 0.1 * rng.normal(size=prob.initial.shape)
        op = prob.system.op_source
        out = op.solve_implicit(0.2, alpha, rhs)
        ref = newton_reference(op, 0.2, alpha, rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(out - rhs)) > 1e-4

    @pytest.mark.parametrize("build, alpha", [(fhn, 0.01), (schnakenberg, 0.001)])
    def test_entry_jacobian_matches_broadcast_array(self, build, alpha):
        # the entry form builds no (2, 2, N, N) array and changes no bit
        prob = build(N=16)
        rng = np.random.default_rng(12)
        rhs = prob.initial + 0.1 * rng.normal(size=prob.initial.shape)
        op = prob.system.op_source
        assert not isinstance(op.source_jacobian(0.2, rhs), np.ndarray)
        block = PointwiseSourceOperator(
            op.source, lambda t, U: broadcast_jacobian(op.source_jacobian(t, U), U.shape[1:]),
            components=2)
        assert np.array_equal(op.solve_implicit(0.2, alpha, rhs),
                              block.solve_implicit(0.2, alpha, rhs))

    def test_constant_jacobian_names_node(self):
        # every entry a scalar: one singular block for every node, the first named
        op = PointwiseSourceOperator(lambda t, U: 2.0 * U, lambda t, U: ((2.0, 0.0), (0.0, 2.0)),
                                     components=2)
        with pytest.raises(LinearSolveError, match=r"t=0\.3 node \(0, 0\)$"):
            op.solve_implicit(0.3, 0.5, np.ones((2, 3, 4)))

    def test_singular_block_names_node(self):
        # I - alpha*J is singular at nodes (1, 2) and (2, 0): the first is named
        J = np.zeros((2, 2, 3, 4))
        J[0, 0, 1, 2] = J[1, 1, 2, 0] = 2.0
        with pytest.raises(LinearSolveError, match=r"t=0\.3 node \(1, 2\)$"):
            linear_source(J).solve_implicit(0.3, 0.5, np.ones((2, 3, 4)))

    def test_zero_scalar_pivot_names_node(self):
        J = np.zeros((3, 4))
        J[2, 1] = 2.0
        op = PointwiseSourceOperator(lambda t, x: J * x, lambda t, x: J)
        with pytest.raises(LinearSolveError, match=r"t=0\.3 node \(2, 1\)$"):
            op.solve_implicit(0.3, 0.5, np.ones((3, 4)))

    def test_component_count(self):
        with pytest.raises(UsageError, match="1 or 2 components"):
            PointwiseSourceOperator(lambda t, x: x, lambda t, x: x, components=3)
        grid = Grid2D((0, 1), (0, 1), 8, 8, bc="periodic")
        with pytest.raises(UsageError, match="1 or 2 components"):
            SemiDiscreteSystem(grid, (1.0, 1.0, 1.0), order=2, source=lambda t, x: x,
                               source_jacobian=lambda t, x: x)


def whole_field_newton(op, t, alpha, rhs, guess=None):
    """The pointwise Newton loop on whole fields, every residual, pivot,
    Cramer numerator and step a new array; returns the solution and the
    number of Jacobian calls."""
    x = np.array(rhs if guess is None else guess, copy=True, dtype=float)
    target, calls = None, 0
    for _ in range(NEWTON_MAX_ITERS):
        r = x - alpha * np.asarray(op.source(t, x)) - rhs
        norm = float(np.max(np.abs(r)))
        if target is None:
            target = NEWTON_TOL + NEWTON_TOL * norm
        if norm <= target:
            return x, calls
        J = op.source_jacobian(t, x)
        calls += 1
        if op.components == 1:
            det, num = 1.0 - alpha * J, r
        else:
            (j11, j12), (j21, j22) = J
            a11, a12 = 1.0 - alpha * j11, -alpha * j12
            a21, a22 = -alpha * j21, 1.0 - alpha * j22
            det = a11 * a22 - a12 * a21
            num = np.stack([a22 * r[0] - a12 * r[1], a11 * r[1] - a21 * r[0]])
        x = x - num / det
    raise AssertionError("whole-field Newton did not converge")


class Counted:
    """A source or Jacobian that counts its calls and keeps every array it
    returns beside a copy taken as it returned."""

    def __init__(self, fn):
        self.fn, self.calls, self.kept = fn, 0, []

    def __call__(self, t, x):
        self.calls += 1
        out = self.fn(t, x)
        pending = [out]
        while pending:
            item = pending.pop()
            if isinstance(item, (tuple, list)):
                pending.extend(item)
            elif isinstance(item, np.ndarray):
                self.kept.append((item, item.copy()))
        return out

    def unchanged(self):
        return all(np.array_equal(a, copy) for a, copy in self.kept)


def scalar_source_operator():
    # x - alpha*(sin x - x^2) = rhs: a few Newton steps from a nearby guess
    return PointwiseSourceOperator(lambda t, x: np.sin(x) - x * x,
                                   lambda t, x: np.cos(x) - 2.0 * x)


class TestNewtonIterates:
    """The in-place Newton gives the whole-field loop's iterates bit for bit."""

    def check(self, op, t, alpha, rhs, guess):
        jac = Counted(op.source_jacobian)
        out = PointwiseSourceOperator(op.source, jac, op.components).solve_implicit(
            t, alpha, rhs, guess=guess)
        ref, calls = whole_field_newton(op, t, alpha, rhs, guess=guess)
        assert np.shape(out) == np.shape(ref)
        assert np.array_equal(out, ref)
        assert jac.calls == calls > 0

    @pytest.mark.parametrize("build, alpha", [(fhn, 0.01), (schnakenberg, 0.001)])
    def test_reaction(self, build, alpha):
        prob = build(N=16)
        rng = np.random.default_rng(13)
        rhs = prob.initial + 0.1 * rng.normal(size=prob.initial.shape)
        self.check(prob.system.op_source, 0.2, alpha, rhs, prob.initial)
        self.check(prob.system.op_source, 0.2, alpha, rhs, None)

    def test_one_component_field(self):
        rng = np.random.default_rng(14)
        rhs = rng.uniform(0.2, 0.8, size=(5, 6))
        self.check(scalar_source_operator(), 0.1, 0.3, rhs, rhs + 0.05)

    def test_scalar_state(self):
        self.check(scalar_source_operator(), 0.1, 0.3, np.array(0.7), np.array(0.5))

    def test_python_float_source_on_a_field(self):
        # a uniform source: its one value broadcasts over every node
        op = PointwiseSourceOperator(lambda t, x: 0.25, lambda t, x: 0.0)
        rhs = np.random.default_rng(17).uniform(0.2, 0.8, size=(5, 6))
        self.check(op, 0.1, 0.3, rhs, rhs + 0.05)


class TestInputsUnchanged:
    """No solve or application writes into its arguments, a level, the
    error equation's memo or an array a source or Jacobian returned."""

    def test_pointwise_one_component(self):
        # one array shared by every Jacobian call, which leaves out the small
        # quadratic term: Newton still converges, in several steps
        J = np.full((3, 4), -0.5)
        source = Counted(lambda t, x: J * x - 0.1 * x * x)
        jac = Counted(lambda t, x: J)
        op = PointwiseSourceOperator(source, jac)
        rhs = np.linspace(0.5, 1.5, 12).reshape(3, 4)
        guess = rhs + 0.1
        rhs0, guess0, J0 = rhs.copy(), guess.copy(), J.copy()
        op.solve_implicit(0.1, 0.2, rhs, guess=guess)
        op.solve_implicit(0.1, 0.2, rhs, guess=rhs)   # the steppers pass one array
        assert np.array_equal(rhs, rhs0) and np.array_equal(guess, guess0)
        assert np.array_equal(J, J0) and jac.calls > 2
        assert source.unchanged() and jac.unchanged()

    def test_pointwise_two_components(self):
        prob = fhn(N=8)
        base = prob.system.op_source
        source, jac = Counted(base.source), Counted(base.source_jacobian)
        op = PointwiseSourceOperator(source, jac, components=2)
        rng = np.random.default_rng(15)
        rhs = prob.initial + 0.1 * rng.normal(size=prob.initial.shape)
        guess = prob.initial
        rhs0, guess0 = rhs.copy(), guess.copy()
        out = op.solve_implicit(0.2, 0.01, rhs, guess=guess)
        assert np.array_equal(rhs, rhs0) and np.array_equal(guess, guess0)
        assert jac.calls > 0 and source.unchanged() and jac.unchanged()
        assert not np.shares_memory(out, rhs) and not np.shares_memory(out, guess)

    def test_component_wise(self):
        prob = fhn(N=8)
        op = prob.system.op_x
        U = np.random.default_rng(16).normal(size=prob.initial.shape)
        U0 = U.copy()
        for out in (op.apply_homogeneous(0.0, U), op.solve_homogeneous(0.0, 0.1, U)):
            assert np.array_equal(U, U0) and not np.shares_memory(out, U)
        # a copy, not a view: the undiffused component of the solve is U's own
        assert np.array_equal(op.solve_homogeneous(0.0, 0.1, U)[1], U[1])

    @pytest.mark.parametrize("nu", [0, 2], ids=["homogeneous", "pointwise"])
    def test_correction_operator(self, nu):
        prob = fhn(N=8)
        ivp = prob.split_ivp(0.05)
        nodes = UniformNodeSet(t0=0.0, h=0.01, M=3)
        level = predict(ivp, nodes, prob.initial, IDCConfig(predictor="lie-trotter"))
        values0 = level.values.copy()
        ep = ErrorProblem(ivp, level)
        rng = np.random.default_rng(17)
        rhs = 1e-3 * rng.normal(size=prob.initial.shape)
        guess = rhs + 1e-4
        rhs0, guess0 = rhs.copy(), guess.copy()
        op = ep.operators[nu]
        for t in (nodes.t0 + 0.5 * nodes.h, nodes.times[1]):
            op(t, rhs)
            op.solve_implicit(t, 0.005, rhs, guess=guess)
            op.solve_implicit(t, 0.005, rhs)
        assert np.array_equal(rhs, rhs0) and np.array_equal(guess, guess0)
        assert np.array_equal(level.values, values0)
        # every memo entry equals a fresh error equation's read at its time
        fresh = ErrorProblem(ivp, level)
        reads = [(ep._ups, fresh.interpolant), (ep._shift, fresh.shift),
                 (ep._nodal_shift, fresh.nodal_shift)]
        assert any(memo for memo, _ in reads) and bool(ep._feval) == (nu == 2)
        for memo, read in reads:
            for t, value in memo.items():
                assert np.array_equal(value, read(t))
        for t, at_t in ep._feval.items():
            for k, value in at_t.items():
                assert np.array_equal(value, fresh.f_at_interpolant(k, t))

    def test_correct_once(self):
        prob = fhn(N=8)
        ivp = prob.split_ivp(0.05)
        nodes = UniformNodeSet(t0=0.0, h=0.01, M=3)
        cfg = IDCConfig(corrections=1, predictor="lie-trotter", M=3)
        level = predict(ivp, nodes, prob.initial, cfg)
        values0, initial0 = level.values.copy(), prob.initial.copy()
        out = correct_once(ivp, level, 1, cfg)
        assert np.array_equal(level.values, values0)
        assert np.array_equal(ivp.initial_state, initial0)
        assert not np.shares_memory(out.values, level.values)


class TestMulticomponent:
    def test_no_diffusion_component_identity(self):
        prob = fhn(N=8)
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(2,) + prob.grid.shape)
        out = prob.system.op_x.solve_implicit(0.0, 0.1, rhs)
        assert np.array_equal(out[1], rhs[1])  # inhibitor does not diffuse
        assert not np.array_equal(out[0], rhs[0])

    @pytest.mark.parametrize("coefficients", [
        (1.0,), (1.0, -0.5), (float("nan"), 0.0), (1.0, float("inf"))],
        ids=["too-few", "negative", "nan", "infinite"])
    def test_rejects_bad_coefficients(self, coefficients):
        grid = Grid2D((0, 1), (0, 1), 8, 8, bc="periodic")
        with pytest.raises(UsageError, match="two or more diffusion coefficients"):
            SemiDiscreteSystem(grid, coefficients, order=2)

    @pytest.mark.parametrize("coefficients", [(1.0, None), [0.5, 0.0, 2.0]])
    def test_component_count_from_coefficients(self, coefficients):
        grid = Grid2D((0, 1), (0, 1), 8, 8, bc="periodic")
        system = SemiDiscreteSystem(grid, coefficients, order=2)
        n = len(coefficients)
        assert system.components == n and system.state_shape == (n, 8, 8)
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(n, 8, 8))
        out = system.op_x.solve_implicit(0.0, 0.1, rhs)
        for c, D in enumerate(coefficients):
            assert np.array_equal(out[c], rhs[c]) == (not D)

    def test_dirichlet_system_rejected(self):
        # a Dirichlet grid has one wall function, which fits a scalar problem alone
        grid = Grid2D((0, 1), (0, 1), 8, 8, bc="dirichlet")
        with pytest.raises(UsageError, match="periodic grid"):
            SemiDiscreteSystem(grid, (1.0, 0.5), order=2, boundary=lambda x, y, t: 0.0 * x)

    @pytest.mark.parametrize("coefficient", [np.array([1.0, 0.0]), "abc", 1 + 2j])
    def test_rejects_bad_scalar_coefficient(self, coefficient):
        grid = Grid2D((0, 1), (0, 1), 8, 8, bc="periodic")
        with pytest.raises(UsageError, match="a real or a CoefficientField.*tuple or list"):
            SemiDiscreteSystem(grid, coefficient, order=2)

    @pytest.mark.parametrize("coefficient", [np.float64(1.5), np.float32(1.5), 3])
    def test_real_scalar_coefficient(self, coefficient):
        grid = Grid2D((0, 1), (0, 1), 8, 8, bc="periodic")
        system = SemiDiscreteSystem(grid, coefficient, order=2)
        assert np.array_equal(system.coefficients.a, np.full((8, 8), float(coefficient)))

    def test_schnakenberg_steady_reaction(self):
        prob = schnakenberg(N=6)
        Ca = np.full(prob.grid.shape, 0.9)
        Ci = np.full(prob.grid.shape, 0.7695 / 0.81)
        rates = prob.system.op_source(0.0, np.stack([Ca, Ci]))
        assert np.max(np.abs(rates)) <= 1e-10


class TestIdcOnPde:
    def test_adi_macro_convergence(self):
        # time order against a fine-dt run on the same grid: the errors
        # against the exact solution sit on the spatial floor
        prob = example1(N=17)
        ivp = prob.split_ivp(0.02)
        cfg = IDCConfig(corrections=1, predictor="adi", M=4)
        ref = idc_solve(ivp, 256, cfg)
        errs = []
        for n in (4, 8, 16):
            out = idc_solve(ivp, n, cfg)
            errs.append(np.max(np.abs(out - ref)))
        slope = np.log(errs[0] / errs[-1]) / np.log(4.0)
        assert slope == pytest.approx(4.0, abs=0.5)

    def test_strang_correction_order(self):
        # Dirichlet with a source, so the middle stage runs too; time order
        # against a fine-dt run on the same grid
        prob = example3(N=10)
        ivp = prob.split_ivp(0.05)
        cfg = IDCConfig(corrections=1, predictor="strang", M=3)
        ref = idc_solve(ivp, 64, cfg)
        errs = [np.max(np.abs(idc_solve(ivp, n, cfg) - ref))
                for n in (2, 4, 8)]
        orders = np.log2(np.divide(errs[:-1], errs[1:]))
        assert orders.min() >= 3.7

    @pytest.mark.parametrize("build,predictor,M,macro_steps", [
        (example1, "adi", 5, 1),
        (example1, "strang", 5, 1),   # stage times t + dt/2
        (example3, "lie-trotter", 2, 2),   # walls and the Newton source
    ], ids=["example1-adi", "example1-strang", "example3-lie-trotter"])
    def test_warm_wall_memo_changes_no_result(self, monkeypatch, build, predictor, M,
                                              macro_steps):
        builds = []
        form_strips = DirectionalDiffusionOperator._wall_strips

        def counted(op, g_lo, g_hi):
            builds.append(op.axis)
            return form_strips(op, g_lo, g_hi)

        monkeypatch.setattr(DirectionalDiffusionOperator, "_wall_strips", counted)
        cfg = IDCConfig(corrections=2, predictor=predictor, M=M)
        ivp = build(N=12).split_ivp(0.02)
        first = idc_solve(ivp, macro_steps, cfg)
        cold = len(builds)
        # the second run starts from the first run's memo and forms fewer strips
        second = idc_solve(ivp, macro_steps, cfg)
        assert len(builds) - cold < cold
        fresh = idc_solve(build(N=12).split_ivp(0.02), macro_steps, cfg)
        assert second.tobytes() == fresh.tobytes() == first.tobytes()


class TestFieldSnapshot:
    @pytest.mark.parametrize("shape", [(2, 5, 7), (5, 7)])
    def test_matches_per_cell_format(self, tmp_path, shape):
        grid = Grid2D((-0.3, 1.1), (0.7, 2.9), N_x=7, N_y=5)
        field = np.random.default_rng(5).normal(size=shape) * 10.0 ** np.arange(7)
        field.flat[3] = 1e-320
        write_field_snapshot(tmp_path / "out.csv", grid, field)
        cells = field if field.ndim == 3 else field[None]
        lines = ["x,y," + ",".join(("u", "v")[:len(cells)])]
        for j, y in enumerate(grid.ys):
            for i, x in enumerate(grid.xs):
                vals = ",".join(repr(float(c[j, i])) for c in cells)
                lines.append(f"{float(x)!r},{float(y)!r},{vals}")
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_header_names_every_component(self, tmp_path):
        grid = Grid2D((0, 1), (0, 1), 8, 8)
        write_field_snapshot(tmp_path / "two.csv", grid, np.zeros((2, 8, 8)))
        assert (tmp_path / "two.csv").read_text(encoding="utf-8").split("\n", 1)[0] == "x,y,u,v"
        with pytest.raises(UsageError, match="one or two components"):
            write_field_snapshot(tmp_path / "three.csv", grid, np.zeros((3, 8, 8)))
        assert not (tmp_path / "three.csv").exists()
