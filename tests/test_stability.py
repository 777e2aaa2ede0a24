import tracemalloc
import warnings

import numpy as np
import pytest

from idcos.errors import PoleError, StepperError, UnsupportedSchemeError, UsageError
from idcos.idc import IDCConfig, idc_solve
from idcos.ode import DiagonalLinearOperator, SplitIVP
from idcos.stability import (_BLOCK, StabilityScan, _dahlquist_step, _stitch_segments,
                             amplification, amplification_field, marching_squares,
                             scan_region, stability_boundary_real_axis, write_contour_csv,
                             write_field_csv)


class TestRealAxisBoundary:
    @pytest.mark.parametrize("corrections,crossing", [(1, -195.45), (2, -156.21)])
    def test_strang_crossing(self, corrections, crossing):
        tol = 1e-6
        x = stability_boundary_real_axis("strang", corrections, tol=tol)
        assert x == pytest.approx(crossing, abs=0.01)
        step = 2 * tol * abs(x)
        assert abs(amplification(x + step, "strang", corrections)) <= 1.0
        assert abs(amplification(x - step, "strang", corrections)) > 1.0

    @pytest.mark.parametrize("scheme", ["lie-trotter", "adi"])
    def test_a_stable_base_has_no_crossing(self, scheme):
        assert stability_boundary_real_axis(scheme, 0) is None

    def test_unknown_scheme(self):
        with pytest.raises(UnsupportedSchemeError, match="unknown scheme 'rk4'"):
            amplification(-1.0, "rk4", 0)



def scan_grid(n_re, n_im):
    return np.linspace(-20, 4, n_re)[:, None] + 1j * np.linspace(-12, 12, n_im)[None, :]


def traced_peak(run):
    """The traced heap peak of ``run()``, and its result."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def field_peak(lam):
    """The traced heap peak of a Strang cs=2 field, and the field."""
    return traced_peak(lambda: amplification_field(lam, "strang", 2))


def test_field_peak_memory():
    # a Strang cs=2 sweep keeps one sub-interval of stage values, not M of
    # them: the heap peak stays below 60 fields of the scanned grid
    lam = scan_grid(101, 101)
    peak, _ = field_peak(lam)
    assert peak < 60 * lam.nbytes


def test_field_peak_memory_is_per_block():
    # the scan's grid is 11 blocks; a Strang cs=2 block peaks at 53 stage
    # values of one block (measured at 101x101, 301x301 and 601x601) beside
    # the output field
    peak, amp = field_peak(scan_grid(301, 301))
    assert peak < 60 * np.zeros(_BLOCK, dtype=complex).nbytes + amp.nbytes


def test_scan_peak_memory_does_not_grow_with_its_grid():
    # the scan's lambda, contour cells and rows of text are formed per block,
    # cell or row: beside its output field a 401x401 Strang cs=2 scan peaks
    # at one block's stage values, as its field does
    spec = StabilityScan(scheme="strang", corrections=2, resolution=(401, 401))
    peak, scan = traced_peak(lambda: scan_region(spec))
    assert peak - scan.amp.nbytes < 60 * np.zeros(_BLOCK, dtype=complex).nbytes


class TestFieldBlocks:
    # 161 x 128 cells are three blocks, the last one ragged
    GRID = scan_grid(161, 128)
    POLE = (100, 5)  # flat index 12805: in the second block

    def one_pass(self, lams, cfg):
        with np.errstate(all="ignore"):
            return np.abs(_dahlquist_step(lams, cfg, strict=False))

    @pytest.mark.parametrize("corrections", [0, 1, 2])
    def test_blocks_equal_one_pass_bitwise(self, corrections):
        assert 2 * _BLOCK < self.GRID.size < 3 * _BLOCK
        cfg = IDCConfig(corrections=corrections, predictor="strang",
                        residual_mode="oversampled(13)")
        # Strang's first trapezoid factor 1 - (h/4)(lambda/2) vanishes at 8M
        lam = self.GRID.copy()
        lam[self.POLE] = 8.0 * cfg.resolved_M()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = amplification_field(lam, "strang", corrections,
                                      residual_mode="oversampled(13)")
        assert amp.shape == lam.shape
        assert amp[self.POLE] == np.inf
        assert np.isinf(amp).sum() == 1
        rest = np.ones(lam.shape, dtype=bool)
        rest[self.POLE] = False
        assert np.array_equal(amp[rest], self.one_pass(lam, cfg)[rest])
        assert np.array_equal(amplification_field(self.GRID, "strang", corrections,
                                                  residual_mode="oversampled(13)"),
                              self.one_pass(self.GRID, cfg))

    @pytest.mark.parametrize("corrections", [0, 1, 2])
    def test_open_mesh_equals_grid_bitwise(self, corrections):
        cfg = IDCConfig(corrections=corrections, predictor="strang",
                        residual_mode="oversampled(13)")
        re, im = np.linspace(-20, 4, 161), np.linspace(-12, 12, 128)
        re[self.POLE[0]], im[self.POLE[1]] = 8.0 * cfg.resolved_M(), 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = amplification_field(np.ix_(re, im), "strang", corrections)
        assert amp.shape == (161, 128)
        assert amp[self.POLE] == np.inf
        assert np.array_equal(amp, amplification_field(re[:, None] + 1j * im[None, :],
                                                       "strang", corrections))

    def test_order_saturation_warns_once_per_field(self):
        # Strang cs=2 targets order 6 on M+1 = 4 nodes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                amplification_field(self.GRID, "strang", 2, M=3)
        saturation = [w for w in caught if "requested order 6 exceeds M+1=4" in str(w.message)]
        assert len(saturation) == 2


class TestPoles:
    # Lie-Trotter on M=3 sub-steps: the factor 1 - (1/3)(lambda/2) vanishes at lambda=6
    def test_amplification_raises_at_pole(self):
        with pytest.raises(StepperError) as err:
            amplification(6.0, "lie-trotter", 0)
        assert isinstance(err.value.__cause__, PoleError)

    def test_field_pole_cell_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = amplification_field(np.array([6.0, -1.0]), "lie-trotter", 0)
        assert amp[0] == np.inf
        assert np.isfinite(amp[1])


class TestMarchBoundary:
    """The map takes its one step outside ``idc_march``, on the march's nodes,
    because its unstable and pole cells are non-finite by design."""

    # Strang on M=3: the factor 1 - (h/4)(lambda/2) vanishes at lambda = 24,
    # and a cs=1 sweep overflows at |lambda| = 1e155
    LAMS = np.array([24.0, 1e155, -1.0])

    def test_pole_and_overflow_cells_of_one_block_are_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            amp = amplification_field(self.LAMS, "strang", 1, M=3)
        assert amp[0] == np.inf and amp[1] == np.inf
        assert np.isfinite(amp[2])
        # the scalar path still raises at the pole
        with pytest.raises(StepperError) as err:
            amplification(self.LAMS[0], "strang", 1, M=3)
        assert isinstance(err.value.__cause__, PoleError)

    @pytest.mark.parametrize("corrections", [0, 2])
    def test_finite_field_equals_one_marched_step_bitwise(self, corrections):
        lam = scan_grid(21, 17).ravel()
        cfg = IDCConfig(corrections=corrections, predictor="strang")
        op = DiagonalLinearOperator(0.5 * lam)
        ivp = SplitIVP(operators=(op, op), initial_state=np.ones_like(lam), t_span=(0.0, 1.0))
        assert np.array_equal(amplification_field(lam, "strang", corrections),
                              np.abs(idc_solve(ivp, 1, cfg)))


def cell_loop_marching_squares(xs, ys, field, level):
    """Reference: the per-cell loop marching_squares must reproduce bit for bit."""
    F = np.asarray(field) - level
    nx, ny = F.shape
    segments = []

    def interp(xa, ya, fa, xb, yb, fb):
        t = fa / (fa - fb)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    for i in range(nx - 1):
        for j in range(ny - 1):
            f = (F[i, j], F[i + 1, j], F[i + 1, j + 1], F[i, j + 1])
            if not all(np.isfinite(v) for v in f):
                continue
            idx = sum(1 << k for k, v in enumerate(f) if v > 0)
            if idx in (0, 15):
                continue
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]
            corners = ((x0, y0, f[0]), (x1, y0, f[1]), (x1, y1, f[2]), (x0, y1, f[3]))
            edges = {}
            for k in range(4):
                a, b = corners[k], corners[(k + 1) % 4]
                if (a[2] > 0) != (b[2] > 0):
                    edges[k] = interp(*a, *b)
            keys = sorted(edges)
            if len(keys) == 2:
                segments.append((edges[keys[0]], edges[keys[1]]))
            elif len(keys) == 4:
                center_positive = sum(v for _, _, v in corners) > 0
                first_positive = f[0] > 0
                if center_positive == first_positive:
                    segments.append((edges[0], edges[3]))
                    segments.append((edges[1], edges[2]))
                else:
                    segments.append((edges[0], edges[1]))
                    segments.append((edges[2], edges[3]))
    return _stitch_segments(segments)


class TestMarchingSquares:
    def random_case(self, rng):
        nx, ny = rng.integers(2, 25, size=2)
        xs = np.cumsum(rng.uniform(0.05, 1.0, size=nx)) - 3.0
        ys = np.cumsum(rng.uniform(0.05, 1.0, size=ny)) - 2.0
        level = 0.75
        field = level + rng.normal(size=(nx, ny))
        field[rng.random((nx, ny)) < 0.15] = level
        field[rng.random((nx, ny)) < 0.03] = np.nan
        field[rng.random((nx, ny)) < 0.03] = np.inf
        return xs, ys, field, level

    @staticmethod
    def saddle_cells(field, level):
        pos = np.asarray(field) - level > 0
        corners = (pos[:-1, :-1], pos[1:, :-1], pos[1:, 1:], pos[:-1, 1:])
        finite = np.isfinite(field)
        ok = finite[:-1, :-1] & finite[1:, :-1] & finite[1:, 1:] & finite[:-1, 1:]
        checker = ((corners[0] == corners[2]) & (corners[1] == corners[3])
                   & (corners[0] != corners[1]))
        return int((checker & ok).sum())

    def test_matches_cell_loop_bitwise(self):
        rng = np.random.default_rng(20)
        saddles = 0
        for _ in range(20):
            xs, ys, field, level = self.random_case(rng)
            saddles += self.saddle_cells(field, level)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = marching_squares(xs, ys, field, level)
            ref = cell_loop_marching_squares(xs, ys, field, level)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.shape == r.shape
                assert g.dtype == r.dtype
                assert g.tobytes() == r.tobytes()
        assert saddles > 20

    def test_unit_circle_is_one_closed_polyline(self):
        xs = ys = np.linspace(-1.5, 1.5, 41)
        h = xs[1] - xs[0]
        field = xs[:, None] ** 2 + ys[None, :] ** 2
        (line,) = marching_squares(xs, ys, field, 1.0)
        assert len(line) > 40
        assert np.allclose(line[0], line[-1], rtol=0.0, atol=1e-12)
        assert np.abs(np.hypot(line[:, 0], line[:, 1]) - 1.0).max() <= h ** 2

    def test_corner_on_the_level_gives_no_zero_length_piece(self):
        # the circle of radius 0.9 passes through grid points, where a cell
        # corner equals the level and both of its edges cross at t = 0
        xs = ys = np.linspace(-1.0, 1.0, 101)
        field = np.hypot(xs[:, None], ys[None, :]) / 0.9
        (line,) = marching_squares(xs, ys, field, 1.0)
        assert np.array_equal(line[0], line[-1])
        assert not (line[1:] == line[:-1]).all(axis=1).any()

    @pytest.mark.parametrize("n_x", [6, 4], ids=["longer-xs", "shorter-xs"])
    def test_field_shape_must_match_the_axes(self, n_x):
        field = np.arange(25.0).reshape(5, 5)
        with pytest.raises(UsageError, match=r"field of shape \(5, 5\)"):
            marching_squares(np.linspace(0.0, 1.0, n_x), np.linspace(0.0, 1.0, 5), field, 12.5)

    def test_no_crossing_gives_no_polyline(self):
        xs = ys = np.linspace(0.0, 1.0, 4)
        assert marching_squares(xs, ys, np.full((4, 4), 2.0), 1.0) == []
        assert marching_squares(xs, ys, np.full((4, 4), np.nan), 1.0) == []


class TestScanWindow:
    @pytest.mark.parametrize("re_range,im_range", [
        ((-1.0, 1.0), (-1.0, np.inf)), ((np.nan, 1.0), (-1.0, 1.0)),
        ((-np.inf, 1.0), (-1.0, 1.0))])
    def test_non_finite_range_end(self, re_range, im_range):
        scan = StabilityScan(scheme="strang", corrections=0, re_range=re_range,
                             im_range=im_range, resolution=(5, 5))
        with pytest.raises(UsageError, match="finite"):
            scan.axes()


class TestScanWriters:
    def scan(self):
        amp = np.array([[0.5, 1.0 / 3.0], [np.inf, 2.0], [1e-20, 7.0]])
        contours = (np.array([[0.1, 0.2], [-0.3, 0.4]]),
                    np.array([[1.0, 2.0], [3.0, 1e-17], [5.0, 6.25]]))
        return StabilityScan(scheme="strang", corrections=0, re_range=(-1.0, 0.5),
                             im_range=(0.0, 0.3), resolution=(3, 2), amp=amp,
                             contours=contours)

    def test_field_csv_bytes(self, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(path, self.scan())
        assert path.read_bytes() == (
            b"re,im,abs_amp\n"
            b"-1.0,0.0,0.5\n"
            b"-0.25,0.0,inf\n"
            b"0.5,0.0,1e-20\n"
            b"-1.0,0.3,0.3333333333333333\n"
            b"-0.25,0.3,2.0\n"
            b"0.5,0.3,7.0\n")

    def test_contour_csv_bytes(self, tmp_path):
        path = tmp_path / "contour.csv"
        write_contour_csv(path, self.scan())
        assert path.read_bytes() == (
            b"re,im,segment_id\n"
            b"0.1,0.2,0\n"
            b"-0.3,0.4,0\n"
            b"1.0,2.0,1\n"
            b"3.0,1e-17,1\n"
            b"5.0,6.25,1\n")
