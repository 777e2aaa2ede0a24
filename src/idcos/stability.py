"""Linear stability analysis of the deferred-correction splitting schemes.

The test problem is u' = lambda*u with u(0) = 1, split equally over two
operators (lambda/2 each), integrated over a single macro step of length one.
The magnitude of u(1) as a function of complex lambda is the amplification
field; its unit level set bounds the stability region.

The scalar problem is solved by DiagonalLinearOperator's direct division,
so a grid of lambda values is scanned as vectorized runs over fixed blocks
of cells; in its lenient mode a pole gives inf in its own cell only.
Unstable and pole cells are non-finite by design, which ``idc_march`` would
fail, so the map takes its single step with ``solve_macro_interval`` on the
nodes the march would build.

The map integrates the residual as every ladder and simulation does, by
``IDCConfig``'s default quadrature of f at the level's nodes
('interpolant'); ``oversampled(N)`` is taken only when asked for.  It is
not yet a map of the PDE's Strang corrector: ``DiagonalLinearOperator``
has no linear branch, so the map's correction reads the interpolated shift
at the half-stage times, where a PDE correction reads the node shifts
joined linearly (``ErrorProblem.nodal_shift``).

A scan holds its returned |amp| field and one block's stage values, whatever
its resolution: each block forms its own lambda from the open mesh
``np.ix_(re, im)``, the contours select crossed cells from 1-byte sign planes
of the field, and the field CSV is formatted one row at a time.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import StepperError, UsageError
from .idc import IDCConfig, solve_macro_interval
from .ode import DiagonalLinearOperator, SplitIVP
from .polyint import UniformNodeSet

_BLOCK = 8192  # cells per vectorized run: a stage value of a block is 128 KiB


def _dahlquist_step(lam, cfg, strict=True):
    """u(1) of the split test problem after its single macro step, taken on
    the nodes ``idc_march`` builds for the span (0, 1)."""
    lam = np.asarray(lam, dtype=complex)
    op = DiagonalLinearOperator(0.5 * lam, strict=strict)
    problem = SplitIVP(operators=(op, op), initial_state=np.ones_like(lam), t_span=(0.0, 1.0))
    nodes = UniformNodeSet(t0=0.0, h=1.0 / cfg.M, M=cfg.M)
    return solve_macro_interval(problem, nodes, problem.initial_state, cfg).final_state


def amplification(lam, scheme, corrections, M=None, residual_mode=IDCConfig.residual_mode):
    """u(1) after one macro step on the split test problem u' = lambda*u.

    Raises StepperError, caused by a PoleError, when an implicit stage
    factor is singular.
    """
    cfg = IDCConfig(corrections=corrections, predictor=scheme, M=M,
                    residual_mode=residual_mode)
    cfg.warn_if_saturated()
    return complex(_dahlquist_step([lam], cfg)[0])


def amplification_field(lams, scheme, corrections, M=None,
                        residual_mode=IDCConfig.residual_mode):
    """Vectorized |amplification| over an array of lambda values, or over the
    open mesh ``np.ix_(re, im)`` of a grid's axes.

    The flattened cells are marched in blocks of ``_BLOCK``, each its own
    problem and IDC step, into one output of the grid's shape.  No cell
    couples to another, so each runs the arithmetic of a one-pass run and
    the field is the same bit for bit; the order-saturation warning is
    given once per field.  Given the open mesh, each block forms its own
    lambda as ``re[i] + 1j * im[j]``, the expression of the materialised
    grid ``re[:, None] + 1j * im[None, :]``, so the field keeps its bits
    and no grid of lambda is built.  Pole and overflowing cells come back
    as inf, without a floating-point warning, and each stays in its own cell.
    """
    cfg = IDCConfig(corrections=corrections, predictor=scheme, M=M,
                    residual_mode=residual_mode)
    cfg.warn_if_saturated()
    if isinstance(lams, tuple):
        re, im = (np.ravel(axis) for axis in lams)
        shape = (re.size, im.size)

        def block_lams(start, stop):
            i, j = np.divmod(np.arange(start, stop), im.size)
            return re[i] + 1j * im[j]
    else:
        lams = np.asarray(lams, dtype=complex)
        shape, flat = lams.shape, lams.ravel()

        def block_lams(start, stop):
            return flat[start:stop]
    amp = np.empty(shape)
    out = amp.reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):  # inf by design: poles, overflow
        for start in range(0, out.size, _BLOCK):
            stop = min(start + _BLOCK, out.size)
            block = np.abs(_dahlquist_step(block_lams(start, stop), cfg, strict=False))
            block[~np.isfinite(block)] = np.inf
            out[start:stop] = block
    return amp


@dataclass(frozen=True)
class StabilityScan:
    """A rectangular scan of the complex plane for one scheme configuration."""

    scheme: str
    corrections: int
    re_range: tuple = (-20.0, 4.0)
    im_range: tuple = (-12.0, 12.0)
    resolution: tuple = (601, 601)
    M: int = None
    residual_mode: str = IDCConfig.residual_mode
    amp: np.ndarray = None
    contours: tuple = None

    def axes(self):
        """The re and im sample points; a malformed window raises UsageError."""
        if len(self.re_range) != 2 or len(self.im_range) != 2:
            raise UsageError("scan ranges need two values each, got "
                             f"re {self.re_range} and im {self.im_range}")
        if not np.isfinite([*self.re_range, *self.im_range]).all():
            raise UsageError("scan ranges need finite ends, got "
                             f"re {self.re_range} and im {self.im_range}")
        if len(self.resolution) != 2 or not all(
                isinstance(n, (int, np.integer)) and n >= 2 for n in self.resolution):
            raise UsageError("resolution needs two integer sample counts of at least 2, "
                             f"got {self.resolution}")
        n_re, n_im = self.resolution
        return (np.linspace(*self.re_range, n_re),
                np.linspace(*self.im_range, n_im))


def scan_region(spec):
    """Fill the scan's amplification field and extract its |amp| = 1 contours."""
    re, im = spec.axes()
    amp = amplification_field(np.ix_(re, im), spec.scheme, spec.corrections,
                              M=spec.M, residual_mode=spec.residual_mode)
    contours = marching_squares(re, im, amp, 1.0)
    return replace(spec, amp=amp, contours=tuple(contours))


def marching_squares(xs, ys, field, level):
    """Level-set polylines of a scalar field on a rectangular grid.

    Returns a list of polylines, each an (n, 2) array of (x, y) points.
    ``field`` has shape ``(len(xs), len(ys))``; any other shape raises
    UsageError.  Crossings are linearly interpolated along cell edges;
    saddle cells are disambiguated by the cell-center average.  Cells
    touching non-finite values are skipped (reported as gaps, not failures).

    Cells are selected from 1-byte planes of the grid: the sign plane
    ``field > level`` (the test ``field - level > 0`` for every IEEE value),
    ``isfinite(field)`` and a uint8 corner-sign case.  Only the crossed
    cells' corners are then gathered as ``field - level``, so the extraction
    holds a few bytes per grid cell beside its output.

    Output order: cells in (i, j) order, i outer; within a cell, segments
    join crossed edges in ascending edge index, edge k running from corner k
    to corner k + 1 counter-clockwise from (xs[i], ys[j]).  Each cell
    interpolates its own edges from its own corners, so a crossing shared by
    two cells is computed twice, from opposite ends.  Stitching reads the
    segments in this order, which fixes the polylines point for point.
    """
    field = np.asarray(field)
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.ndim != 1 or ys.ndim != 1 or field.shape != (xs.size, ys.size):
        raise UsageError(f"field of shape {field.shape} does not match "
                         f"{xs.shape} x values by {ys.shape} y values")
    nx, ny = field.shape
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))  # corner k of cell (i, j) is (i + di, j + dj)
    above, finite = (field > level).view(np.uint8), np.isfinite(field)
    case = np.zeros((max(nx - 1, 0), max(ny - 1, 0)), dtype=np.uint8)
    live = np.ones(case.shape, dtype=bool)
    for k, (di, dj) in enumerate(corners):
        shifted = (slice(di, nx - 1 + di), slice(dj, ny - 1 + dj))
        case |= above[shifted] << np.uint8(k)
        live &= finite[shifted]
    i, j = np.nonzero(live & (case != 0) & (case != 15))
    case = case[i, j]
    f = np.stack([field[i + di, j + dj] - level for di, dj in corners])
    x = np.stack([xs[i + di] for di, _ in corners])
    y = np.stack([ys[j + dj] for _, dj in corners])
    nxt = [1, 2, 3, 0]
    with np.errstate(all="ignore"):  # t is inf or nan on uncrossed edges, never read
        t = f / (f - f[nxt])
        points = np.stack((x + t * (x[nxt] - x), y + t * (y[nxt] - y)), axis=-1)
        center_positive = ((f[0] + f[1]) + f[2]) + f[3] > 0
    segments = []
    for n, (c, cp) in enumerate(zip(case.tolist(), center_positive.tolist())):
        for a, b in _cell_segments(c, cp):
            segments.append((points[a, n], points[b, n]))
    return _stitch_segments(segments)


def _cell_segments(case, center_positive):
    """Edge pairs joined by a cell of this corner-sign case, in emission order."""
    crossed = [k for k in range(4) if (case >> k & 1) != (case >> (k + 1) % 4 & 1)]
    if len(crossed) == 2:
        return (tuple(crossed),)
    if center_positive == bool(case & 1):
        return ((0, 3), (1, 2))
    return ((0, 1), (2, 3))


def _stitch_segments(segments):
    """Chain raw cell segments into polylines by matching endpoints.

    A segment whose two ends share a key is dropped: a corner on the level
    gives a crossing at t = 0 on both of its edges, a segment from a point
    to itself.
    """
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    segments = [(a, b) for a, b in segments if key(a) != key(b)]
    adjacency = {}
    for s, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append((s, 0))
        adjacency.setdefault(key(b), []).append((s, 1))

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for end_idx in (1, 0):
            while True:
                k = key(chain[-1] if end_idx == 1 else chain[0])
                candidates = [(s, e) for s, e in adjacency.get(k, []) if not used[s]]
                if not candidates:
                    break
                s, e = candidates[0]
                used[s] = True
                nxt = segments[s][1 - e]
                if end_idx == 1:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(np.asarray(chain))
    return polylines


def stability_boundary_real_axis(scheme, corrections, M=None,
                                 residual_mode=IDCConfig.residual_mode,
                                 max_magnitude=2.0**24, tol=1e-6):
    """Crossing of |amp| = 1 on the negative real axis, or None if stable throughout.

    Walks a geometric ladder of magnitudes until the scheme goes unstable,
    then bisects the bracket.  Returns the (negative) crossing location.
    """
    def stable(lam):
        try:
            amp = abs(amplification(lam, scheme, corrections, M=M,
                                    residual_mode=residual_mode))
        except StepperError:
            return False
        return amp <= 1.0

    lo = -1e-3  # stable end (near the origin every scheme is stable)
    hi = None
    mag = 0.5
    while mag <= max_magnitude:
        if not stable(-mag):
            hi = -mag
            break
        lo = -mag
        mag *= 2.0
    if hi is None:
        return None
    while abs(hi - lo) > tol * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def write_field_csv(path, scan):
    """Field CSV: header re,im,abs_amp; one row per grid point, im outer."""
    re, im = scan.axes()
    re_text = [repr(x) for x in re.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im,abs_amp\n")
        for k, y in enumerate(im.tolist()):
            row_im, amps = repr(y), scan.amp[:, k].tolist()
            fh.write("".join(f"{x},{row_im},{a!r}\n" for x, a in zip(re_text, amps)))


def write_contour_csv(path, scan):
    """Contour CSV: polyline points tagged with their segment id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im,segment_id\n")
        for seg_id, line in enumerate(scan.contours or ()):
            fh.write("".join(f"{x!r},{y!r},{seg_id}\n" for x, y in line.tolist()))
