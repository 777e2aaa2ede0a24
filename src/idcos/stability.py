"""Linear stability analysis of the deferred-correction splitting schemes.

The test problem is u' = lambda*u with u(0) = 1, split equally over two
operators (lambda/2 each), integrated over a single macro step of length one.
The magnitude of u(1) as a function of complex lambda is the amplification
field; its unit level set bounds the stability region.

The scalar problem is solved by DiagonalLinearOperator's direct division,
so a whole grid of lambda values can be scanned in one vectorized run; in
its lenient mode a pole gives inf in its own cell only.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StepperError, UsageError
from .idc import IDCConfig, idc_solve
from .ode import DiagonalLinearOperator, SplitIVP

DEFAULT_RESIDUAL_MODE = "oversampled(13)"


def _dahlquist_problem(lam, strict=True):
    lam = np.asarray(lam, dtype=complex)
    op = DiagonalLinearOperator(0.5 * lam, strict=strict)
    return SplitIVP(operators=(op, op),
                    initial_state=np.ones_like(lam),
                    t_span=(0.0, 1.0))


def _config(scheme, corrections, M, residual_mode):
    return IDCConfig(corrections=corrections, predictor=scheme, M=M,
                     residual_mode=residual_mode)


def amplification(lam, scheme, corrections, M=None, residual_mode=DEFAULT_RESIDUAL_MODE):
    """u(1) after one macro step on the split test problem u' = lambda*u.

    Raises StepperError, caused by a PoleError, when an implicit stage
    factor is singular.
    """
    problem = _dahlquist_problem(np.asarray([lam], dtype=complex), strict=True)
    cfg = _config(scheme, corrections, M, residual_mode)
    traj = idc_solve(problem, 1, cfg, keep="final")
    return complex(traj.final_state[0])


def amplification_field(lams, scheme, corrections, M=None,
                        residual_mode=DEFAULT_RESIDUAL_MODE):
    """Vectorized |amplification| over an array of lambda values.

    Pole cells come back as inf, without a floating-point warning; cells
    never couple, so a pole stays in its own cell.
    """
    problem = _dahlquist_problem(lams, strict=False)
    cfg = _config(scheme, corrections, M, residual_mode)
    with np.errstate(invalid="ignore"):  # inf * 0 downstream of a pole cell
        traj = idc_solve(problem, 1, cfg, keep="final")
    amp = np.abs(traj.final_state)
    amp[~np.isfinite(amp)] = np.inf
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
    residual_mode: str = DEFAULT_RESIDUAL_MODE
    amp: np.ndarray = None
    contours: tuple = None

    def axes(self):
        """The re and im sample points; a malformed window raises UsageError."""
        if len(self.re_range) != 2 or len(self.im_range) != 2:
            raise UsageError("scan ranges need two values each, got "
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
    lam = re[:, None] + 1j * im[None, :]
    amp = amplification_field(lam, spec.scheme, spec.corrections,
                              M=spec.M, residual_mode=spec.residual_mode)
    contours = marching_squares(re, im, amp, 1.0)
    return replace(spec, amp=amp, contours=tuple(contours))


def marching_squares(xs, ys, field, level):
    """Level-set polylines of a scalar field on a rectangular grid.

    Returns a list of polylines, each an (n, 2) array of (x, y) points.
    Crossings are linearly interpolated along cell edges; saddle cells are
    disambiguated by the cell-center average.  Cells touching non-finite
    values are skipped (reported as gaps, not failures).

    Output order: cells in (i, j) order, i outer; within a cell, segments
    join crossed edges in ascending edge index, edge k running from corner k
    to corner k + 1 counter-clockwise from (xs[i], ys[j]).  Each cell
    interpolates its own edges from its own corners, so a crossing shared by
    two cells is computed twice, from opposite ends.  Stitching reads the
    segments in this order, which fixes the polylines point for point.
    """
    F = np.asarray(field) - level
    xs, ys = np.asarray(xs), np.asarray(ys)
    f = np.stack((F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:]))
    case = ((f > 0) * np.array([1, 2, 4, 8])[:, None, None]).sum(axis=0)
    i, j = np.nonzero(np.isfinite(f).all(axis=0) & (case != 0) & (case != 15))
    f, case = f[:, i, j], case[i, j]
    x = np.stack((xs[i], xs[i + 1], xs[i + 1], xs[i]))
    y = np.stack((ys[j], ys[j], ys[j + 1], ys[j + 1]))
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
    """Chain raw cell segments into polylines by matching endpoints."""
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

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
                                 residual_mode=DEFAULT_RESIDUAL_MODE,
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
        for y, amps in zip(im.tolist(), scan.amp.T.tolist()):
            row_im = repr(y)
            fh.write("".join(f"{x},{row_im},{a!r}\n" for x, a in zip(re_text, amps)))


def write_contour_csv(path, scan):
    """Contour CSV: polyline points tagged with their segment id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im,segment_id\n")
        for seg_id, line in enumerate(scan.contours or ()):
            fh.write("".join(f"{x!r},{y!r},{seg_id}\n" for x, y in line.tolist()))
