"""Batch experiment drivers: convergence tables, stability maps, simulations.

Each driver consumes a RunConfig, builds and checks its whole run, then writes
deterministic CSV artifacts plus a run manifest (the resolved config, wall
time, artifact checksums) into the output directory, and returns its
in-memory result.  Floats are written with round-trip repr formatting so
identical configurations produce byte-identical artifacts when each runs in
a fresh process; after other runs in the same process a few stability-scan
cells can differ in their last digits.

The ladder CSV, the field snapshot (``write_field_snapshot``, which reads
only a grid's axes and shape) and the run manifest are written here; a
scan's field and contour CSVs by ``stability`` (``write_field_csv``,
``write_contour_csv``), which ``run_stability`` calls.  The PDE backend
(``problems`` and the scipy layers under it) is imported only when a run
builds a problem, so a stability map loads no scipy.
"""

from dataclasses import dataclass, asdict
import hashlib
import json
import numbers
import os
import time

import numpy as np

from .errors import SolverError, UsageError
from .idc import IDCConfig, idc_march, idc_solve
from .polyint import MAX_SUBINTERVALS
from .stability import StabilityScan, scan_region, write_contour_csv, write_field_csv
from .steppers import STEPPER_ORDERS, check_operator_count


@dataclass(frozen=True)
class RunConfig:
    """One batch run: a convergence study, a stability map, or a simulation.

    Construction resolves each unset default the run reads, so the manifest
    echoes what ran: a convergence study's or a simulation's ``problem``
    ('example1'), ``order_space`` (6) and the ``TABLE_DEFAULTS`` fields it
    reads (not ``UNREAD_TABLE_KEYS``); ``corrections``, (0, 1, 2)
    or a simulation's one count (2,); a convergence run's ``nt_unit``,
    'macro' under ADI and 'substep' otherwise; and a stability map's
    window, ``StabilityScan``'s.  Every experiment's ``residual_mode``
    defaults to ``IDCConfig``'s.  Fields a run does not read stay as set.
    Correction counts and N_t rungs must not repeat.
    """

    experiment: str = "convergence"
    problem: str = None          # 'example1' for ladders and simulations
    scheme: str = "lie-trotter"
    corrections: tuple[int, ...] = None
    nt_list: tuple[int, ...] = ()
    nt_unit: str = None          # 'substep' or 'macro'
    M: int = None                # sub-intervals per macro step; IDCConfig's if None
    grid_n: int = None
    order_space: int = None      # 6 for ladders and simulations
    end_time: float = None
    dt: float = None             # simulation macro step
    snap_times: tuple[float, ...] = ()
    residual_mode: str = IDCConfig.residual_mode  # or 'oversampled(N)'
    out_dir: str = "out"
    run_name: str = None
    # stability scan window
    re_range: tuple[float, ...] = None
    im_range: tuple[float, ...] = None
    resolution: tuple[int, ...] = None

    def __post_init__(self):
        if self.experiment not in ("convergence", "stability", "simulate"):
            raise UsageError(f"unknown experiment {self.experiment!r}")
        if self.scheme not in STEPPER_ORDERS:
            raise UsageError(f"unknown scheme {self.scheme!r}")
        if self.nt_unit not in (None, "substep", "macro"):
            raise UsageError(f"unknown nt unit {self.nt_unit!r}")
        scan = self.experiment == "stability"
        resolved = {
            "problem": None if scan else "example1",
            "order_space": None if scan else 6,
            "corrections": (2,) if self.experiment == "simulate" else (0, 1, 2),
            "nt_unit": ("macro" if self.scheme == "adi" else "substep")
            if self.experiment == "convergence" else None,
            **{key: getattr(StabilityScan, key) if scan else None
               for key in ("re_range", "im_range", "resolution")}}
        for key, value in resolved.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if self.problem is not None:
            from .problems import PROBLEM_BUILDERS
            if self.problem not in PROBLEM_BUILDERS:
                raise UsageError(f"unknown problem {self.problem!r}")
        if not scan:
            for key, value in TABLE_DEFAULTS.get((self.problem, self.scheme), {}).items():
                if key not in UNREAD_TABLE_KEYS[self.experiment] \
                        and getattr(self, key) in (None, ()):
                    object.__setattr__(self, key, value)
        counts = self.corrections
        if not (isinstance(counts, (tuple, list)) and counts and all(
                isinstance(cs, numbers.Integral) and cs >= 0 for cs in counts)
                and len(set(counts)) == len(counts)):
            raise UsageError(f"corrections must be one or more distinct whole numbers "
                             f">= 0, got {counts!r}")
        if len(set(self.nt_list)) != len(self.nt_list):
            raise UsageError(f"the N_t ladder repeats a rung: {list(self.nt_list)}")

    @property
    def name(self):
        """Artifact prefix: ``run_name`` if set, else problem_scheme; a scan
        reads no problem and is named after its scheme alone."""
        if self.run_name:
            return self.run_name
        scheme = self.scheme.replace("-", "")
        return scheme if self.experiment == "stability" else f"{self.problem}_{scheme}"


# Per-table defaults lifted from the convergence-study captions: grid size,
# end time and the time-step ladder.  The alternating-direction studies read
# N_t as macro steps (their corrections need the shorter macro intervals to
# stay inside the scheme's stiff stability envelope); the differential
# splittings read N_t as base-stepper sub-steps, which also reproduces the
# published error magnitudes.  The Lie-Trotter rungs are pre-asymptotic: their
# cs=1 and cs=2 orders approach 2 and 3 only on finer rungs (example2 at N=45:
# 1.98 and 2.95 at N_t=2560), not because of a spatial floor.  example1 is
# linear in y, so ADI's splitting error vanishes there and its cs >= 1 rows
# are roundoff (time errors of 1e-14 to 1e-15): they show no order.
TABLE_DEFAULTS = {
    ("example1", "lie-trotter"): dict(grid_n=45, end_time=0.025,
                                      nt_list=(60, 80, 100, 120)),
    ("example1", "strang"): dict(grid_n=45, end_time=0.025,
                                 nt_list=(60, 80, 100, 120)),
    ("example1", "adi"): dict(grid_n=150, end_time=0.025,
                              nt_list=(60, 80, 100, 120)),
    ("example2", "lie-trotter"): dict(grid_n=45, end_time=0.025,
                                      nt_list=(40, 80, 160, 320)),
    ("example2", "strang"): dict(grid_n=45, end_time=0.025,
                                 nt_list=(40, 80, 160, 320)),
    ("example2", "adi"): dict(grid_n=200, end_time=0.05,
                              nt_list=(40, 80, 160, 320)),
    ("example3", "lie-trotter"): dict(grid_n=45, end_time=0.025,
                                      nt_list=(60, 80, 100, 120)),
    ("example3", "strang"): dict(grid_n=100, end_time=0.01,
                                 nt_list=(60, 80, 100, 120)),
    ("fhn", "lie-trotter"): dict(grid_n=200, end_time=10.0, dt=0.005,
                                 snap_times=(2.0, 5.0, 10.0)),
    ("schnakenberg", "lie-trotter"): dict(grid_n=200, end_time=1.5, dt=0.001,
                                          snap_times=(0.5, 1.0, 1.5)),
}

# The table fields each experiment never reads: a ladder marches no snapshot
# steps, and a simulation climbs no N_t ladder.
UNREAD_TABLE_KEYS = {"convergence": ("dt", "snap_times"), "simulate": ("nt_list",)}


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (correction, Nt, error, order) plus the metric used."""

    metric: str              # 'exact' or 'self'
    rows: tuple

    def orders_for(self, correction):
        return [r[3] for r in self.rows if r[0] == correction and np.isfinite(r[3])]


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_field_snapshot(path, grid, field):
    """Snapshot CSV: x,y,u or x,y,u,v rows of float reprs, y as the outer loop."""
    field = np.asarray(field, dtype=float).reshape((-1,) + grid.shape)
    if len(field) > 2:
        raise UsageError(f"snapshots hold one or two components, not {len(field)}")
    xs = [repr(x) for x in grid.xs.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y," + ",".join(("u", "v")[:len(field)]) + "\n")
        for y, rows in zip(grid.ys.tolist(), field.transpose(1, 0, 2)):
            cells = [xs, [repr(y)] * len(xs)] + [list(map(repr, r)) for r in rows.tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg, t_start, paths, extra=None):
    """The run manifest: config echo, wall time and each artifact's sha256."""
    manifest = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()},
        "wall_time_s": time.perf_counter() - t_start,
        "artifacts": {os.path.basename(p): {"sha256": _sha256(p)} for p in paths},
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(cfg.out_dir, f"{cfg.name}_run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _build_problem(cfg):
    """The run's problem, rejecting a scheme that cannot take its operators."""
    from .problems import PROBLEM_BUILDERS
    builder = PROBLEM_BUILDERS[cfg.problem]
    kwargs = {"order": cfg.order_space}
    if cfg.grid_n is not None:
        kwargs["N"] = cfg.grid_n
    prob = builder(**kwargs)
    check_operator_count(cfg.scheme, len(prob.system.operators()))
    return prob


def run_convergence(cfg):
    """Convergence table for one scheme over the correction counts.

    Problems with an exact solution use the max-norm error at the end time;
    the periodic variable-coefficient problem uses the successive-refinement
    difference, which needs each N_t/2 run as its reference, so its N_t must
    be even.  Unless set, a correction count's sub-interval count M is the
    smallest that supports its target order, max(target - 1, 1); counted in
    sub-steps, M is raised, up to ``MAX_SUBINTERVALS``, until it divides
    every rung.  A rung that is no positive whole number of macro steps is
    rejected.  The problem, its split IVP, every rung, references included,
    and every correction count's IDC configuration are built and checked
    before the output directory is made.  Each rung runs every correction
    count before the next rung, so counts on one step size share its line
    factors.  A failed rung, a non-finite state included, is named in
    ``failures`` (by count, then rung) with the macro step and time of its
    failure, and every error and order that reads it is nan.
    """
    if not cfg.nt_list:
        raise UsageError("convergence runs need an N_t ladder")
    if cfg.end_time is None:
        raise UsageError(f"no end time for {cfg.problem} {cfg.scheme}; set --end-time")
    t_start = time.perf_counter()
    prob = _build_problem(cfg)
    ivp = prob.split_ivp(cfg.end_time)
    metric = "exact" if prob.exact is not None else "self"
    nts = tuple(cfg.nt_list)
    if metric == "self" and any(nt % 2 for nt in nts):
        raise UsageError(f"the self metric reads N_t against N_t/2; N_t={list(nts)} must be even")
    run_nts = nts if metric == "exact" else tuple(sorted(set(nts) | {nt // 2 for nt in nts}))
    plan = []
    for cs in cfg.corrections:
        M = cfg.M
        if M is None:
            # the target order, read without checking a default M this run never uses
            M = max(STEPPER_ORDERS[cfg.scheme] * (cs + 1) - 1, 1)
            while cfg.nt_unit == "substep" and M < MAX_SUBINTERVALS \
                    and any(nt % M for nt in run_nts):
                M += 1
        idc_cfg = IDCConfig(corrections=cs, predictor=cfg.scheme, M=M,
                            residual_mode=cfg.residual_mode)
        unit = M if cfg.nt_unit == "substep" else 1
        for nt in run_nts:
            if nt < unit or nt % unit:
                raise UsageError(f"N_t={nt} ({cfg.nt_unit} unit) is no positive whole "
                                 f"number of macro steps of M={M}")
        plan.append((unit, idc_cfg))
    os.makedirs(cfg.out_dir, exist_ok=True)
    exact = prob.exact(cfg.end_time) if metric == "exact" else None
    # a self-metric final is kept only until the rung that reads it
    errors = {}
    finals = {}
    failed = {}
    for nt in run_nts:
        for unit, idc_cfg in plan:
            cs = idc_cfg.corrections
            final = None
            try:
                final = idc_solve(ivp, nt // unit, idc_cfg)
            except SolverError as exc:
                failed[cs, nt] = f"cs={cs} Nt={nt}: {exc}"
            if metric == "self" and 2 * nt in nts:
                finals[cs, nt] = final
            if nt in nts:
                ref = exact if metric == "exact" else finals.pop((cs, nt // 2))
                errors[cs, nt] = (float(np.max(np.abs(final - ref)))
                                  if final is not None and ref is not None else float("nan"))
    rows = []
    failures = [failed[c.corrections, nt] for _, c in plan for nt in run_nts
                if (c.corrections, nt) in failed]
    for _, idc_cfg in plan:
        cs = idc_cfg.corrections
        errs = [errors[cs, nt] for nt in nts]
        orders = [float("nan")] + [
            float(np.log(e0 / e1) / np.log(n1 / n0)) if 0 < e0 < np.inf and 0 < e1 < np.inf
            else float("nan") for n0, n1, e0, e1 in zip(nts, nts[1:], errs, errs[1:])]
        rows += [(cs, nt, e, o) for nt, e, o in zip(nts, errs, orders)]
    report = ConvergenceReport(metric=metric, rows=tuple(rows))
    csv_path = os.path.join(cfg.out_dir, f"{cfg.name}_convergence.csv")
    _write_csv(csv_path, "correction,Nt,error,order",
               [(str(cs), str(nt), repr(e), repr(o))
                for cs, nt, e, o in rows])
    _write_manifest(cfg, t_start, [csv_path],
                    extra={"failures": failures, "metric": metric,
                           "sub_intervals": {c.corrections: c.resolved_M() for _, c in plan}})
    if failures:
        raise SolverError(
            f"{len(failures)} ladder cells failed; see the run manifest "
            f"(rows recorded as nan)")
    return report


def run_stability(cfg):
    """Stability field + unit-contour CSVs for each correction count.

    Every scan's window and IDC configuration are checked before the output
    directory is made; the manifest records each scan's sub-interval count.
    """
    t_start = time.perf_counter()
    specs = [StabilityScan(
        scheme=cfg.scheme, corrections=cs, re_range=tuple(cfg.re_range),
        im_range=tuple(cfg.im_range), resolution=tuple(cfg.resolution),
        M=cfg.M, residual_mode=cfg.residual_mode)
        for cs in cfg.corrections]
    sub_intervals = {}
    for spec in specs:
        spec.axes()
        sub_intervals[spec.corrections] = IDCConfig(
            corrections=spec.corrections, predictor=spec.scheme, M=spec.M,
            residual_mode=spec.residual_mode).resolved_M()
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = []
    scans = []
    for spec in specs:
        scan = scan_region(spec)
        base = os.path.join(cfg.out_dir, f"{cfg.name}_cs{spec.corrections}")
        field, contour = base + "_field.csv", base + "_contour.csv"
        write_field_csv(field, scan)
        write_contour_csv(contour, scan)
        paths += [field, contour]
        scans.append(scan)
    _write_manifest(cfg, t_start, paths, extra={"sub_intervals": sub_intervals})
    return scans


def _snapshot_file(cfg, t_snap):
    return f"{cfg.name}_t{t_snap:.6g}.csv"


def _snapshot_steps(cfg):
    """Map each snapshot's macro-step index round(t/dt) to its time.  Two
    times on one step, or with one file name, raise UsageError."""
    if not 0 < cfg.dt < np.inf:
        raise UsageError(f"simulation step must be finite and positive, got dt={cfg.dt}")
    steps = {}
    files = {}
    for t_snap in sorted(cfg.snap_times):
        if not 0 <= t_snap < np.inf:
            raise UsageError(f"snapshot time {t_snap} is negative or not finite")
        if cfg.end_time is not None and t_snap > cfg.end_time:
            raise UsageError(f"snapshot time {t_snap} is after end time {cfg.end_time}")
        n = round(t_snap / cfg.dt)
        if abs(n * cfg.dt - t_snap) > 1e-9 * max(1.0, t_snap):
            raise UsageError(f"snapshot time {t_snap} is not a multiple of dt={cfg.dt}")
        if n in steps:
            raise UsageError(f"snapshot times {steps[n]} and {t_snap} fall on one step")
        name = _snapshot_file(cfg, t_snap)
        if name in files:
            raise UsageError(f"snapshot times {files[name]} and {t_snap} would both be "
                             f"written to {name}")
        steps[n] = files[name] = t_snap
    return steps


def run_simulation(cfg):
    """March a reaction-diffusion run, writing field snapshots at set times.

    dt is the macro step: one pass of ``idc_march`` runs up to the last
    snapshot, and a snapshot at time t is written after step round(t/dt)
    (t = 0 writes the initial field) to ``{name}_t{t:.6g}.csv``.  Snapshot
    times must be non-negative multiples of dt no later than end_time, on
    distinct steps and with distinct file names.  A simulation runs
    exactly one correction count, (2,) unless set; more than one raises
    UsageError.  Every input is checked, and the problem, its split IVP and
    the IDC configuration are built, before the output directory is made.
    A solver failure, a non-finite field included, names its macro step and
    time, and writes the manifest, with ``failures``, before it is raised.
    Returns per-snapshot (time, min, max) summaries.
    """
    if cfg.dt is None or not cfg.snap_times:
        raise UsageError("simulate runs need dt and snapshot times")
    if len(cfg.corrections) != 1:
        raise UsageError(f"a simulation runs one correction count, "
                         f"got {list(cfg.corrections)}")
    steps = _snapshot_steps(cfg)
    (cs,) = cfg.corrections
    idc_cfg = IDCConfig(corrections=cs, predictor=cfg.scheme,
                        M=cfg.M if cfg.M is not None else (1 if cs == 0 else None),
                        residual_mode=cfg.residual_mode)
    t_start = time.perf_counter()
    prob = _build_problem(cfg)
    last = max(steps)
    ivp = prob.split_ivp(steps[last]) if last else None
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = []
    summaries = []

    def snapshot(t_snap, u):
        path = os.path.join(cfg.out_dir, _snapshot_file(cfg, t_snap))
        write_field_snapshot(path, prob.grid, u)
        comp = u if u.ndim == 3 else u[None]
        summaries.append({"time": t_snap,
                          "min": [float(c.min()) for c in comp],
                          "max": [float(c.max()) for c in comp]})
        paths.append(path)

    if 0 in steps:
        snapshot(steps[0], prob.initial)
    extra = {"snapshots": summaries, "sub_intervals": {cs: idc_cfg.resolved_M()}}
    try:
        if last:
            for n, (_, level) in enumerate(idc_march(ivp, last, idc_cfg), start=1):
                if n in steps:
                    snapshot(steps[n], level.final_state)
    except SolverError as exc:
        _write_manifest(cfg, t_start, paths, extra={**extra, "failures": [str(exc)]})
        raise
    _write_manifest(cfg, t_start, paths, extra={**extra, "failures": []})
    return summaries
