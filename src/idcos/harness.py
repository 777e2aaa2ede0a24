"""Batch experiment drivers: convergence tables, stability maps, simulations.

Each driver consumes a RunConfig, writes deterministic CSV artifacts plus a
run manifest (config echo, wall time, artifact checksums) into the output
directory, and returns its in-memory result.  Floats are written with
round-trip repr formatting so identical configurations produce byte-identical
artifacts when each runs in a fresh process; after other runs in the same
process a few stability-scan cells can differ in their last digits.
"""

from dataclasses import dataclass, field, asdict, replace
import hashlib
import json
import numbers
import os
import time

import numpy as np

from .errors import SolverError, UsageError
from .idc import IDCConfig, idc_march, idc_solve
from .pde2d import write_field_snapshot
from .polyint import MAX_SUBINTERVALS
from .problems import PROBLEM_BUILDERS
from .stability import StabilityScan, scan_region, write_contour_csv, write_field_csv
from .steppers import STEPPER_ORDERS


@dataclass(frozen=True)
class RunConfig:
    """One batch run: a convergence study, a stability map, or a simulation."""

    experiment: str = "convergence"
    problem: str = "example1"
    scheme: str = "lie-trotter"
    corrections: tuple = (0, 1, 2)
    nt_list: tuple = ()
    nt_unit: str = None          # 'substep' or 'macro'; scheme default if None
    M: int = None                # sub-intervals per macro step; policy default
    grid_n: int = None
    order_space: int = 6
    end_time: float = None
    dt: float = None             # simulation macro step
    snap_times: tuple = ()
    residual_mode: str = None   # interpolant (default) / oversampled(N); scans default oversampled(13)
    out_dir: str = "out"
    run_name: str = None
    # stability scan window
    re_range: tuple = (-20.0, 4.0)
    im_range: tuple = (-12.0, 12.0)
    resolution: tuple = (601, 601)

    def __post_init__(self):
        if self.experiment not in ("convergence", "stability", "simulate"):
            raise UsageError(f"unknown experiment {self.experiment!r}")
        if self.scheme not in STEPPER_ORDERS:
            raise UsageError(f"unknown scheme {self.scheme!r}")
        if self.problem not in PROBLEM_BUILDERS:
            raise UsageError(f"unknown problem {self.problem!r}")
        if self.nt_unit not in (None, "substep", "macro"):
            raise UsageError(f"unknown nt unit {self.nt_unit!r}")
        if self.M is not None and self.M < 1:
            raise UsageError(f"need at least one sub-interval, got M={self.M}")
        counts = self.corrections
        if not (isinstance(counts, (tuple, list)) and counts and all(
                isinstance(cs, numbers.Integral) and cs >= 0 for cs in counts)):
            raise UsageError(f"corrections must be one or more whole numbers >= 0, "
                             f"got {counts!r}")

    @property
    def name(self):
        return self.run_name or f"{self.problem}_{self.scheme.replace('-', '')}"


# Per-table defaults lifted from the convergence-study captions: grid size,
# end time and the time-step ladder.  The alternating-direction studies read
# N_t as macro steps (their corrections need the shorter macro intervals to
# stay inside the scheme's stiff stability envelope); the differential
# splittings read N_t as base-stepper sub-steps, which also reproduces the
# published error magnitudes.
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


def with_table_defaults(cfg):
    """Fill unset fields from the per-table defaults."""
    defaults = TABLE_DEFAULTS.get((cfg.problem, cfg.scheme), {})
    updates = {}
    for key, value in defaults.items():
        current = getattr(cfg, key)
        if current is None or current == () or (key == "nt_list" and not current):
            updates[key] = value
    return replace(cfg, **updates) if updates else cfg


def default_nt_unit(scheme):
    return "macro" if scheme == "adi" else "substep"


def pick_subintervals(target_order, nt_list, nt_unit):
    """Smallest M whose quadrature supports the target order.

    Under the substep reading M must also divide every N_t so macro counts
    stay integral.
    """
    M = max(target_order - 1, 1)
    if nt_unit == "substep":
        while M <= MAX_SUBINTERVALS and any(nt % M for nt in nt_list):
            M += 1
    if M > MAX_SUBINTERVALS:
        raise UsageError(
            f"no admissible sub-interval count for order {target_order} "
            f"dividing {nt_list}")
    return M


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (correction, Nt, error, order) plus the metric used."""

    problem: str
    scheme: str
    metric: str              # 'exact' or 'self'
    rows: tuple

    def orders_for(self, correction):
        return [r[3] for r in self.rows if r[0] == correction and np.isfinite(r[3])]


def _float_repr(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg, out_dir, t_start, artifacts, extra=None):
    manifest = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()},
        "wall_time_s": time.perf_counter() - t_start,
        "artifacts": artifacts,
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, f"{cfg.name}_run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _build_problem(cfg):
    builder = PROBLEM_BUILDERS[cfg.problem]
    kwargs = {"order": cfg.order_space}
    if cfg.grid_n is not None:
        kwargs["N"] = cfg.grid_n
    return builder(**kwargs)


def run_convergence(cfg):
    """Convergence table for one scheme over the correction counts.

    Problems with an exact solution use the max-norm error at the end time;
    the periodic variable-coefficient problem uses the successive-refinement
    difference, which needs each N_t/2 run as its reference, so its N_t must
    be even.  Every rung, references included, is checked before the first
    solve.
    """
    cfg = with_table_defaults(cfg)
    if not cfg.nt_list:
        raise UsageError("convergence runs need an N_t ladder")
    if cfg.end_time is None:
        raise UsageError(f"no end time for {cfg.problem} {cfg.scheme}; set --end-time")
    t_start = time.perf_counter()
    prob = _build_problem(cfg)
    metric = "exact" if prob.exact is not None else "self"
    nt_unit = cfg.nt_unit or default_nt_unit(cfg.scheme)
    nts = tuple(cfg.nt_list)
    if metric == "self" and any(nt % 2 for nt in nts):
        raise UsageError(f"the self metric reads N_t against N_t/2; N_t={list(nts)} must be even")
    run_nts = nts if metric == "exact" else tuple(sorted(set(nts) | {nt // 2 for nt in nts}))
    plan = []
    for cs in cfg.corrections:
        target = STEPPER_ORDERS[cfg.scheme] * (1 + cs)
        M = cfg.M if cfg.M is not None else pick_subintervals(target, run_nts, nt_unit)
        unit = M if nt_unit == "substep" else 1
        for nt in run_nts:
            if nt < unit or nt % unit:
                raise UsageError(f"N_t={nt} ({nt_unit} unit) is no positive whole "
                                 f"number of macro steps of M={M}")
        plan.append((cs, M, unit))
    os.makedirs(cfg.out_dir, exist_ok=True)
    T = cfg.end_time
    exact = prob.exact(T) if metric == "exact" else None
    rows = []
    failures = []
    for cs, M, unit in plan:
        idc_cfg = IDCConfig(corrections=cs, predictor=cfg.scheme, M=M,
                            residual_mode=cfg.residual_mode or "interpolant")
        ivp = prob.split_ivp(T)
        finals = {}
        for nt in run_nts:
            try:
                final = idc_solve(ivp, nt // unit, idc_cfg, keep="final").final_state
                if not np.isfinite(final).all():
                    failures.append(f"cs={cs} Nt={nt}: non-finite solution")
                    final = None
                finals[nt] = final
            except SolverError as exc:
                finals[nt] = None
                failures.append(f"cs={cs} Nt={nt}: {exc}")
        prev_err = None
        prev_nt = None
        for nt in nts:
            ref = exact if metric == "exact" else finals[nt // 2]
            cur = finals[nt]
            if cur is None or ref is None or not np.isfinite(cur).all():
                err = float("nan")
            else:
                err = float(np.max(np.abs(cur - ref)))
            if prev_err is None or not np.isfinite(err) or not np.isfinite(prev_err) \
                    or err <= 0 or prev_err <= 0:
                order = float("nan")
            else:
                order = float(np.log(prev_err / err) / np.log(nt / prev_nt))
            rows.append((cs, nt, err, order))
            prev_err, prev_nt = err, nt
    report = ConvergenceReport(problem=cfg.problem, scheme=cfg.scheme,
                               metric=metric, rows=tuple(rows))
    csv_path = os.path.join(cfg.out_dir, f"{cfg.name}_convergence.csv")
    _write_csv(csv_path, "correction,Nt,error,order",
               [(str(cs), str(nt), _float_repr(e), _float_repr(o))
                for cs, nt, e, o in rows])
    artifacts = {os.path.basename(csv_path): {"sha256": _sha256(csv_path)}}
    _write_manifest(cfg, cfg.out_dir, t_start, artifacts,
                    extra={"failures": failures, "metric": metric})
    if failures:
        raise SolverError(
            f"{len(failures)} ladder cells failed; see the run manifest "
            f"(rows recorded as nan)")
    return report


def run_stability(cfg):
    """Stability field + unit-contour CSVs for each correction count."""
    t_start = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts = {}
    scans = []
    for cs in cfg.corrections:
        scan = scan_region(StabilityScan(
            scheme=cfg.scheme, corrections=cs, re_range=tuple(cfg.re_range),
            im_range=tuple(cfg.im_range), resolution=tuple(cfg.resolution),
            M=cfg.M, residual_mode=cfg.residual_mode or "oversampled(13)"))
        base = os.path.join(cfg.out_dir, f"{cfg.name}_cs{cs}")
        write_field_csv(base + "_field.csv", scan)
        write_contour_csv(base + "_contour.csv", scan)
        for suffix in ("_field.csv", "_contour.csv"):
            p = base + suffix
            artifacts[os.path.basename(p)] = {"sha256": _sha256(p)}
        scans.append(scan)
    _write_manifest(cfg, cfg.out_dir, t_start, artifacts)
    return scans


def _snapshot_steps(cfg):
    """Map each snapshot's macro-step index round(t/dt) to its time."""
    if not cfg.dt > 0:
        raise UsageError(f"simulation step must be positive, got dt={cfg.dt}")
    steps = {}
    for t_snap in sorted(cfg.snap_times):
        if t_snap < 0:
            raise UsageError(f"snapshot time {t_snap} is negative")
        if cfg.end_time is not None and t_snap > cfg.end_time:
            raise UsageError(f"snapshot time {t_snap} is after end time {cfg.end_time}")
        n = round(t_snap / cfg.dt)
        if abs(n * cfg.dt - t_snap) > 1e-9 * max(1.0, t_snap):
            raise UsageError(f"snapshot time {t_snap} is not a multiple of dt={cfg.dt}")
        if n in steps:
            raise UsageError(f"snapshot times {steps[n]} and {t_snap} fall on one step")
        steps[n] = t_snap
    return steps


def run_simulation(cfg):
    """March a reaction-diffusion run, writing field snapshots at set times.

    dt is the macro step: one pass of ``idc_march`` runs up to the last
    snapshot, and a snapshot at time t is written after step round(t/dt)
    (t = 0 writes the initial field).  Snapshot times must be distinct,
    non-negative multiples of dt no later than end_time.  A simulation runs
    exactly one correction count; more than one raises UsageError.  A
    non-finite field aborts with the offending time and node.  Returns
    per-snapshot (time, min, max) summaries.
    """
    cfg = with_table_defaults(cfg)
    if cfg.dt is None or not cfg.snap_times:
        raise UsageError("simulate runs need dt and snapshot times")
    if len(cfg.corrections) != 1:
        raise UsageError(f"a simulation runs one correction count, "
                         f"got {list(cfg.corrections)}")
    steps = _snapshot_steps(cfg)
    t_start = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    prob = _build_problem(cfg)
    (cs,) = cfg.corrections
    target = STEPPER_ORDERS[cfg.scheme] * (1 + cs)
    M = cfg.M if cfg.M is not None else (1 if cs == 0 else max(target, 3))
    idc_cfg = IDCConfig(corrections=cs, predictor=cfg.scheme, M=M,
                        residual_mode=cfg.residual_mode or "interpolant")
    artifacts = {}
    summaries = []

    def snapshot(t_snap, u):
        path = os.path.join(cfg.out_dir, f"{cfg.name}_t{t_snap:.6g}.csv")
        write_field_snapshot(path, prob.grid, u, names=prob.field_names)
        comp = u if u.ndim == 3 else u[None]
        summaries.append({"time": t_snap,
                          "min": [float(c.min()) for c in comp],
                          "max": [float(c.max()) for c in comp]})
        artifacts[os.path.basename(path)] = {"sha256": _sha256(path),
                                             "min": summaries[-1]["min"],
                                             "max": summaries[-1]["max"]}

    if 0 in steps:
        snapshot(steps[0], prob.initial)
    last = max(steps)
    if last:
        march = idc_march(prob.split_ivp(steps[last]), last, idc_cfg)
        for n, (nodes, level) in enumerate(march, start=1):
            u = level.final_state
            if not np.isfinite(u).all():
                flat_index = int(np.argmin(np.isfinite(u).ravel()))
                node = tuple(int(i) for i in np.unravel_index(flat_index, u.shape))
                raise SolverError(f"non-finite field at t={nodes.t_end} node {node}")
            if n in steps:
                snapshot(steps[n], u)
    _write_manifest(cfg, cfg.out_dir, t_start, artifacts,
                    extra={"snapshots": summaries})
    return summaries
