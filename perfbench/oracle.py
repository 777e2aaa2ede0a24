"""Accuracy oracle: which units of one workload run passed.

A unit is a ladder cell, the simulation, or one stability scan.  It fails if
the harness raised, if its figures are not finite, or if it misses its
accuracy check against the values pinned at the seed in ``reference.json``
(written by ``pin.py``).  Error checks are one-sided: a unit may come out
more accurate than pinned, but not less accurate by more than RTOL plus an
absolute roundoff floor, so a later accuracy fix is not counted as a failure.

Every workload also yields one accuracy figure, ``err_top``, which is
reported next to its time so a faster run that lost accuracy shows.
"""

import csv
import glob
import json
import math
import os
import random

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

RTOL = 0.05              # relative slack on a pinned error
LADDER_ATOL = 1e-12      # roundoff floor of a ladder error
FHN_ATOL = 1e-9          # roundoff plus Newton-tolerance floor of a field value
FHN_STRIDE = 10          # pinned FHN values sit on every 10th node per axis
FHN_PROBES = 64          # probe nodes per run, drawn from the pinned subgrid
SCAN_PROBES = 8          # probe cells per scan checked against scalar solves
SCAN_FLIP_SHARE = 1e-3   # share of scan cells allowed to change stable side
SCAN_AMP_RTOL = 1e-12    # vectorised field versus scalar amplification
SCAN_RADIUS = 1.0        # err_top of a scan: cells with |lambda| <= radius


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cell_key(cell):
    return f"{cell[0]},{cell[1]}"


def read_ladder(out_dir):
    """Errors by (correction, Nt) from the harness's convergence CSV."""
    paths = glob.glob(os.path.join(out_dir, "*_convergence.csv"))
    if len(paths) != 1:
        return {}
    with open(paths[0], encoding="utf-8") as fh:
        return {(int(r["correction"]), int(r["Nt"])): float(r["error"])
                for r in csv.DictReader(fh)}


def check_ladder(errors, cells, scale, pinned=None):
    """(unit, ok, reason) per ladder cell.

    A cell fails without a finite error, with an error not below the
    solution's own scale (no digit is right; this is how a silent blow-up
    shows), or above its pinned error by more than the tolerance.
    """
    verdicts = []
    for cell in cells:
        err = errors.get(cell, math.nan)
        reason = None
        if not math.isfinite(err):
            reason = "no finite error"
        elif err >= scale:
            reason = f"error {err:.3g} not below the solution scale {scale:.3g}"
        elif pinned is not None:
            ref = pinned[cell_key(cell)]
            if err > ref * (1 + RTOL) + LADDER_ATOL:
                reason = f"error {err:.3g} above pinned {ref:.3g}"
        verdicts.append((f"cs={cell[0]} Nt={cell[1]}", reason is None, reason))
    return verdicts


def read_snapshot(out_dir, n):
    """The single field snapshot the simulation wrote, shape (c, n, n)."""
    paths = glob.glob(os.path.join(out_dir, "*_t*.csv"))
    if len(paths) != 1:
        raise ValueError(f"expected one snapshot CSV, found {len(paths)}")
    with open(paths[0], encoding="utf-8") as fh:
        n_fields = len(fh.readline().split(",")) - 2
        # only the field columns: the x,y columns are numpy reprs under numpy 2
        data = np.loadtxt(fh, delimiter=",", usecols=range(2, 2 + n_fields),
                          ndmin=2)
    return data.T.reshape(n_fields, n, n)


def probe_nodes(seed, n_sub):
    return random.Random(seed).sample(range(n_sub * n_sub), FHN_PROBES)


def _ladder(spec, ref, out_dir):
    cells = [(cs, nt) for cs in spec["corrections"] for nt in spec["nt_list"]]
    errors = read_ladder(out_dir)
    top_cell = tuple(int(v) for v in ref["err_top_cell"].split(","))
    return (check_ladder(errors, cells, ref["scale"], ref["cells"]),
            errors.get(top_cell, math.nan))


def _simulation(spec, ref, out_dir, seed):
    field = read_snapshot(out_dir, spec["grid_n"])
    if not np.isfinite(field).all():
        return [("simulation", False, "non-finite field")], math.nan
    sub = field[:, ::FHN_STRIDE, ::FHN_STRIDE]
    pinned = np.asarray(ref["seed_values"])
    exact = np.asarray(ref["ref_values"])
    err = np.abs(sub - exact)
    allowed = np.abs(pinned - exact) * (1 + RTOL) + FHN_ATOL
    n_sub = sub.shape[-1]
    reasons = []
    for node in probe_nodes(seed, n_sub):
        j, i = divmod(node, n_sub)
        if (err[:, j, i] > allowed[:, j, i]).any():
            reasons.append(f"probe node ({j * FHN_STRIDE}, {i * FHN_STRIDE}) "
                           f"error {err[:, j, i].max():.3g}")
    slack = RTOL * ref["err_top"] + FHN_ATOL
    for c in range(field.shape[0]):
        for kind, value in (("min", field[c].min()), ("max", field[c].max())):
            if abs(value - ref["extrema"][kind][c]) > slack:
                reasons.append(f"component {c} {kind} {value!r} moved from "
                               f"{ref['extrema'][kind][c]!r}")
    ok = not reasons
    return [("simulation", ok, "; ".join(reasons) or None)], float(err.max())


def scan_err_top(scan):
    """Max | |amp| - |exp(lambda)| | over cells with |lambda| <= SCAN_RADIUS."""
    re, im = scan.axes()
    lam = re[:, None] + 1j * im[None, :]
    near = np.abs(lam) <= SCAN_RADIUS
    return float(np.max(np.abs(scan.amp[near] - np.exp(lam.real[near]))))


def _stability(spec, ref, scans, seed):
    from idcos.stability import amplification
    if scans is None:
        return [(f"scan cs={cs}", False, "harness raised")
                for cs in spec["corrections"]], math.nan
    rng = random.Random(seed)
    verdicts = []
    for scan in scans:
        reasons = []
        stable = int(np.count_nonzero(scan.amp <= 1.0))
        pinned = ref["stable_cells"][str(scan.corrections)]
        if abs(stable - pinned) > SCAN_FLIP_SHARE * scan.amp.size:
            reasons.append(f"{stable} stable cells, pinned {pinned}")
        re, im = scan.axes()
        finite = np.argwhere(np.isfinite(scan.amp))
        for k in rng.sample(range(len(finite)), SCAN_PROBES):
            i, j = finite[k]
            lam = complex(re[i], im[j])
            scalar = abs(amplification(lam, scan.scheme, scan.corrections,
                                       M=scan.M, residual_mode=scan.residual_mode))
            if abs(scan.amp[i, j] - scalar) > SCAN_AMP_RTOL * max(1.0, scalar):
                reasons.append(f"cell {lam} field {scan.amp[i, j]!r} "
                               f"scalar {scalar!r}")
        verdicts.append((f"scan cs={scan.corrections}", not reasons,
                         "; ".join(reasons) or None))
    top = max(scans, key=lambda s: s.corrections)
    return verdicts, scan_err_top(top)


def evaluate(name, spec, out_dir, result, raised, seed, reference):
    """Verdicts per unit and the accuracy figure err_top of one run."""
    ref = reference[name]
    if spec["experiment"] == "convergence":
        return _ladder(spec, ref, out_dir)
    if spec["experiment"] == "simulate":
        if raised:
            return [("simulation", False, "harness raised")], math.nan
        return _simulation(spec, ref, out_dir, seed)
    return _stability(spec, ref, result, seed)
