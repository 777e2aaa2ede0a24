"""Pin the accuracy oracle's reference values: writes perfbench/reference.json.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/pin.py

Runs each workload once through the harness at the current commit, plus the
fhn-sim run at dt/4 that serves as its reference solution.  The file in the
repository was pinned at the commit that introduced the benchmark; re-pin
only when a workload's inputs change, never to make a failing check pass.
"""

import json
import os
import sys
import tempfile

import numpy as np

import oracle
import workloads

ROUNDOFF = 1e-12  # err_top rungs must sit above this to measure the scheme


def pin_ladder(name, spec, out_dir):
    workloads.call(workloads.run_config(name, out_dir))
    errors = oracle.read_ladder(out_dir)
    top_cs = max(spec["corrections"])
    top_nt = max(nt for cs, nt in errors if cs == top_cs and errors[cs, nt] > ROUNDOFF)
    from idcos.problems import PROBLEM_BUILDERS
    initial = PROBLEM_BUILDERS[spec["problem"]](N=spec["grid_n"]).initial
    return {"cells": {oracle.cell_key(c): e for c, e in sorted(errors.items())},
            "err_top_cell": oracle.cell_key((top_cs, top_nt)),
            "scale": float(np.abs(initial).max())}


def pin_simulation(name, spec, out_dir):
    fields = []
    for dt in (spec["dt"], spec["dt"] / 4):
        run_dir = tempfile.mkdtemp(dir=out_dir)
        workloads.call(workloads.run_config(name, run_dir, dt=dt))
        fields.append(oracle.read_snapshot(run_dir, spec["grid_n"]))
    field, reference = fields
    s = oracle.FHN_STRIDE
    seed_values, ref_values = field[:, ::s, ::s], reference[:, ::s, ::s]
    return {"seed_values": seed_values.tolist(), "ref_values": ref_values.tolist(),
            "err_top": float(np.abs(seed_values - ref_values).max()),
            "extrema": {"min": field.min(axis=(1, 2)).tolist(),
                        "max": field.max(axis=(1, 2)).tolist()}}


def pin_stability(name, spec, out_dir):
    scans = workloads.call(workloads.run_config(name, out_dir))
    top = max(scans, key=lambda s: s.corrections)
    return {"stable_cells": {str(s.corrections): int(np.count_nonzero(s.amp <= 1.0))
                             for s in scans},
            "err_top": oracle.scan_err_top(top)}


def main():
    pinners = {"convergence": pin_ladder, "simulate": pin_simulation,
               "stability": pin_stability}
    reference = {}
    tmp_root = os.path.join(os.path.dirname(os.path.dirname(oracle.REFERENCE_PATH)),
                            ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for name, spec in workloads.WORKLOADS.items():
            out_dir = tempfile.mkdtemp(dir=tmp)
            reference[name] = pinners[spec["experiment"]](name, spec, out_dir)
            print(name, "pinned", file=sys.stderr)
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
