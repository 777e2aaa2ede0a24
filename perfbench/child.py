"""One measured process: set up, run one harness call, check it, report JSON.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR

MODE is ``setup`` (import idcos and build the problem only), ``e2e`` (one
untraced harness call) or ``trace`` (one harness call with the layer
wrappers of spans.py installed).  The last stdout line is a JSON object.
"""

import json
import os
import resource
import sys
import time
import traceback

import workloads


def versions():
    """Library versions and the BLAS thread settings this process sees."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def calibration_s():
    """Time of a fixed numpy kernel, the yardstick for this machine's speed.

    The kernel mixes the kinds of work the workloads do: a Python loop over
    small-array arithmetic (like the ladders' 60x60 line operators), streaming
    arithmetic on an FHN-sized field, and batched 2x2 solves.  It does not
    touch idcos, so no change to the package moves it; it changes only with
    the machine's momentary speed, which on a shared host drifts by up to 2x.
    Never edit it: the benchmark's wall_s and setup_s are scaled by it.
    """
    import numpy as np
    t = time.perf_counter()
    small = np.linspace(0.0, 1.0, 3600).reshape(60, 60)
    acc = 0.0
    for i in range(12000):
        b = small * 1.0001 + 0.5
        acc += float(b[i % 60, i % 60])
    big = np.linspace(0.0, 1.0, 80000).reshape(2, 200, 200)
    for _ in range(60):
        big = big * 0.999 + 0.001 * big * big
    A = np.empty((40000, 2, 2))
    A[:] = [[2.0, 0.5], [0.25, 3.0]]
    rhs = np.ones((40000, 2, 1))
    for _ in range(6):
        np.linalg.solve(A, rhs)
    return time.perf_counter() - t


def main(mode, name, seed, out_dir):
    t0 = time.perf_counter()
    workloads.setup(name)
    out = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        return out

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    cfg = workloads.run_config(name, out_dir)
    result, raised = None, None
    cal_before = calibration_s()
    t1 = time.perf_counter()
    try:
        result = workloads.call(cfg)
    except Exception as exc:  # a raising unit is a failed unit, not a crash
        raised = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    out["wall_s"] = time.perf_counter() - t1
    out["cal_s"] = 0.5 * (cal_before + calibration_s())
    if tracer is not None:
        tracer.active = False
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle
    try:
        units, err_top = oracle.evaluate(name, workloads.WORKLOADS[name], out_dir,
                                         result, raised, seed,
                                         oracle.load_reference())
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        units, err_top = [("oracle", False, f"{type(exc).__name__}: {exc}")], None
    out.update(units=units, err_top=err_top, raised=raised, versions=versions())
    if tracer is not None:
        import spans
        out["layers"] = spans.layer_metrics(tracer)
        out["spans"] = tracer.aggregate()
        out["missing_wrappers"] = tracer.missing
    return out


if __name__ == "__main__":
    mode, name, seed, out_dir = sys.argv[1:5]
    report = main(mode, name, int(seed), out_dir)
    print(json.dumps(report, default=float))
