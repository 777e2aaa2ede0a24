"""Benchmark runner: one workload, one seed, fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source checkout.  Every measurement happens in a
fresh single-threaded child process (``child.py``) with
OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1 and PYTHONHASHSEED=0 set in the
child's environment only; each child writes its artifacts into its own directory under
``.perfbench_tmp/``, which is deleted afterwards.  Timing uses perf_counter
and getrusage of the benchmark's own processes and changes no system
setting.

--trace 0  a warm-up child, then untraced harness calls until S seconds
           of children have run (at least two); reports the end-to-end
           metrics as medians over the calls (setup_s: each child's own
           import and problem build).  wall_s and setup_s are scaled to
           reference seconds by a fixed calibration kernel run just before
           and after the call in the same child (see REF_CAL_S); the raw
           seconds are printed and recorded beside them.
--trace 1  one untraced call, then traced calls until S seconds have run;
           reports the per-layer metrics, checks that counts repeat exactly
           between traced calls and that the zero/nonzero layer pattern holds.

The last stdout line is the result JSON; the lines above it are a readable
table and the run's provenance.  --record appends the full record (raw
samples, span table, provenance) to FILE as one JSON line, for report.py.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 165.0       # whole run, inside the 180 s limit
MIN_CALLS = 2
# wall_s and setup_s are given in reference seconds: raw seconds scaled by
# REF_CAL_S over the calibration kernel's time in the same child, i.e. the
# time on a machine that runs the kernel in REF_CAL_S seconds
REF_CAL_S = 0.1
# one BLAS thread; a fixed hash seed, because set and dict order under hash
# randomisation moves the peak RSS of the sparse-LU workload by about 20%
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class ChildFailed(RuntimeError):
    pass


class Run:
    """Children of one benchmark run, sharing a temporary directory."""

    def __init__(self, workload, seed, tmp_root):
        self.workload = workload
        self.seed = seed
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
        self.t_start = time.perf_counter()
        self.env = dict(os.environ, **CHILD_ENV)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def elapsed(self):
        return time.perf_counter() - self.t_start

    def child(self, mode):
        out_dir = tempfile.mkdtemp(prefix=mode + "-", dir=self.tmp)
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("run deadline reached")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), mode,
                 self.workload, str(self.seed), out_dir],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from exc
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} child exited with {proc.returncode}")
        return json.loads(lines[-1])

    def calls(self, mode, seconds, minimum):
        """Children in mode until seconds of them have run (at least minimum)."""
        samples = []
        t0 = time.perf_counter()
        while len(samples) < minimum or time.perf_counter() - t0 < seconds:
            if samples and self.elapsed() + samples[-1]["wall_s"] * 1.2 > DEADLINE_S:
                break
            samples.append(self.child(mode))
        return samples

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def unit_counts(samples):
    units = [u for s in samples for u in s["units"]]
    failed = [u for u in units if not u[1]]
    for unit, _, reason in failed:
        print(f"FAILED unit {unit}: {reason}", file=sys.stderr)
    return len(units), len(failed)


def finite_or_max(x):
    # JSON has no NaN; a unit whose error is missing already fails the run
    return x if x is not None and math.isfinite(x) else sys.float_info.max


def end_to_end(run, seconds, specs):
    run.child("setup")  # warm-up: byte-compiles and fills the file cache
    samples = run.calls("e2e", seconds, MIN_CALLS)
    series = {
        "wall_s": [s["wall_s"] * REF_CAL_S / s["cal_s"] for s in samples],
        "setup_s": [s["setup_s"] * REF_CAL_S / s["cal_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "err_top": [finite_or_max(s["err_top"]) for s in samples],
        "raw_wall_s": [s["wall_s"] for s in samples],
        "raw_setup_s": [s["setup_s"] for s in samples],
    }
    missing = {m["name"] for m in specs} - set(series)
    if missing:
        raise ChildFailed(f"no measurement for metrics {sorted(missing)}")
    attempted, failed = unit_counts(samples)
    units = {"raw_wall_s": "s", "raw_setup_s": "s",
             **{m["name"]: m["unit"] for m in specs}}
    print(f"{'metric':<14}{'median':>14}  unit   n   q1 .. q3")
    for name, vals in series.items():
        q1, q3 = quartiles(vals)
        print(f"{name:<14}{statistics.median(vals):>14.6g}  "
              f"{units[name]:<5}{len(vals):>3}   {q1:.6g} .. {q3:.6g}")
    print(f"{'fail_frac':<14}{failed / attempted:>14.6g}  "
          f"{'1':<5}{attempted:>3}   ({failed} of {attempted} units failed)")
    metrics = {m["name"]: {"value": statistics.median(series[m["name"]]),
                           "unit": m["unit"]} for m in specs}
    return samples, series, metrics, attempted, failed, []


def per_layer(run, seconds, specs):
    import spans
    base = run.child("e2e")
    traced = run.calls("trace", seconds - base["wall_s"], 1)
    problems = []
    counts = {k: v for k, v in traced[0]["layers"].items() if not k.endswith("_s")}
    for other in traced[1:]:
        again = {k: v for k, v in other["layers"].items() if not k.endswith("_s")}
        if again != counts:
            problems.append("layer counts differ between traced calls: " + ", ".join(
                k for k in counts if again.get(k) != counts[k]))
    layers = dict(counts)
    layers.update({k: statistics.median(s["layers"][k] for s in traced)
                   for k in traced[0]["layers"] if k not in counts})
    layers["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                  - base["wall_s"])
    names = [m["name"] for m in specs]
    if set(names) != set(layers):
        problems.append("traced metrics do not match BENCHMARK.json: "
                        f"{sorted(set(names) ^ set(layers))}")
    problems += spans.pattern_breaks(run.workload, layers)
    if traced[0]["missing_wrappers"]:
        print("wrappers not installed (target missing): "
              + ", ".join(traced[0]["missing_wrappers"]), file=sys.stderr)
    for m in specs:
        print(f"{m['name']:<30}{layers.get(m['name'], float('nan')):>16.6g}  {m['unit']}")
    print(f"traced calls: {len(traced)}, untraced wall_s {base['wall_s']:.4f}")
    samples = [base] + traced
    attempted, failed = unit_counts(samples)
    metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
               for m in specs}
    return samples, layers, metrics, attempted, failed, problems


def provenance(seed, sample):
    def git(*args):
        try:
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30,
                                  env=dict(os.environ, GIT_OPTIONAL_LOCKS="0")
                                  ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    is_git = os.path.exists(os.path.join(ROOT, ".git"))
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_revision": git("rev-parse", "HEAD") if is_git else None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))
        if is_git else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        **sample.get("versions", {}),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full run record to this file")
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "idcos")) or \
            not os.path.isfile(bench_path):
        print("perfbench: run from a source checkout with src/idcos and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run = Run(args.workload, args.seed, tmp_root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    try:
        if args.trace:
            samples, series, metrics, attempted, failed, problems = per_layer(
                run, args.seconds, bench["per_layer"])
        else:
            samples, series, metrics, attempted, failed, problems = end_to_end(
                run, args.seconds, bench["end_to_end"])
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it

    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
    prov = provenance(args.seed, samples[0])
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result,
                                 "series": series, "provenance": prov,
                                 "samples": samples}) + "\n")
    print(json.dumps(result))
    return 3 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
