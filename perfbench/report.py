"""Run seed sweeps and read run records.

    python3 perfbench/report.py sweep --seeds 1-10 [--workloads a,b] [--trace 1]
                                      [--record FILE]
    python3 perfbench/report.py spread FILE
    python3 perfbench/report.py compare BASE_FILE NEW_FILE

A record file holds one JSON line per run, as written by ``run.py --record``.

sweep    runs run.py once per workload and seed (sequentially) and appends
         to FILE (default .perfbench_records/<time>.jsonl), then prints the
         spread table.
spread   per workload and end-to-end metric: median, quartiles and the
         spread (q3 - q1) / median over the runs, against the bound; per
         workload, whether every traced count repeated exactly.
compare  per workload and metric: each side's median and quartiles, the
         ratio new / base, and the share of seed-matched pairs the new side
         wins.  An end-to-end metric worse than its bound is flagged WORSE;
         where either side's spread exceeds the bound it is UNRESOLVED,
         unless every new run is better than every base run.
"""

import argparse
from collections import defaultdict
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_metric(records, trace):
    """{(workload, metric): {seed: value}} over the records of one mode."""
    table = defaultdict(dict)
    for rec in records:
        if rec["trace"] == trace:
            for name, m in rec["result"]["metrics"].items():
                table[rec["workload"], name][rec["seed"]] = m["value"]
    return table


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spread(path):
    bench = load_bench()
    records = load_records(path)
    table = by_metric(records, 0)
    ok = True
    print(f"{'workload':<20}{'metric':<13}{'n':>3}{'median':>13}{'q1':>13}"
          f"{'q3':>13}{'spread':>9}{'bound':>7}")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            values = list(table.get((w["name"], m["name"]), {}).values())
            if not values:
                continue
            med, q1, q3, sp = summary(values)
            flag = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                flag, ok = "OVER BOUND", False
            elif sp > m["bound"] / 3:
                flag = "above bound/3"
            print(f"{w['name']:<20}{m['name']:<13}{len(values):>3}{med:>13.6g}"
                  f"{q1:>13.6g}{q3:>13.6g}{sp:>9.4f}{m['bound']:>7.2f}  {flag}")
    failed = [(r["workload"], r["seed"], r["trace"]) for r in records
              if not r["result"]["correct"]]
    if failed:
        ok = False
        print(f"runs not correct: {failed}")
    traced = by_metric(records, 1)
    for w in bench["workloads"]:
        counts = {k[1]: set(v.values()) for k, v in traced.items()
                  if k[0] == w["name"] and not k[1].endswith("_s")}
        if counts:
            varied = sorted(k for k, v in counts.items() if len(v) > 1)
            n = len(traced[w["name"], "trace.spans"])
            print(f"{w['name']}: {n} traced runs, counts "
                  + ("repeat exactly" if not varied else f"VARY: {varied}"))
            ok = ok and not varied
    return 0 if ok else 1


def compare(base_path, new_path):
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    base_recs, new_recs = load_records(base_path), load_records(new_path)
    print(f"{'workload':<20}{'metric':<30}{'base med [q1, q3]':>36}"
          f"{'new med [q1, q3]':>36}{'new/base':>10}{'wins':>7}  verdict")
    for trace in (0, 1):
        base, new = by_metric(base_recs, trace), by_metric(new_recs, trace)
        for key in sorted(set(base) & set(new)):
            workload, name = key
            b, n = base[key], new[key]
            bm, bq1, bq3, bsp = summary(list(b.values()))
            nm, nq1, nq3, nsp = summary(list(n.values()))
            sign = 1 if better.get(name, "lower") == "lower" else -1
            pairs = [s for s in b if s in n and n[s] != b[s]]
            wins = sum(sign * (n[s] - b[s]) < 0 for s in pairs)
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                all_better = all(sign * (x - y) < 0 for x in n.values() for y in b.values())
                if max(bsp, nsp) > bound and not all_better:
                    verdict = "UNRESOLVED"
                elif sign * (nm - bm) > bound * abs(bm):
                    verdict = "WORSE"
                else:
                    verdict = "ok"
            ratio = nm / bm if bm else float("nan")
            print(f"{workload:<20}{name:<30}"
                  f"{f'{bm:.5g} [{bq1:.5g}, {bq3:.5g}]':>36}"
                  f"{f'{nm:.5g} [{nq1:.5g}, {nq3:.5g}]':>36}"
                  f"{ratio:>10.4f}{f'{wins}/{len(pairs)}':>7}  {verdict}")
    return 0


def sweep(seeds, workloads, trace, record):
    bench = load_bench()
    names = workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(os.path.abspath(record)), exist_ok=True)
    for name in names:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace), "--record", record]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0][:100]}",
                  flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
    print(f"records: {record}")
    return spread(record)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--workloads", type=lambda s: s.split(","))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=os.path.join(
        ROOT, ".perfbench_records", time.strftime("%Y%m%d-%H%M%S") + ".jsonl"))
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "sweep":
        return sweep(args.seeds, args.workloads, args.trace, args.record)
    if args.cmd == "spread":
        return spread(args.file)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
