"""Steadiness of the benchmark: run every workload ten times and compare
the spread of each end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steady.py [--seed0 0]

Runs bench/run.py with the run length of BENCHMARK.json once per seed
(seed0 .. seed0+9), one run at a time, and prints for each workload and
metric the median, the quartiles (statistics.quantiles with n=4), the
spread (Q3 - Q1) / median, the bound and whether the spread is within it,
plus the share of failed operations. It then makes two traced runs on seed0
per workload and reports whether every count repeated exactly and the
tracing overhead. It exits 1 if a spread exceeds its bound or a count
differs. The whole report is saved to .bench_results/steady_<seed0>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed0", type=int, default=0)
    seed0 = p.parse_args(argv).seed0
    seconds = bench["run_seconds"]

    report = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        lines = [run(workload, seed0 + i, seconds, 0) for i in range(RUNS)]
        rows = {}
        print(f"\n{workload}: {RUNS} runs, seeds {seed0}.."
              f"{seed0 + RUNS - 1}, {seconds} s each")
        print(f"  {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
              f" {'spread':>7s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            values = [line["metrics"][m["name"]]["value"] for line in lines]
            med, q1, q3, sp = spread(values)
            ok = sp <= m["bound"]
            steady &= ok
            rows[m["name"]] = {"values": values, "median": med, "q1": q1,
                               "q3": q3, "spread": sp, "bound": m["bound"]}
            print(f"  {m['name']:14s} {med:10.4f} {q1:10.4f} {q3:10.4f}"
                  f" {sp:7.3f} {m['bound']:6.2f}"
                  f"{'' if ok else '  SPREAD ABOVE BOUND'}")
        shares = {line["failed"] / line["attempted"] for line in lines}
        print(f"  failed share per run: {sorted(shares)};"
              f" all correct: {all(line['correct'] for line in lines)}")

        a, b = (run(workload, seed0, seconds, 1) for _ in range(2))
        counts = [k for k, v in a["metrics"].items()
                  if v["unit"] in ("count", "bytes")]
        differ = [k for k in counts
                  if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        overhead = [x["metrics"]["trace.overhead_s"]["value"] for x in (a, b)]
        print(f"  traced pair: {len(counts)} counts,"
              f" differing {differ or 'none'};"
              f" overhead {overhead[0]:.3f} s, {overhead[1]:.3f} s")
        steady &= not differ
        report[workload] = {
            "end_to_end": rows, "failed_shares": sorted(shares),
            "traced_pair": {"differing_counts": differ,
                            "overhead_s": overhead,
                            "per_layer": a["metrics"]}}
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_results", f"steady_{seed0}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
