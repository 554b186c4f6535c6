"""Resident memory after each step of the benchmark's pipeline pass.

    python tools/rss.py --workload NAME [--seed N] [--passes N]

Runs bench/run.py's run_pass as it is, on seed N (default 0), with its
pipeline's stages (setup, load, fit, model_io, evaluate), infer_proportions
and the checks it calls (corpus_roundtrip, cell_totals, run_all,
perplexity_gap_closed) wrapped so that each prints, when it returns, the
process's resident set now (/proc/self/statm), its peak so far (ru_maxrss
of RUSAGE_SELF) and the largest peak of its ended child processes so far
(RUSAGE_CHILDREN: a fit's loss evaluation process, whose peak counts the
pages it shares copy-on-write with its parent), in MB as the benchmark's
peak_rss_mb counts them (2**20 bytes), after a title line naming the
workload and seed. The peak after a step is what peak_rss_mb, which reads
RUSAGE_SELF only, would read had the run ended there, so the step at which
it climbs is the step that sets it. bench/run.py and bench/checks.py
are imported by path; nothing under bench/ changes. Linux only (statm).
"""

import argparse
import importlib.util
import os
import resource
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rss_mb():
    """Resident set now, from /proc/self/statm's second field (pages)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def maxrss_mb(who=resource.RUSAGE_SELF):
    """Peak resident set so far; Linux gives ru_maxrss in KiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def after(fn, step):
    """fn, followed by step(fn's name) each time it returns."""
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        step(fn.__name__)
        return out
    return wrapped


def main(argv=None):
    run = bench_module("run")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=1)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    lt = run.import_package()
    checks = bench_module("checks")
    n = 0

    def step(name):
        print(f"{n:>4}  {name:<22} {rss_mb():>8.1f} {maxrss_mb():>10.1f}"
              f" {maxrss_mb(resource.RUSAGE_CHILDREN):>19.1f}", flush=True)

    print(f"workload {args.workload}, seed {args.seed}")
    print(f"{'pass':>4}  {'step':<22} {'rss_mb':>8} {'maxrss_mb':>10}"
          f" {'children_maxrss_mb':>19}")
    step("import")
    # run_all looks cell_totals up in checks' globals, so it prints there too
    for module, name in [(lt, "infer_proportions"),
                         (checks, "corpus_roundtrip"), (checks, "cell_totals"),
                         (checks, "run_all"), (checks, "perplexity_gap_closed")]:
        setattr(module, name, after(getattr(module, name), step))
    failed = []
    with tempfile.TemporaryDirectory() as work:
        pipe = run.Pipeline(lt, args.workload, args.seed, work)
        for name in ("setup", "load", "fit", "model_io", "evaluate"):
            setattr(pipe, name, after(getattr(pipe, name), step))
        for n in range(1, args.passes + 1):
            results = run.run_pass(pipe, checks)[2]
            failed += [(name, detail) for name, ok, detail in results
                       if not ok]
    for name, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
