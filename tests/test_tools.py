"""The scripts under tools/ run from a checkout and print what they say."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS = ["setup", "load", "corpus_roundtrip", "fit", "model_io", "evaluate",
         "infer_proportions", "infer_proportions", "cell_totals", "run_all",
         "perplexity_gap_closed"]


def test_rss_prints_each_step_of_a_benchmark_pass():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss.py"),
         "--workload", "c5-linf", "--seed", "3"],
        capture_output=True, text=True, check=True, timeout=600).stdout
    title, header, *lines = out.splitlines()
    assert title == "workload c5-linf, seed 3"
    assert header.split() == ["pass", "step", "rss_mb", "maxrss_mb",
                              "children_maxrss_mb"]
    rows = [line.split() for line in lines]
    assert [(n, step) for n, step, *_ in rows] == (
        [("0", "import")] + [("1", step) for step in STEPS])
    rss, peak, children = ([float(row[i]) for row in rows] for i in (2, 3, 4))
    assert min(rss) > 0
    assert peak == sorted(peak)
    assert children == sorted(children)
    # the fit's loss evaluation process, when it forks one, has ended
    at_fit = STEPS.index("fit") + 1
    assert (children[at_fit] > children[at_fit - 1]
            or len(os.sched_getaffinity(0)) < 2)
