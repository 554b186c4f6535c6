"""The scripts under tools/ run from a checkout and print what they say."""

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
    assert header.split() == ["pass", "step", "rss_mb", "maxrss_mb"]
    rows = [line.split() for line in lines]
    assert [(n, step) for n, step, _, _ in rows] == (
        [("0", "import")] + [("1", step) for step in STEPS])
    rss = [float(now) for _, _, now, _ in rows]
    peak = [float(most) for _, _, _, most in rows]
    assert min(rss) > 0
    assert peak == sorted(peak)
