"""Benchmark of longtopic's simulate -> fit -> eval pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. One pass drives the public functions
in the order `longtopic pipeline` and the stagewise commands use them:
simulate -> save_corpus/save_truth -> load_corpus/load_truth -> fit on the
loaded corpus -> save_model/load_model -> full_report with the loaded model.
Passes repeat until --seconds have gone by (at least one). After each pass
the correctness checks in checks.py run outside the timed stages; every
check is one attempted operation.

--trace 0 prints the end-to-end metrics: medians over the passes, with
set-up, fit and eval repeated after the passes, in turn, until each has
enough samples (MIN_SAMPLES, SAMPLE_SECONDS), plus the fit's quality.
--trace 1 runs one untraced pass, then traced ones until --seconds have
gone by (at least one), and prints per-layer metrics; it checks that
tracing changed no quality value and, when it made two traced passes,
that every count repeated.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. A results file with an environment block goes to
.bench_results/ under the checkout.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread and one process: the fit's matrices are small (two
# threads gave the same c5-linf fit time), and one thread leaves the other
# vCPU of a 2-vCPU machine to everything else.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    # criterion 5 of tests/test_acceptance.py
    "c5-linf": (
        dict(n_subjects=1000, n_stages=3, vocab_size=200, n_topics=3,
             prior_kind="nonlinear"),
        dict(n_topics=3, dist_kind="linf", dist_weight=2.0, t_max=30,
             eps_stop=0.0, optimizer="adam", learning_rate=0.01,
             tie_encoder_init=True)),
    # criterion 6, the info_radius arm, with 12 of its 40 epochs
    "c6-info-radius": (
        dict(n_subjects=1000, n_stages=5, vocab_size=200, n_topics=5,
             n_groups=4, group_effect=False, prior_kind="nonlinear"),
        dict(n_topics=5, dist_kind="info_radius", dist_weight=8.0, t_max=12,
             eps_stop=0.0, optimizer="adam", learning_rate=0.01,
             tie_encoder_init=True)),
    # K=8 is the largest K align_topics accepts
    "corpus-scale": (
        dict(n_subjects=5000, n_stages=3, vocab_size=1000, n_topics=8),
        dict(n_topics=8, dist_kind="none", dist_weight=0.0, t_max=1,
             eps_stop=0.0, optimizer="adam", learning_rate=0.01,
             dynamic_topics_var=0.1)),
}

STAGES = ("setup_s", "load_s", "fit_s", "model_io_s", "eval_s")
# Repeated stages take samples until they have at least MIN_SAMPLES and
# SAMPLE_SECONDS of them, at most MAX_SAMPLES.
MIN_SAMPLES = {"setup_s": 3, "fit_s": 3, "eval_s": 3}
SAMPLE_SECONDS = {"setup_s": 3.0, "fit_s": 0.0, "eval_s": 1.0}
MAX_SAMPLES = 7

QUALITY = ("kl_topics", "dominant_acc", "group_acc", "perplexity")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import longtopic from the checkout's src/; exit 1 when it is not
    there rather than fall back to another copy."""
    if not os.path.isfile(os.path.join(SRC, "longtopic", "__init__.py")):
        sys.exit(f"error: no longtopic package under {SRC}")
    sys.path.insert(0, SRC)
    import longtopic
    if os.path.dirname(os.path.dirname(longtopic.__file__)) != SRC:
        sys.exit(f"error: imported longtopic from {longtopic.__file__}")
    return longtopic


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "processes": 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


class Pipeline:
    """One workload's stages, each calling the package's public functions."""

    def __init__(self, lt, name, seed, work):
        sim_kw, train_kw = WORKLOADS[name]
        self.lt = lt
        self.sim_cfg = lt.SimConfig(seed=seed, **sim_kw)
        self.train_cfg = lt.TrainConfig(seed=seed, **train_kw)
        self.corpus_dir = os.path.join(work, "corpus")
        self.truth_path = os.path.join(work, "truth.json")
        self.model_path = os.path.join(work, "model.json")

    def setup(self):
        corpus, truth = self.lt.simulate(self.sim_cfg)
        self.lt.save_corpus(corpus, self.corpus_dir)
        self.lt.save_truth(truth, self.truth_path)
        return corpus

    def load(self):
        return (self.lt.load_corpus(self.corpus_dir),
                self.lt.load_truth(self.truth_path))

    def fit(self, corpus):
        cfg = self.train_cfg
        if cfg.dynamic_topics_var is not None:
            return self.lt.fit_dynamic_topics(corpus, cfg)
        gen, enc = self.lt.default_init(corpus, cfg)
        return self.lt.train(corpus, gen, enc, cfg)

    def model_io(self, fitted):
        self.lt.save_model(fitted, self.model_path)
        return self.lt.load_model(self.model_path)

    def evaluate(self, model, corpus, truth):
        return self.lt.full_report(model, corpus, truth)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def run_pass(pipe, checks, tracer=None):
    """One full pass: (stage seconds, quality, check results, (corpus,
    truth, model) for the repeats). A tracer, when given, is on during the
    stages only, never during the checks."""
    t = {}

    def stage(key, fn, *args):
        if tracer is not None:
            tracer.on = True
        try:
            out, t[key] = timed(fn, *args)
        finally:
            if tracer is not None:
                tracer.on = False
        return out

    sim_corpus = stage("setup_s", pipe.setup)
    corpus, truth = stage("load_s", pipe.load)
    results = [("corpus_roundtrip",
                *checks.corpus_roundtrip(sim_corpus, corpus))]
    del sim_corpus
    fitted = stage("fit_s", pipe.fit, corpus)
    model = stage("model_io_s", pipe.model_io, fitted)
    report = stage("eval_s", pipe.evaluate, model, corpus, truth)

    infer = pipe.lt.infer_proportions
    results += checks.run_all(
        corpus=corpus, count_range=pipe.sim_cfg.count_range, fitted=fitted,
        model=model, theta_fitted=infer(fitted, corpus),
        theta_hat=infer(model, corpus), report=report, truth=truth)
    quality = {k: getattr(report, k) for k in QUALITY}
    quality["perplexity_gap_closed"] = checks.perplexity_gap_closed(
        report.perplexity, pipe.lt.perplexity(truth.beta_true,
                                              truth.theta_true, corpus),
        corpus.vocab_size)
    return t, quality, results, (corpus, truth, model)


def repeat_stages(pipe, samples, last):
    """More set-up, fit and eval samples after the passes, so that their
    medians are not single readings. The stages take turns, so that the
    samples of each spread over the rest of the run. Fit and eval repeat on
    the last pass's corpus and model, as the pass left them."""
    corpus, truth, model = last

    def wanted(key):
        got = samples[key]
        return len(got) < MAX_SAMPLES and (
            len(got) < MIN_SAMPLES[key] or sum(got) < SAMPLE_SECONDS[key])

    while any(wanted(key) for key in MIN_SAMPLES):
        if wanted("setup_s"):
            samples["setup_s"].append(timed(pipe.setup)[1])
        if wanted("fit_s"):
            samples["fit_s"].append(timed(pipe.fit, corpus)[1])
        if wanted("eval_s"):
            samples["eval_s"].append(
                timed(pipe.evaluate, model, corpus, truth)[1])


def run_untraced(pipe, checks, seconds, import_s):
    samples = {k: [] for k in STAGES}
    results, passes = [], []
    last = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        last = None  # free the previous pass before the next one
        t, quality, res, last = run_pass(pipe, checks)
        for k, v in t.items():
            samples[k].append(v)
        passes.append({"stages": t, "quality": quality})
        results += res
    repeat_stages(pipe, samples, last)
    del last
    med = {k: statistics.median(v) for k, v in samples.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (import_s + med["setup_s"], "s"),
        "fit_s": (med["fit_s"], "s"),
        "eval_s": (med["eval_s"], "s"),
        "total_s": (import_s + sum(med.values()), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "perplexity_gap_closed":
            (passes[0]["quality"]["perplexity_gap_closed"], "fraction"),
    }
    extra = {"import_s": import_s, "stage_medians": med, "samples": samples,
             "passes": passes}
    return metrics, results, extra


def layer_metrics(summary, counts):
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    def total(span):
        return summary.get(span, (0.0, 0.0, 0))[0]

    def self_time(span):
        return summary.get(span, (0.0, 0.0, 0))[1]

    def calls(span):
        return summary.get(span, (0.0, 0.0, 0))[2]

    n, b = "count", "bytes"
    times = {
        "simulate.sample_documents_self_s":
            self_time("simulate.sample_documents"),
        "corpus.save_s": total("corpus.save"),
        "corpus.build_s": total("corpus.build"),
        "corpus.load_parse_self_s": self_time("corpus.load"),
        "corpus.dense_counts_s": total("corpus.dense_counts"),
        "loss.arrays_s": total("loss.arrays"),
        "loss.train_s": total("loss.train"),
        "loss.train_self_s": self_time("loss.train"),
        "loss.eval_s": total("loss.eval"),
        "loss.eval_self_s": self_time("loss.eval"),
        "networks.encoder_forward_s": total("networks.encoder_forward"),
        "networks.encoder_backward_s": total("networks.encoder_backward"),
        "model.transition_forward_s": total("model.transition_forward"),
        "model.transition_backward_s": total("model.transition_backward"),
        "terms.distance_s": total("terms.distance"),
        "trainer.optimizer_step_s": total("trainer.optimizer_step"),
        "trainer.loop_self_s": self_time("trainer.loop"),
        "dynamic.loop_self_s": self_time("dynamic.loop"),
        "trainer.save_model_s": total("trainer.save_model"),
        "trainer.load_model_s": total("trainer.load_model"),
        "trainer.infer_proportions_s": total("trainer.infer_proportions"),
        "evaluate.align_topics_s": total("evaluate.align_topics"),
        "evaluate.group_accuracy_s": total("evaluate.group_accuracy"),
        "evaluate.umass_coherence_s": total("evaluate.umass_coherence"),
        "evaluate.perplexity_s": total("evaluate.perplexity"),
    }
    out = {k: (v, "s") for k, v in times.items()}
    out.update({
        "corpus.disk_bytes": (counts["corpus.disk_bytes"], b),
        "corpus.nnz": (counts["corpus.nnz"], n),
        "loss.arrays_bytes": (counts["loss.arrays_bytes"], b),
        "loss.train_calls": (calls("loss.train"), n),
        "loss.eval_calls": (calls("loss.eval"), n),
        "networks.encoder_forward_calls":
            (calls("networks.encoder_forward"), n),
        "networks.encoder_forward_rows":
            (counts["networks.encoder_forward_rows"], n),
        "networks.encoder_backward_calls":
            (calls("networks.encoder_backward"), n),
        "model.transition_forward_calls":
            (calls("model.transition_forward"), n),
        "model.transition_backward_calls":
            (calls("model.transition_backward"), n),
        "terms.distance_calls": (calls("terms.distance"), n),
        "trainer.optimizer_step_calls": (calls("trainer.optimizer_step"), n),
        "trainer.model_bytes": (counts["trainer.model_bytes"], b),
        "evaluate.permutations_scored":
            (counts["evaluate.permutations_scored"], n),
    })
    return out


QUALITY_UNITS = {"kl_topics": "nats", "dominant_acc": "fraction",
                 "group_acc": "fraction"}


def run_traced(pipe, checks, seconds, spans):
    """One untraced pass as the reference, then traced passes until
    `seconds` have gone by (at least one)."""
    t, base_quality, results, _ = run_pass(pipe, checks)
    base_total = sum(t.values())
    tracer = spans.Tracer()
    span_cost = tracer.span_cost()
    tracer.install()
    per_pass, totals, overheads = [], [], []
    start = time.perf_counter()
    try:
        while not per_pass or time.perf_counter() - start < seconds:
            tracer.reset()
            t, quality, res, _ = run_pass(pipe, checks, tracer)
            per_pass.append(layer_metrics(tracer.summary(), tracer.counts))
            totals.append(sum(t.values()))
            overheads.append(len(tracer.spans) * span_cost + tracer.hook_s)
            results += res
            results.append(("trace_keeps_quality", quality == base_quality,
                            f"{quality} vs untraced {base_quality}"))
            if len(per_pass) > 1:
                diff = [k for k, (v, unit) in per_pass[0].items()
                        if unit != "s" and per_pass[-1][k][0] != v]
                results.append(("trace_counts_repeat", not diff,
                                f"counts that differ: {diff}"))
    finally:
        tracer.uninstall()

    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    for k, unit in QUALITY_UNITS.items():
        metrics[f"evaluate.{k}"] = (base_quality[k], unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    extra = {"span_cost_s": span_cost, "spans": len(tracer.spans),
             "hook_s": tracer.hook_s, "untraced_total_s": base_total,
             "traced_total_s": totals, "per_pass": per_pass,
             "quality": base_quality}
    return metrics, results, extra


def main(argv=None):
    args = parse_args(argv)
    lt = import_package()
    import numpy as np
    import_s = time.perf_counter() - _T0
    import checks
    import spans

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        pipe = Pipeline(lt, args.workload, args.seed, work)
        if args.trace:
            metrics, results, extra = run_traced(pipe, checks, args.seconds,
                                                 spans)
        else:
            metrics, results, extra = run_untraced(pipe, checks,
                                                   args.seconds, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [(name, detail) for name, ok, detail in results if not ok]
    for name, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    line = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(line, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment(np),
                  sim_config=asdict(pipe.sim_cfg),
                  train_config=asdict(pipe.train_cfg),
                  checks=[{"name": n, "ok": ok, "detail": d}
                          for n, ok, d in results],
                  details=extra)
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
        ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=float)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
