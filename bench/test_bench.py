"""Tests of the benchmark's own checks and tracing, on a tiny workload.

    python3 -m pytest -q bench/test_bench.py

Every check must pass on real outputs and reject a deliberately corrupted
one; the tracer must leave results unchanged and put every original back.
"""

import copy
import dataclasses
import inspect
import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = (dict(n_subjects=60, n_stages=2, vocab_size=30, n_topics=3),
        dict(n_topics=3, dist_kind="linf", dist_weight=1.0, t_max=3,
             eps_stop=0.0, optimizer="adam", learning_rate=0.05))


@pytest.fixture(scope="module")
def lt():
    return run.import_package()


@pytest.fixture()
def pipe(lt, tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    return run.Pipeline(lt, "tiny", 0, str(tmp_path))


@pytest.fixture()
def outputs(pipe, lt):
    sim_corpus = pipe.setup()
    corpus, truth = pipe.load()
    fitted = pipe.fit(corpus)
    model = pipe.model_io(fitted)
    report = pipe.evaluate(model, corpus, truth)
    return dict(
        sim_corpus=sim_corpus,
        kw=dict(corpus=corpus, count_range=pipe.sim_cfg.count_range,
                fitted=fitted, model=model,
                theta_fitted=lt.infer_proportions(fitted, corpus),
                theta_hat=lt.infer_proportions(model, corpus),
                report=report, truth=truth))


def verdicts(**kw):
    return {name: ok for name, ok, _ in checks.run_all(**kw)}


def failing(**kw):
    return {name for name, ok in verdicts(**kw).items() if not ok}


def test_every_check_passes_on_real_outputs(outputs):
    assert checks.corpus_roundtrip(outputs["sim_corpus"],
                                   outputs["kw"]["corpus"])[0]
    assert failing(**outputs["kw"]) == set()


def test_corpus_roundtrip_rejects_changed_count(outputs, pipe):
    loaded, _ = pipe.load()
    cell = loaded.docs[0][0]
    word = next(iter(cell))
    cell[word] += 1
    assert not checks.corpus_roundtrip(outputs["sim_corpus"], loaded)[0]


def test_cell_totals_reject_out_of_range(outputs):
    kw = dict(outputs["kw"])
    corpus = copy.deepcopy(kw["corpus"])
    cell = corpus.docs[3][1]
    cell[next(iter(cell))] += kw["count_range"][1]
    assert failing(**dict(kw, corpus=corpus)) == {"cell_totals_in_range"}


@pytest.mark.parametrize("corrupt", [
    lambda log: log[:-1],
    lambda log: log[:1] + [dict(log[1], loss=float("nan"))] + log[2:],
    lambda log: log[:-1] + [dict(log[-1], loss=log[0]["loss"] + 1.0)],
])
def test_loss_log_rejects_short_nonfinite_or_rising(outputs, corrupt):
    kw = dict(outputs["kw"])
    fitted = dataclasses.replace(kw["fitted"], log=corrupt(kw["fitted"].log))
    assert failing(**dict(kw, fitted=fitted)) == {"loss_log"}


@pytest.mark.parametrize("corrupt", [
    lambda a: a * 1.001,
    lambda a: np.where(np.arange(a.shape[-1]) == 0, -a, a),
])
def test_simplex_rejects_bad_proportions(outputs, corrupt):
    kw = dict(outputs["kw"])
    bad = corrupt(kw["theta_hat"])
    assert "proportions_simplex" in failing(**dict(kw, theta_hat=bad))
    assert not checks.simplex(bad, axis=2)[0]


def test_simplex_rejects_bad_topics(outputs):
    beta = outputs["kw"]["model"].stage_topics()
    assert checks.simplex(beta, axis=1)[0]
    assert not checks.simplex(beta * 0.999, axis=1)[0]
    beta[0, 0, 0] = -beta[0, 0, 0]
    assert not checks.simplex(beta, axis=1)[0]


def test_model_roundtrip_rejects_one_ulp(outputs):
    kw = dict(outputs["kw"])
    theta = kw["theta_fitted"].copy()
    theta[0, 0, 0] = np.nextafter(theta[0, 0, 0], 1.0)
    assert failing(**dict(kw, theta_fitted=theta)) == {
        "model_roundtrip_bitwise"}


def test_quality_recomputation_rejects_altered_report(outputs):
    kw = dict(outputs["kw"])
    report = kw["report"]
    assert failing(**dict(kw, report=dataclasses.replace(
        report, kl_topics=report.kl_topics + 1e-12))) == set()
    assert failing(**dict(kw, report=dataclasses.replace(
        report, kl_topics=report.kl_topics + 1e-8))) == {
        "aligned_kl_matches"}
    n_cells = kw["theta_hat"].shape[0] * kw["theta_hat"].shape[1]
    assert failing(**dict(kw, report=dataclasses.replace(
        report, dominant_acc=report.dominant_acc + 1.0 / n_cells))) == {
        "dominant_acc_matches"}


def test_uniform_model_fails_the_quality_floor(outputs):
    kw = dict(outputs["kw"])
    truth = kw["truth"]
    T, V, K = truth.beta_true.shape
    model = copy.deepcopy(kw["model"])
    model.gen.beta[...] = 0.0
    report = dataclasses.replace(kw["report"], perplexity=float(V))
    beaten = failing(**dict(kw, model=model, report=report))
    assert {"perplexity_below_vocab", "kl_below_uniform"} <= beaten

    # proportions whose largest topic is never the true one
    shifted = np.roll(np.eye(K)[truth.theta_true.argmax(axis=2)], 1, axis=2)
    model.beta_stage = np.log(truth.beta_true)
    assert "dominant_above_chance" in failing(
        **dict(kw, model=model, theta_hat=shifted, theta_fitted=shifted))


def test_perplexity_gap_closed_spans_uniform_to_truth():
    assert checks.perplexity_gap_closed(200.0, 40.0, 200) == 0.0
    assert checks.perplexity_gap_closed(40.0, 40.0, 200) == 1.0
    assert checks.perplexity_gap_closed(120.0, 40.0, 200) == 0.5


def test_untraced_run_repeats_stages_to_their_minimum(pipe):
    metrics, results, extra = run.run_untraced(pipe, checks, 0.0, 0.0)
    assert [r for r in results if not r[1]] == []
    for key, least in run.MIN_SAMPLES.items():
        assert len(extra["samples"][key]) >= least, key
    assert len(extra["samples"]["load_s"]) == 1
    gap = metrics["perplexity_gap_closed"][0]
    assert 0.0 < gap < 1.0


def test_own_alignment_matches_enumeration(lt):
    rng = np.random.default_rng(3)
    for K in (2, 3, 4, 5):
        bh = rng.dirichlet(np.ones(12), size=(2, K)).transpose(0, 2, 1)
        bt = rng.dirichlet(np.ones(12), size=(2, K)).transpose(0, 2, 1)
        perms, kl = checks.align(bh, bt)
        assert perms.tolist() == lt.align_topics(bh, bt)
        brute = sum(min(
            sum(checks.topic_cost(bh[t], bt[t])[p[k], k] for k in range(K))
            for p in itertools.permutations(range(K))) for t in range(2))
        assert kl == pytest.approx(brute / (2 * K), abs=1e-12)
        assert kl == pytest.approx(lt.empirical_kl(
            lt.evaluate.apply_permutations(bh, perms.tolist()), bt),
            abs=1e-12)


def test_traced_run_keeps_results_and_restores_originals(pipe, lt):
    owners = []
    for module, cls, attr, _, _ in spans.LAYERS:
        owner = sys.modules[module]
        if cls:
            owner = getattr(owner, cls)
        owners.append((owner, attr, inspect.getattr_static(owner, attr)))

    # long enough for several traced passes, so the counts are compared
    seconds = 5 * sum(run.run_pass(pipe, checks)[0].values())
    metrics, results, extra = run.run_traced(pipe, checks, seconds, spans)
    assert [r for r in results if not r[1]] == []
    names = {r[0] for r in results}
    assert {"trace_keeps_quality", "trace_counts_repeat"} <= names
    for owner, attr, original in owners:
        assert inspect.getattr_static(owner, attr) is original

    n_batches = -(-60 // 64)
    assert metrics["trainer.optimizer_step_calls"][0] == 3 * n_batches
    assert metrics["loss.train_calls"][0] == 3 * n_batches
    assert metrics["loss.eval_calls"][0] == 4
    # per stage: one factual and one counterfactual pass in training and
    # epoch evaluation, one factual pass in each infer_proportions
    assert metrics["networks.encoder_forward_calls"][0] == 2 * (
        2 * (3 * n_batches + 4) + 1)
    assert metrics["evaluate.permutations_scored"][0] == 2 * 6
    assert metrics["terms.distance_calls"][0] == 2 * (3 * n_batches + 4)
    for name, (value, unit) in metrics.items():
        if name.endswith("_s"):
            assert value >= 0.0, name
    assert metrics["trace.overhead_s"][0] > 0.0


def test_trace_checks_reject_changed_quality_and_counts(pipe, monkeypatch):
    # a wrapper that moves perplexity by 1e-9, and a count that drifts
    # between traced passes, must each fail their check
    wrap = spans.Tracer.wrap

    def perturbing_wrap(self, fn, name, hook):
        traced = wrap(self, fn, name, hook)
        if name != "evaluate.perplexity":
            return traced
        return lambda *args, **kwargs: traced(*args, **kwargs) + 1e-9

    real = run.layer_metrics
    made = []

    def drifting(summary, counts):
        out = real(summary, counts)
        made.append(out)
        if len(made) > 1:
            out["loss.train_calls"] = (out["loss.train_calls"][0] + 1,
                                       "count")
        return out

    monkeypatch.setattr(spans.Tracer, "wrap", perturbing_wrap)
    monkeypatch.setattr(run, "layer_metrics", drifting)
    seconds = 5 * sum(run.run_pass(pipe, checks)[0].values())
    _, results, _ = run.run_traced(pipe, checks, seconds, spans)
    failed = {name for name, ok, _ in results if not ok}
    assert failed == {"trace_keeps_quality", "trace_counts_repeat"}


def test_layer_metrics_cover_the_benchmark_file():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    emitted = dict(run.layer_metrics({}, spans.Tracer().counts))
    emitted.update({f"evaluate.{k}": (0, u)
                    for k, u in run.QUALITY_UNITS.items()})
    emitted["trace.overhead_s"] = (0, "s")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {k: u for k, (_, u) in emitted.items()}
