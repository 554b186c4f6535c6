import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longtopic import evaluate
from longtopic.corpus import ROW_CHUNK, Corpus, load_corpus, save_corpus
from longtopic.errors import (
    DegenerateDesign,
    NumericError,
    ShapeError,
    TooManyTopics,
)
from longtopic.evaluate import (
    _probe_fit,
    align_topics,
    apply_permutations,
    dominant_accuracy,
    empirical_kl,
    full_report,
    group_accuracy,
    perplexity,
    save_metrics,
    save_top_words,
    top_words,
    umass_coherence,
)
from longtopic.inference.loss import CorpusArrays
from longtopic.inference.trainer import (
    FittedModel,
    TrainConfig,
    default_init,
    encode_corpus,
    infer_proportions,
    train,
)
from longtopic.model import default_vocab, softmax
from longtopic.simulate import SimConfig, simulate
from conftest import CAN_FORK, no_child_left, no_fork
from oracles import (
    align_topics_ref,
    encode_corpus_ref,
    perplexity_ref,
    probe_fit_nG_ref,
    probe_fit_ref,
    umass_coherence_ref,
)


def stack(*cols_per_stage):
    """Build a (T, V, K) stack from per-stage lists of column vectors."""
    return np.stack([np.column_stack(cols) for cols in cols_per_stage])


def brute_force_align(bh, bt):
    """Independent exhaustive alignment used as an enumeration oracle."""
    T, V, K = bh.shape
    out = []
    for t in range(T):
        best, best_perm = np.inf, None
        for perm in itertools.permutations(range(K)):
            tot = 0.0
            for k in range(K):
                p = bh[t][:, perm[k]]
                q = np.maximum(bt[t][:, k], 1e-12)
                tot += float(np.sum(np.where(p > 0, p * np.log(p / q), 0.0)))
            if tot < best - 1e-15:
                best, best_perm = tot, perm
        out.append(list(best_perm))
    return out


def test_empirical_kl_hand_value():
    est = stack([[0.5, 0.5]])
    true = stack([[0.25, 0.75]])
    assert empirical_kl(est, true) == pytest.approx(
        0.14384103622589045, abs=1e-12)


def test_empirical_kl_identical_topics():
    b = stack([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    assert empirical_kl(b, b) == pytest.approx(0.0, abs=1e-12)


def test_empirical_kl_averages_over_stages_and_topics():
    est = stack([[0.5, 0.5], [0.25, 0.75]],
                [[0.25, 0.75], [0.25, 0.75]])
    true = stack([[0.25, 0.75], [0.25, 0.75]],
                 [[0.25, 0.75], [0.25, 0.75]])
    single = 0.14384103622589045
    assert empirical_kl(est, true) == pytest.approx(single / 4, abs=1e-12)


def test_empirical_kl_zero_estimate_entries_drop():
    # 0 * log 0 terms contribute nothing rather than NaN
    est = stack([[1.0, 0.0]])
    true = stack([[0.5, 0.5]])
    assert empirical_kl(est, true) == pytest.approx(np.log(2.0), abs=1e-12)


def test_align_recovers_random_permutation():
    rng = np.random.default_rng(0)
    for K in (2, 3, 4):
        true = rng.dirichlet(np.ones(12), size=K).T[None]  # (1, 12, K)
        perm = list(rng.permutation(K))
        est = true[:, :, perm] * 0.98 + 0.02 / 12
        got = align_topics(est, true)[0]
        # est[:, got] must undo the shuffle: got[k] = position of topic k
        assert [perm[g] for g in got] == list(range(K)) or got == \
            [perm.index(k) for k in range(K)]
        aligned = apply_permutations(est, [got])
        assert empirical_kl(aligned, true) < 0.01


def test_align_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        K = rng.integers(2, 5)
        bh = rng.dirichlet(np.ones(9), size=(2, K)).transpose(0, 2, 1)
        bt = rng.dirichlet(np.ones(9), size=(2, K)).transpose(0, 2, 1)
        assert align_topics(bh, bt) == brute_force_align(bh, bt)


def test_align_tie_takes_lexicographic_smallest():
    b = stack([[0.5, 0.5], [0.5, 0.5]])  # identical columns: every perm ties
    assert align_topics(b, b) == [[0, 1]]


def test_align_rejects_large_k():
    b = np.full((1, 20, 9), 1.0 / 20)
    with pytest.raises(TooManyTopics):
        align_topics(b, b)


def test_align_shape_mismatch():
    with pytest.raises(ShapeError):
        align_topics(np.full((1, 4, 2), 0.25), np.full((1, 5, 2), 0.2))


@pytest.mark.parametrize("shape", [(1, 3, 0), (0, 3, 2)])
def test_empty_topic_stack_is_a_shape_error(shape):
    b = np.zeros(shape)
    with pytest.raises(ShapeError):
        align_topics(b, b)
    with pytest.raises(ShapeError):
        empirical_kl(b, b)
    with pytest.raises(ShapeError):
        top_words(b)


@pytest.mark.parametrize("top_n", [0, -1])
def test_top_n_below_one_is_a_shape_error(top_n):
    corpus = corpus_from_counts([[[1, 0]], [[1, 1]]])
    b = stack([[0.6, 0.4]])
    with pytest.raises(ShapeError):
        top_words(b, top_n)
    with pytest.raises(ShapeError):
        umass_coherence(b, corpus, top_n)


@pytest.mark.parametrize("fn", [align_topics, empirical_kl])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_topics_are_a_numeric_error(fn, bad):
    b = np.full((2, 4, 2), 0.25)
    poisoned = b.copy()
    poisoned[1, 2, 0] = bad
    with pytest.raises(NumericError):
        fn(poisoned, b)
    with pytest.raises(NumericError):
        fn(b, poisoned)


def test_apply_permutations_round_trip():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((2, 7, 3))
    perms = [[2, 0, 1], [1, 2, 0]]
    back = [list(np.argsort(p)) for p in perms]
    assert np.array_equal(apply_permutations(
        apply_permutations(arr, perms), back), arr)


def test_top_words_ordering_and_ties():
    b = stack([[0.4, 0.4, 0.2]])         # (1, 3, 1)
    assert top_words(b, top_n=2)[0, 0].tolist() == [0, 1]
    b2 = stack([[0.1, 0.6, 0.3]])
    assert top_words(b2, top_n=3)[0, 0].tolist() == [1, 2, 0]


def corpus_from_counts(counts, G=2, groups=None):
    counts = np.asarray(counts, dtype=float)
    N, T, V = counts.shape
    rng = np.random.default_rng(0)
    cov = rng.standard_normal((N, T, 1))
    if groups is None:
        groups = np.arange(N) % G
    return Corpus.from_dense(counts, cov, np.asarray(groups),
                             default_vocab(V), allow_missing=True,
                             n_groups=G)


def test_umass_coherence_hand_value():
    # two docs at one stage: {w0} and {w0, w1}; top words [w0, w1]
    # ordered pairs: (0,1): log((1+1)/1) = log 2; (1,0): log((1+1)/2) = 0
    corpus = corpus_from_counts([[[1, 0]], [[1, 1]]])
    bh = stack([[0.6, 0.4]])
    assert umass_coherence(bh, corpus, top_n=2) == pytest.approx(
        np.log(2.0), abs=1e-12)


def test_umass_coherence_skips_words_absent_from_stage():
    # w1 never occurs: both ordered pairs involving D(w1)=0 as reference are
    # skipped; the remaining pair (j = w0) sees co = 0
    corpus = corpus_from_counts([[[1, 0]], [[1, 0]]])
    bh = stack([[0.6, 0.4]])
    assert umass_coherence(bh, corpus, top_n=2) == pytest.approx(
        np.log((0 + 1.0) / 2.0), abs=1e-12)


def test_umass_coherence_prefers_cooccurring_topics():
    rng = np.random.default_rng(1)
    N, V = 60, 6
    counts = np.zeros((N, 1, V))
    for i in range(N):
        block = (0, 3) if i % 2 == 0 else (3, 6)
        for v in rng.integers(*block, size=40):
            counts[i, 0, v] += 1
    corpus = corpus_from_counts(counts)
    aligned = stack([np.r_[np.full(3, 0.32), np.full(3, 0.013)],
                     np.r_[np.full(3, 0.013), np.full(3, 0.32)]])
    mixed = stack([[0.32, 0.013, 0.32, 0.013, 0.32, 0.013],
                   [0.013, 0.32, 0.013, 0.32, 0.013, 0.32]])
    assert umass_coherence(aligned, corpus, top_n=3) > \
        umass_coherence(mixed, corpus, top_n=3)


def test_perplexity_uniform_model_equals_vocab_size():
    rng = np.random.default_rng(2)
    V = 7
    counts = rng.integers(1, 5, size=(5, 2, V)).astype(float)
    corpus = corpus_from_counts(counts)
    bh = np.full((2, V, 3), 1.0 / V)
    th = rng.dirichlet(np.ones(3), size=(2, 5))
    assert perplexity(bh, th, corpus) == pytest.approx(V, rel=1e-12)


def test_perplexity_rewards_the_generating_model():
    rng = np.random.default_rng(4)
    V = 6
    p_true = np.array([0.5, 0.3, 0.1, 0.05, 0.03, 0.02])
    counts = rng.multinomial(200, p_true, size=(8, 1)).astype(float)
    corpus = corpus_from_counts(counts)
    good = p_true[None, :, None]  # (1, V, 1)
    flat = np.full((1, V, 1), 1.0 / V)
    th = np.ones((1, 8, 1))
    assert perplexity(good, th, corpus) < perplexity(flat, th, corpus)


def test_perplexity_ignores_missing_cells():
    counts = np.array([[[4, 0], [3, 1]],
                       [[2, 2], [0, 0]]], dtype=float)  # subject 1 absent t=1
    corpus = corpus_from_counts(counts)
    bh = np.full((2, 2, 1), 0.5)
    th = np.ones((2, 2, 1))
    assert perplexity(bh, th, corpus) == pytest.approx(2.0, rel=1e-12)


def test_perplexity_averages_the_stages_that_hold_documents():
    # stage 1 holds no document: the mean runs over stages 0 and 2 only,
    # the value the oracle gives on the corpus without that stage
    rng = np.random.default_rng(6)
    N, T, V, K = 7, 3, 9, 2
    counts = rng.integers(0, 4, size=(N, T, V))
    counts[:, :, 0] += 1
    counts[:, 1] = 0
    counts[2, 0] = 0
    beta = rng.dirichlet(np.ones(V), size=(T, K)).transpose(0, 2, 1)
    theta = rng.dirichlet(np.ones(K), size=(T, N))
    kept = [0, 2]
    got = perplexity(beta, theta, corpus_from_counts(counts))
    assert got == perplexity_ref(beta[kept], theta[kept],
                                 corpus_from_counts(counts[:, kept]))


def test_dominant_accuracy_hand_case():
    th = np.array([[[0.6, 0.4], [0.2, 0.8]]])
    tt = np.array([[[0.9, 0.1], [0.9, 0.1]]])
    assert dominant_accuracy(th, tt) == pytest.approx(0.5)


def test_dominant_accuracy_tie_goes_to_lowest_index():
    th = np.array([[[0.5, 0.5]]])
    tt = np.array([[[1.0, 0.0]]])
    assert dominant_accuracy(th, tt) == 1.0


def test_dominant_accuracy_mask():
    th = np.array([[[0.6, 0.4], [0.2, 0.8]]])
    tt = np.array([[[0.9, 0.1], [0.9, 0.1]]])
    mask = np.array([[True, False]])
    assert dominant_accuracy(th, tt, mask=mask) == 1.0
    with pytest.raises(ShapeError):
        dominant_accuracy(th, tt, mask=np.zeros((1, 2), dtype=bool))


def test_group_accuracy_separable():
    rng = np.random.default_rng(6)
    N = 200
    groups = np.arange(N) % 2
    th = np.where(groups[None, :, None] == 0,
                  np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    th = th + rng.uniform(-0.02, 0.02, size=(2, N, 2))
    th = th / th.sum(axis=2, keepdims=True)
    assert group_accuracy(th, groups) >= 0.99


def test_group_accuracy_constant_features_majority_share():
    N = 100
    groups = np.zeros(N, dtype=int)
    groups[:30] = 1
    th = np.full((3, N, 2), 0.5)
    assert group_accuracy(th, groups) == pytest.approx(0.7)


def test_group_accuracy_chance_level_on_noise():
    rng = np.random.default_rng(8)
    N = 500
    groups = rng.integers(0, 2, size=N)
    th = rng.dirichlet(np.ones(3), size=(2, N))
    acc = group_accuracy(th, groups)
    assert 0.45 <= acc <= 0.62


def test_group_accuracy_permutation_equivariant():
    rng = np.random.default_rng(9)
    N = 120
    groups = rng.integers(0, 2, size=N)
    th = rng.dirichlet(np.ones(3), size=(2, N))
    a = group_accuracy(th, groups)
    b = group_accuracy(th[:, :, [2, 0, 1]], groups)
    assert a == pytest.approx(b, abs=1e-6)


def test_group_accuracy_mask_drops_cells():
    rng = np.random.default_rng(10)
    N = 60
    groups = np.arange(N) % 2
    th = np.where(groups[None, :, None] == 0,
                  np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    th = np.broadcast_to(th, (2, N, 2)).copy()
    # poison the masked-out cells; they must not affect the fit
    th[1, :, :] = rng.dirichlet(np.ones(2), size=N)
    mask = np.zeros((2, N), dtype=bool)
    mask[0] = True
    assert group_accuracy(th, groups, mask=mask) == 1.0


def test_group_accuracy_degenerate_design():
    th = np.full((1, 2, 3), 1 / 3)
    with pytest.raises(DegenerateDesign):
        group_accuracy(th, np.array([0, 1]))


def test_group_accuracy_multiclass():
    N = 300
    groups = np.arange(N) % 3
    centers = np.array([[0.8, 0.1, 0.1],
                        [0.1, 0.8, 0.1],
                        [0.1, 0.1, 0.8]])
    th = centers[groups][None]
    assert group_accuracy(th, groups) >= 0.99


def toy_fitted(T=2, missing=False):
    rng = np.random.default_rng(0)
    N, V = 24, 5
    counts = rng.integers(1, 6, size=(N, T, V)).astype(float)
    if missing:
        counts[3, 1] = 0.0
    corpus = Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                               np.arange(N) % 2, default_vocab(V),
                               allow_missing=missing)
    cfg = TrainConfig(n_topics=2, m_samples=2, t_max=3, hidden_enc=6,
                      learning_rate=0.01, seed=0)
    gen, enc = default_init(corpus, cfg)
    return train(corpus, gen, enc, cfg), corpus


def test_full_report_without_truth():
    fitted, corpus = toy_fitted()
    rep = full_report(fitted, corpus)
    assert rep.kl_topics is None and rep.dominant_acc is None
    assert rep.permutations is None
    assert rep.perplexity > 0 and np.isfinite(rep.coherence)
    assert 0.0 <= rep.group_acc <= 1.0
    d = rep.to_dict()
    assert set(d) >= {"kl_topics", "coherence", "perplexity",
                      "dominant_acc", "group_acc"}


def test_full_report_with_truth_and_missing(tmp_path):
    from longtopic.simulate import GroundTruth
    fitted, corpus = toy_fitted(missing=True)
    T, N, K = 2, 24, 2
    rng = np.random.default_rng(1)
    truth = GroundTruth(
        beta_true=np.stack([np.full((5, 2), 0.2)] * T),
        theta_true=rng.dirichlet(np.ones(K), size=(T, N)),
        gamma={})
    rep = full_report(fitted, corpus, truth)
    assert rep.kl_topics is not None and rep.dominant_acc is not None
    assert len(rep.permutations) == T
    out = tmp_path / "metrics.json"
    save_metrics(rep, out, config_echo={"n_topics": 2})
    data = json.loads(out.read_text())
    assert data["config"]["n_topics"] == 2
    assert data["kl_topics"] == pytest.approx(rep.kl_topics)
    words = tmp_path / "top.json"
    save_top_words(fitted.stage_topics(), fitted.vocab, words, top_n=3)
    payload = json.loads(words.read_text())
    assert len(payload) == T and len(payload[0]) == K
    assert all(len(topic) == 3 and all(isinstance(w, str) for w in topic)
               for st in payload for topic in st)


def _report_cases():
    """(name, fitted, corpus, truth) of each case the forked and in-process
    reports must agree on."""
    from longtopic.simulate import GroundTruth
    c5 = SimConfig(n_subjects=1000, n_stages=3, vocab_size=200, n_topics=3,
                   prior_kind="nonlinear", seed=5)
    g4 = SimConfig(n_subjects=60, n_stages=2, vocab_size=30, n_topics=3,
                   n_groups=4, seed=4)
    missing, corpus = toy_fitted(missing=True)
    rng = np.random.default_rng(1)
    yield "missing cells", missing, corpus, GroundTruth(
        beta_true=np.stack([np.full((5, 2), 0.2)] * 2),
        theta_true=rng.dirichlet(np.ones(2), size=(2, 24)), gamma={})
    yield "no truth", *toy_fitted(), None
    for name, sim in (("c5 shape", c5), ("four groups", g4)):
        corpus, truth = simulate(sim)
        cfg = TrainConfig(n_topics=3, m_samples=2, t_max=2, hidden_enc=8,
                          dist_kind="linf", seed=sim.seed)
        yield name, train(corpus, *default_init(corpus, cfg), cfg), corpus, \
            truth


def _report_bits(report):
    d = report.to_dict()
    return d, {k: None if v is None else float(v).hex()
               for k, v in d.items() if k != "permutations"}


def test_forked_and_in_process_reports_are_bit_identical(forks, monkeypatch):
    for name, fitted, corpus, truth in _report_cases():
        before = len(forks)
        forked = _report_bits(full_report(fitted, corpus, truth))
        assert len(forks) == before + CAN_FORK, name
        with monkeypatch.context() as m:
            m.setattr(os, "fork", no_fork)
            assert _report_bits(full_report(fitted, corpus, truth)) \
                == forked, name
        no_child_left()


def _raising(error):
    def metric(*args, **kwargs):
        raise error
    return metric


@pytest.mark.parametrize("metric", ["umass_coherence", "perplexity"])
@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in_process"])
def test_a_helper_error_wins_over_the_probe_as_in_serial_order(
        metric, fork, forks, monkeypatch):
    """The metrics are looked up in the module at call time, so the patches
    reach the helper; its error comes first in the serial order."""
    fitted, corpus = toy_fitted()
    forks.clear()  # the fit's helper
    if not fork:
        monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(evaluate, "group_accuracy",
                        _raising(DegenerateDesign("the probe failed")))
    with pytest.raises(DegenerateDesign, match="the probe failed"):
        full_report(fitted, corpus)
    monkeypatch.setattr(evaluate, metric,
                        _raising(ShapeError(f"{metric} failed")))
    with pytest.raises(ShapeError, match=f"{metric} failed"):
        full_report(fitted, corpus)
    assert len(forks) == 2 * (fork and CAN_FORK)
    no_child_left()


def test_a_report_forks_one_helper_and_leaves_no_child(forks):
    fitted, corpus = toy_fitted()
    # three cells against G * K = 4 samples is a degenerate probe design
    small = Corpus.from_dense(np.ones((1, 3, 5)), np.zeros((1, 3, 2)),
                              np.array([1]), default_vocab(5))
    cfg = TrainConfig(n_topics=2, m_samples=2, t_max=1, hidden_enc=4)
    degenerate = train(small, *default_init(small, cfg), cfg)
    forks.clear()  # the fits' helpers
    full_report(fitted, corpus)
    assert len(forks) == CAN_FORK
    no_child_left()
    with pytest.raises(DegenerateDesign):
        full_report(degenerate, small)
    assert len(forks) == 2 * CAN_FORK
    no_child_left()


# -- bitwise agreement with the loop forms in tests/oracles.py ---------------


def topic_stack(rng, T, V, K, dup):
    """(T, V, K) column simplices; with dup, each column after the first
    copies an earlier one with probability 1/2, forcing cost ties."""
    b = rng.dirichlet(np.full(V, 0.5), size=(T, K)).transpose(0, 2, 1)
    if dup:
        for k in range(1, K):
            if rng.random() < 0.5:
                b[:, :, k] = b[:, :, rng.integers(k)]
    return b


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 8), T=st.integers(1, 2), V=st.integers(2, 6),
       dup_hat=st.booleans(), dup_true=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_align_topics_matches_loop_oracle(K, T, V, dup_hat, dup_true, seed):
    rng = np.random.default_rng(seed)
    bh = topic_stack(rng, T, V, K, dup_hat)
    bt = topic_stack(rng, T, V, K, dup_true)
    got = align_topics(bh, bt)
    assert got == align_topics_ref(bh, bt)
    assert all(type(k) is int for perm in got for k in perm)


def test_align_topics_every_cost_tied():
    b = np.full((2, 3, 8), 1.0 / 3)
    assert align_topics(b, b) == align_topics_ref(b, b) == [
        list(range(8))] * 2


@settings(max_examples=30, deadline=None)
@given(G=st.sampled_from([2, 3, 4, 7, 8, 9]), K=st.integers(1, 5),
       extra=st.integers(0, 400), masked=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_probe_fit_matches_loop_oracle(G, K, extra, masked, seed):
    # X and y as group_accuracy pools them: a reshaped view, or the rows a
    # (T, N) mask keeps
    rng = np.random.default_rng(seed)
    T = 2
    N = (G * K + extra) // T + 1
    X = rng.dirichlet(np.ones(K), size=(T, N)).reshape(T * N, K)
    y = np.tile(rng.integers(0, G, size=N), T)
    if masked:
        keep = rng.random(T * N) < 0.8
        keep[:G * K] = True
        X, y = X[keep], y[keep]
    Wp, b = _probe_fit(X, y, G, 500, 0.1, 1e-4)
    Wp_ref, b_ref = probe_fit_ref(X, y, G)
    assert np.array_equal(Wp, Wp_ref) and np.array_equal(b, b_ref)


@pytest.mark.parametrize("n, K, G", [(15000, 8, 2), (3000, 3, 2),
                                     (5000, 5, 4), (400, 1, 3)])
def test_probe_fit_gives_the_bits_of_the_n_by_g_loop(n, K, G):
    rng = np.random.default_rng(n + K)
    X = rng.dirichlet(np.ones(K), size=n)
    y = rng.integers(0, G, size=n)
    Wp, b = _probe_fit(X, y, G, 500, 0.1, 1e-4)
    Wp_ref, b_ref = probe_fit_nG_ref(X, y, G)
    assert np.array_equal(Wp, Wp_ref) and np.array_equal(b, b_ref)


def test_probe_fit_non_finite_logits_are_a_numeric_error():
    X = np.array([[1.0, 0.0], [0.0, np.inf], [0.5, 0.5]])
    with pytest.raises(NumericError):
        _probe_fit(X, np.array([0, 1, 0]), 2, 5, 0.1, 1e-4)


@st.composite
def sparse_corpora(draw):
    """A corpus with missing cells and words that a stage never uses, plus
    topic and proportion arrays with some probabilities at 0 (the floor)."""
    N = draw(st.integers(2, 12))
    T = draw(st.integers(1, 3))
    V = draw(st.integers(2, 20))
    K = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 4, size=(N, T, V)) * (
        rng.random((N, T, V)) < 0.4)
    counts[:, rng.random((T, V)) < 0.3] = 0     # words absent from a stage
    counts[rng.random((N, T)) < 0.25] = 0       # missing cells
    counts[0, :, 0] += 1                        # every stage keeps a doc
    corpus = corpus_from_counts(counts)
    beta = rng.dirichlet(np.full(V, 0.3), size=(T, K)).transpose(0, 2, 1)
    beta[rng.random((T, V, K)) < 0.1] = 0.0
    theta = rng.dirichlet(np.ones(K), size=(T, N))
    return corpus, beta, theta, draw(st.integers(1, V + 2))


@settings(max_examples=60, deadline=None)
@given(sparse_corpora())
def test_umass_coherence_matches_loop_oracle(case):
    corpus, beta, _, top_n = case
    assert umass_coherence(beta, corpus, top_n) == \
        umass_coherence_ref(beta, corpus, top_n)


@settings(max_examples=60, deadline=None)
@given(sparse_corpora())
def test_perplexity_matches_loop_oracle(case):
    corpus, beta, theta, _ = case
    assert perplexity(beta, theta, corpus) == \
        perplexity_ref(beta, theta, corpus)


def untrained(corpus, K, **cfg_kw):
    """A FittedModel at its initial parameters (inference needs no fit)."""
    cfg = TrainConfig(n_topics=K, **cfg_kw)
    gen, enc = default_init(corpus, cfg)
    return FittedModel(gen=gen, enc=enc, cfg=cfg, vocab=list(corpus.vocab),
                       n_groups=corpus.n_groups)


@pytest.mark.parametrize("N", [2 * ROW_CHUNK + 37, ROW_CHUNK, 40])
def test_row_blocks_match_the_whole_corpus_pass(N):
    """Inference, perplexity and coherence take ROW_CHUNK subjects at a time,
    here with missing cells on both sides of every block edge. One block
    gives the bits of one pass over all subjects. Several may round the
    encoder's products differently in the last bits, but the coherence adds
    exact counts."""
    rng = np.random.default_rng(N)
    T, V, K = 3, 30, 3
    counts = rng.integers(0, 3, size=(N, T, V)) * (
        rng.random((N, T, V)) < 0.3)
    counts[:, :, 0] += 1
    for edge in range(ROW_CHUNK, N, ROW_CHUNK):
        for i, t in ((edge - 2, 2), (edge - 1, 0), (edge, 1), (edge + 1, 2)):
            counts[i, t] = 0
    counts[[0, N - 1], [1, 0]] = 0
    corpus = corpus_from_counts(counts, G=3)
    assert corpus.present.sum() == N * T - 2 - 4 * ((N - 1) // ROW_CHUNK)
    fitted = untrained(corpus, K, init_scale=0.3)
    mu, sigma = encode_corpus(fitted, corpus)
    ref_mu, ref_sigma = encode_corpus_ref(fitted, corpus)
    theta = softmax(mu, axis=2)
    beta = rng.dirichlet(np.full(V, 0.3), size=(T, K)).transpose(0, 2, 1)
    got, ref = perplexity(beta, theta, corpus), perplexity_ref(beta, theta,
                                                               corpus)
    if N <= ROW_CHUNK:
        assert np.array_equal(mu, ref_mu) and np.array_equal(sigma, ref_sigma)
        assert got == ref
    else:
        np.testing.assert_allclose(mu, ref_mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sigma, ref_sigma, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    assert umass_coherence(beta, corpus) == umass_coherence_ref(beta, corpus)


def traced_peak(fn, *args):
    """(fn(*args), the most bytes numpy and Python held during the call
    beyond what they held before it)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_inference_and_perplexity_hold_no_corpus_sized_array():
    N, V = 1200, 500
    corpus, _ = simulate(SimConfig(n_subjects=N, n_stages=3, vocab_size=V,
                                   n_topics=4, seed=3))
    fitted = untrained(corpus, 4)
    dense = N * V * 8   # one (N, V) float64 array, 4.58 MiB
    theta, used = traced_peak(infer_proportions, fitted, corpus)
    assert used < dense
    _, used = traced_peak(perplexity, fitted.stage_topics(), theta, corpus)
    assert used < dense


def test_corpus_arrays_hold_no_array_per_nonzero_count():
    # a fit keeps its CorpusArrays for every epoch: beyond the corpus's own
    # CSR arrays it holds nothing with one number per nonzero count
    corpus, _ = simulate(SimConfig(n_subjects=1200, n_stages=3,
                                   vocab_size=500, n_topics=4, seed=3))
    _, used = traced_peak(CorpusArrays, corpus)
    assert used < corpus.counts.size * 8


def test_corpus_construction_holds_few_bytes_per_entry(tmp_path):
    # simulate and load_corpus put each block's entries in place as they
    # come and read docs.jsonl a group of lines at a time, so that no step
    # holds the corpus's words and counts more than twice or the file's
    # text whole: about 50 bytes per stored entry each, 64 and 71 when
    # they held every entry together, then sorted copies of them
    cfg = SimConfig(n_subjects=1200, n_stages=3, vocab_size=500, n_topics=4,
                    seed=3)
    (corpus, _), used = traced_peak(simulate, cfg)
    entries = corpus.counts.size
    assert entries == 200444
    assert used <= 56 * entries
    save_corpus(corpus, tmp_path)
    loaded, used = traced_peak(load_corpus, tmp_path)
    assert used <= 56 * entries
    assert loaded == corpus
