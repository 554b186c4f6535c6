import tracemalloc

import numpy as np
import pytest

from longtopic.corpus import Corpus
from longtopic.errors import ShapeError, UnknownDistance
from hypothesis import given, settings, strategies as st
from longtopic.inference.loss import (
    CorpusArrays,
    longitudinal_loss,
    nonzero_backward,
    nonzero_probs,
    stage_heads,
)
from longtopic.inference.networks import SIGMA_MIN, StageEncoder, sigmoid
from longtopic.inference.terms import (
    DISTANCE_KINDS,
    _kl_rows,
    distance_with_grad,
)
from longtopic.inference.trainer import TrainConfig, default_init
from longtopic.model import column_softmax, default_vocab, softmax
from longtopic.simulate import SimConfig, simulate
from oracles import (
    batch_ref,
    counterfactual_encode,
    distance_with_grad_ref,
    encode,
    encoder_input_grad_ref,
    gaussian_kl_term,
    group_distance,
    multinomial_log_likelihood,
    reconstruction_backward_ref,
)


def tiny_corpus(N=3, T=2, V=6, P=2, G=2, seed=0, missing=()):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 9, size=(N, T, V)).astype(float)
    for i, t in missing:
        counts[i, t] = 0.0
    cov = rng.standard_normal((N, T, P))
    groups = rng.integers(0, G, size=N)
    groups[0] = 0
    if G > 1:
        groups[-1] = G - 1
    return Corpus.from_dense(counts, cov, groups, default_vocab(V),
                             allow_missing=bool(missing), n_groups=G)


def make_cfg(**kw):
    base = dict(n_topics=2, m_samples=3, seed=1, dist_kind="none",
                dist_weight=0.0, init_scale=0.3)
    base.update(kw)
    return TrainConfig(**base)


def loss_of(corpus, cfg, eps, want_grads=False):
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    batch = arrays.batch(np.arange(corpus.n_subjects))
    return gen, enc, longitudinal_loss(batch, gen, enc, cfg, eps,
                                       want_grads=want_grads)


def test_single_stage_is_composed_elbo():
    # at T=1 the objective must equal the per-document negative ELBO
    # assembled from the closed-form KL and the Monte-Carlo likelihood
    corpus = tiny_corpus(N=4, T=1, V=8, seed=3)
    cfg = make_cfg(m_samples=5)
    N, K, M = 4, cfg.n_topics, 5
    eps = np.random.default_rng(9).standard_normal((N, 1, M, K))
    gen, enc, res = loss_of(corpus, cfg, eps)

    arrays = CorpusArrays(corpus)
    bcols = column_softmax(gen.beta)
    total = 0.0
    for i in range(N):
        w = corpus.dense_counts()[i, 0]
        post = encode(w, corpus.covariates[i, 0], corpus.groups[i],
                      gen.eta0, enc, 0)
        tin = np.concatenate([gen.eta0, corpus.covariates[i, 0],
                              arrays.y_enc[i]])
        mu0, _ = gen.transitions[0].forward(tin[None, :])
        kl = gaussian_kl_term(post.mu, post.sigma, mu0[0], gen.sigma0)
        ll = 0.0
        for j in range(M):
            eta = post.mu + eps[i, 0, j] * post.sigma
            ll += multinomial_log_likelihood(
                w, np.exp(eta - eta.max()) / np.exp(eta - eta.max()).sum(),
                gen.beta)
        total += kl - ll / M
    assert res.loss == pytest.approx(total / N, abs=1e-10)


def test_second_stage_kl_is_shared_eps_expectation():
    # the t=2 KL component must be the Monte-Carlo estimate of
    # E_{eta_1 ~ q_1}[KL(q_2 || N(f_2(eta_1, x_2, y), sigma0^2))]
    # computed with the same eps draws that the likelihood term consumes
    corpus = tiny_corpus(N=3, T=2, V=6, seed=5)
    cfg = make_cfg(m_samples=4)
    N, K, M = 3, cfg.n_topics, 4
    eps = np.random.default_rng(11).standard_normal((N, 2, M, K))
    gen, enc, res = loss_of(corpus, cfg, eps)

    arrays = CorpusArrays(corpus)
    acc = 0.0
    for i in range(N):
        p1 = encode(corpus.dense_counts()[i, 0], corpus.covariates[i, 0],
                    corpus.groups[i], gen.eta0, enc, 0)
        p2 = encode(corpus.dense_counts()[i, 1], corpus.covariates[i, 1],
                    corpus.groups[i], p1.mu, enc, 1)
        for j in range(M):
            eta1 = p1.mu + eps[i, 0, j] * p1.sigma
            tin = np.concatenate([eta1, corpus.covariates[i, 1],
                                  arrays.y_enc[i]])
            mu0, _ = gen.transitions[1].forward(tin[None, :])
            acc += gaussian_kl_term(p2.mu, p2.sigma, mu0[0], gen.sigma0)
    assert res.components["kl"][1] == pytest.approx(
        acc / (N * M), abs=1e-10)


def test_distance_component_matches_per_document_average():
    corpus = tiny_corpus(N=4, T=2, V=6, G=3, seed=7)
    cfg = make_cfg(dist_kind="mi_jsd", dist_weight=0.7)
    N, K, M = 4, cfg.n_topics, 3
    eps = np.random.default_rng(2).standard_normal((N, 2, M, K))
    gen, enc, res = loss_of(corpus, cfg, eps)

    arrays = CorpusArrays(corpus)
    prev = [np.asarray(gen.eta0)] * N
    for t in range(2):
        acc = 0.0
        nxt = []
        for i in range(N):
            w = corpus.dense_counts()[i, t]
            post = encode(w, corpus.covariates[i, t], corpus.groups[i],
                          prev[i], enc, t)
            cfs = counterfactual_encode(w, corpus.covariates[i, t],
                                        corpus.groups[i], prev[i], enc, t)
            acc += group_distance("mi_jsd", post, cfs)
            nxt.append(post.mu)
        assert res.components["dist"][t] == pytest.approx(acc / N, abs=1e-10)
        prev = nxt
    assert res.loss == pytest.approx(
        res.components["kl"].sum() - res.components["nll"].sum()
        - 0.7 * res.components["dist"].sum(), abs=1e-12)


def test_zero_weight_equals_none_exactly():
    corpus = tiny_corpus(N=3, T=2, V=6, seed=1)
    K = 2
    eps = np.random.default_rng(4).standard_normal((3, 2, 3, K))
    cfg_none = make_cfg(dist_kind="none", dist_weight=1.0)
    cfg_zero = make_cfg(dist_kind="l2", dist_weight=0.0)
    gen1, enc1, res1 = loss_of(corpus, cfg_none, eps, want_grads=True)
    gen2, enc2, res2 = loss_of(corpus, cfg_zero, eps, want_grads=True)
    assert res1.loss == res2.loss
    assert set(res1.grads) == set(res2.grads)
    for k in res1.grads:
        assert np.array_equal(res1.grads[k], res2.grads[k]), k


def test_missing_cells_contribute_nothing():
    # a subject absent at stage 1 must not alter any loss component there,
    # and the recurrent mean chain must still reach stage 2
    base = tiny_corpus(N=3, T=2, V=6, seed=8)
    with_gap = tiny_corpus(N=3, T=2, V=6, seed=8, missing=[(1, 1)])
    cfg = make_cfg()
    eps = np.random.default_rng(6).standard_normal((3, 2, 3, 2))
    _, _, res_full = loss_of(base, cfg, eps)
    _, _, res_gap = loss_of(with_gap, cfg, eps)
    assert res_gap.loss != pytest.approx(res_full.loss)
    # removing the one remaining difference: rebuild the gap corpus's stage-2
    # contribution by hand and confirm subject 1 is skipped
    gen, enc, res = loss_of(with_gap, cfg, eps)
    arrays = CorpusArrays(with_gap)
    assert arrays.present[1, 1] == 0.0
    acc = 0.0
    for i in range(3):
        if arrays.present[i, 1] == 0:
            continue
        p1 = encode(with_gap.dense_counts()[i, 0], with_gap.covariates[i, 0],
                    with_gap.groups[i], gen.eta0, enc, 0)
        p2 = encode(with_gap.dense_counts()[i, 1], with_gap.covariates[i, 1],
                    with_gap.groups[i], p1.mu, enc, 1)
        for j in range(3):
            eta1 = p1.mu + eps[i, 0, j] * p1.sigma
            tin = np.concatenate([eta1, with_gap.covariates[i, 1],
                                  arrays.y_enc[i]])
            mu0, _ = gen.transitions[1].forward(tin[None, :])
            acc += gaussian_kl_term(p2.mu, p2.sigma, mu0[0], gen.sigma0)
    assert res.components["kl"][1] == pytest.approx(acc / 9, abs=1e-12)


def test_monte_carlo_estimate_converges():
    # the M-sample objective is an unbiased estimate of its M -> inf limit:
    # independent replicates at small M must bracket a large-M evaluation
    corpus = tiny_corpus(N=2, T=2, V=5, seed=2)
    cfg = make_cfg(m_samples=64)
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    batch = arrays.batch(np.arange(2))
    rng = np.random.default_rng(123)

    def draw_loss(m):
        eps = rng.standard_normal((2, 2, m, 2))
        return longitudinal_loss(batch, gen, enc, cfg, eps,
                                 want_grads=False).loss

    reps = np.array([draw_loss(64) for _ in range(30)])
    big = draw_loss(60_000)
    se = reps.std(ddof=1) / np.sqrt(len(reps))
    assert abs(reps.mean() - big) < 4 * se + 1e-9


def test_eps_shape_validation():
    corpus = tiny_corpus(N=2, T=2, V=5)
    cfg = make_cfg()
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    batch = arrays.batch(np.arange(2))
    with pytest.raises(ShapeError):
        longitudinal_loss(batch, gen, enc, cfg,
                          np.zeros((2, 2, 3)))  # missing K axis
    with pytest.raises(ShapeError):
        longitudinal_loss(batch, gen, enc, cfg,
                          np.zeros((2, 1, 3, 2)))  # wrong T
    with pytest.raises(ShapeError, match="B, M >= 1"):
        longitudinal_loss(batch, gen, enc, cfg,
                          np.zeros((2, 2, 0, 2)))  # no samples
    with pytest.raises(ShapeError, match="B, M >= 1"):
        longitudinal_loss(arrays.batch(np.arange(0)), gen, enc, cfg,
                          np.zeros((0, 2, 3, 2)))  # no documents


@pytest.mark.parametrize("G", [2, 3])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_an_evaluation_computes_the_training_forward(kind, G):
    corpus = tiny_corpus(N=5, T=3, V=7, G=G, seed=G, missing=[(2, 1)])
    cfg = make_cfg(n_topics=3, dist_kind=kind,
                   dist_weight=0.0 if kind == "none" else 0.7)
    gen, enc = default_init(corpus, cfg)
    batch = CorpusArrays(corpus).batch(np.arange(5))
    eps = np.random.default_rng(G).standard_normal((5, 3, 3, 3))
    ev, tr = (longitudinal_loss(batch, gen, enc, cfg, eps, want_grads=wg)
              for wg in (False, True))
    assert ev.grads is None and tr.grads
    assert ev.loss == tr.loss
    for name in ("kl", "nll", "dist"):
        assert ev.components[name].tobytes() == tr.components[name].tobytes()


def test_unknown_distance_rejected_at_entry():
    corpus = tiny_corpus(N=2, T=1, V=5)
    cfg = make_cfg()
    cfg.dist_kind = "hellinger"  # bypass config validation on purpose
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    with pytest.raises(UnknownDistance):
        longitudinal_loss(arrays.batch(np.arange(2)), gen, enc, cfg,
                          np.zeros((2, 1, 3, 2)))


def test_stage_bcols_replaces_shared_topics():
    # supplying the per-stage stack built from the shared topics must
    # reproduce the default loss; grads swap "beta" for "bcols_stage"
    corpus = tiny_corpus(N=3, T=2, V=6, seed=4)
    cfg = make_cfg()
    eps = np.random.default_rng(5).standard_normal((3, 2, 3, 2))
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    batch = arrays.batch(np.arange(3))
    res_def = longitudinal_loss(batch, gen, enc, cfg, eps)
    stack = np.repeat(column_softmax(gen.beta)[None], 2, axis=0)
    res_stk = longitudinal_loss(batch, gen, enc, cfg, eps,
                                stage_bcols=stack)
    assert res_stk.loss == pytest.approx(res_def.loss, abs=1e-12)
    assert "beta" not in res_stk.grads and "bcols_stage" in res_stk.grads
    assert res_stk.grads["bcols_stage"].shape == (2, 6, 2)


def _oracle_corpus(G):
    # a missing cell, and words with zero count in every present cell
    rng = np.random.default_rng(20 + G)
    N, T, V, P = 6, 3, 7, 2
    counts = rng.integers(0, 5, size=(N, T, V)).astype(float)
    counts[:, :, 0] = 0.0
    counts[:, :, 1] += 1.0
    counts[2, 1] = 0.0
    groups = np.arange(N) % G
    return Corpus.from_dense(counts, rng.standard_normal((N, T, P)), groups,
                             default_vocab(V), allow_missing=True,
                             n_groups=G)


def _reference_components(corpus, gen, enc, cfg, eps):
    """Per-document, per-sample, per-counterfactual evaluation of the
    objective's stage components, built from the one-document oracles."""
    arrays = CorpusArrays(corpus)
    N, T = corpus.n_subjects, corpus.n_stages
    M = eps.shape[2]
    kl, nll, dist = np.zeros(T), np.zeros(T), np.zeros(T)
    for i in range(N):
        y, y_enc = corpus.groups[i], arrays.y_enc[i]
        prev, eta_prev = np.asarray(gen.eta0), None
        for t in range(T):
            w, x = corpus.dense_counts()[i, t], corpus.covariates[i, t]
            post = encode(w, x, y, prev, enc, t)
            etas = post.mu + eps[i, t] * post.sigma
            if arrays.present[i, t]:
                sources = [gen.eta0] if t == 0 else list(eta_prev)
                for src in sources:
                    tin = np.concatenate([src, x, y_enc])
                    mu0, _ = gen.transitions[t].forward(tin[None, :])
                    kl[t] += gaussian_kl_term(post.mu, post.sigma, mu0[0],
                                              gen.sigma0) / len(sources)
                for eta in etas:
                    theta = np.exp(eta - eta.max())
                    nll[t] += multinomial_log_likelihood(
                        w, theta / theta.sum(), gen.beta) / M
                if cfg.dist_kind != "none":
                    cfs = counterfactual_encode(w, x, y, prev, enc, t)
                    dist[t] += group_distance(cfg.dist_kind, post, cfs)
            prev, eta_prev = post.mu, etas
    return {"kl": kl / N, "nll": nll / N, "dist": dist / N}


@pytest.mark.parametrize("G", [2, 4])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_components_match_per_document_oracle(kind, G):
    corpus = _oracle_corpus(G)
    cfg = make_cfg(n_topics=3, m_samples=4, dist_kind=kind, dist_weight=0.7,
                   hidden_trans=3)
    eps = np.random.default_rng(G).standard_normal((6, 3, 4, 3))
    gen, enc, res = loss_of(corpus, cfg, eps)
    ref = _reference_components(corpus, gen, enc, cfg, eps)
    for name in ("kl", "nll", "dist"):
        np.testing.assert_allclose(res.components[name], ref[name],
                                   rtol=1e-10, atol=0, err_msg=name)


@pytest.mark.parametrize("G", [2, 4])
def test_shared_trunk_counterfactuals_match_reencoding(G):
    corpus = _oracle_corpus(G)
    cfg = make_cfg(n_topics=3)
    _, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    N, t = corpus.n_subjects, 1
    prev = np.random.default_rng(G).standard_normal((N, 3))
    inp = np.concatenate([batch_ref(corpus, np.arange(N)).wn[:, t],
                          arrays.x[:, t], arrays.y_enc, prev], axis=1)
    shifts = np.stack(arrays.cf_encs) - arrays.y_enc
    mu, sigma, _ = enc.stages[t].forward(inp, shifts)
    assert mu.shape == sigma.shape == (G, N, 3)
    for i in range(N):
        args = (corpus.dense_counts()[i, t], corpus.covariates[i, t],
                corpus.groups[i], prev[i], enc, t)
        posts = [encode(*args)] + counterfactual_encode(*args)
        for c, post in enumerate(posts):
            np.testing.assert_allclose(mu[c, i], post.mu, rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(sigma[c, i], post.sigma, rtol=1e-12,
                                       atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_gather_matches_the_dense_reference(data):
    N = data.draw(st.integers(1, 8))
    T = data.draw(st.integers(1, 3))
    V = data.draw(st.integers(1, 7))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 3, size=(N, T, V))
    counts[rng.random((N, T)) < 0.3] = 0            # missing cells
    counts[0, 0, 0] += 1
    corpus = Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                               rng.integers(0, 3, size=N), default_vocab(V),
                               allow_missing=True, n_groups=3)
    arrays = CorpusArrays(corpus)
    idx = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=1,
                                      max_size=N + 2)))
    # a gathered minibatch, and the one chunk batch of the whole corpus
    (lo, hi, whole), = arrays.chunks()
    assert (lo, hi) == (0, N)
    for got, sel in ((arrays.batch(idx), idx), (whole, np.arange(N))):
        want, B = batch_ref(corpus, sel), sel.size
        assert np.array_equal(got.x, arrays.x[sel])
        assert np.array_equal(got.present, arrays.present[sel])
        assert np.array_equal(got.y_enc, arrays.y_enc[sel])
        assert np.array_equal(got.cf_encs, arrays.cf_encs[:, sel])
        assert len(got.stages) == T
        for t, (rows, cols, c_nz, wn_nz) in enumerate(got.stages):
            assert np.array_equal(rows, want.cells[t][0])
            assert np.array_equal(cols, want.cells[t][1])
            assert np.array_equal(c_nz, want.c_nz[t])
            wn = np.zeros((B, V))
            wn[rows, cols] = wn_nz
            assert np.array_equal(wn, want.wn[:, t])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_distance_matches_the_loop_form(data):
    # G >= 8 members is where a plain reduce over them would pair terms up
    G = data.draw(st.integers(2, 10))
    B, K = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    mu = rng.normal(size=(B, K))
    mus = rng.normal(size=(G - 1, B, K))
    s = rng.uniform(0.05, 3.0, size=(B, K))
    ss = rng.uniform(0.05, 3.0, size=(G - 1, B, K))
    if data.draw(st.booleans()):      # ties: several coordinates share |max|
        mu, mus = np.round(mu), np.round(mus)
    if data.draw(st.booleans()):      # zero differences, signed zeros too
        mus[rng.random(mus.shape) < 0.5] = 0.0
        mu[...] = -0.0
    if data.draw(st.booleans()):      # the encoder's scale floor
        s[rng.random(s.shape) < 0.5] = SIGMA_MIN
        ss[rng.random(ss.shape) < 0.5] = SIGMA_MIN
    for kind in DISTANCE_KINDS:
        want = distance_with_grad_ref(kind, mu, s, list(mus), list(ss))
        for cfs in ((mus, ss), (list(mus), list(ss))):
            got = distance_with_grad(kind, mu, s, *cfs)
            for g, w in zip(got, want):
                w = np.asarray(w)
                assert g.shape == w.shape, kind
                assert np.array_equal(g, w), kind
                assert np.array_equal(np.signbit(g), np.signbit(w)), kind


def test_sigmoid_matches_the_masked_form():
    # the two-branch form it replaced, bit for bit: signed zeros, values
    # where exp(-x) or exp(x) would overflow, and NaN
    x = np.concatenate([[0.0, -0.0, 800.0, -800.0, np.nan, 1e-300],
                        np.random.default_rng(5).normal(0, 30, 500)])
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    ref[~pos] = e / (1.0 + e)
    assert np.array_equal(sigmoid(x), ref, equal_nan=True)


def test_corpus_arrays_hold_no_dense_tensor():
    corpus, _ = simulate(SimConfig(n_subjects=20, n_stages=3, vocab_size=60,
                                   n_topics=2, n_covariates=2,
                                   count_range=(3, 8), seed=4))
    arrays = CorpusArrays(corpus)
    held = [a for a in vars(arrays).values() if isinstance(a, np.ndarray)]
    N, T, V = corpus.n_subjects, corpus.n_stages, corpus.vocab_size
    assert len(held) >= 8
    assert all(a.size < N * T * V for a in held)


def test_a_group_count_beyond_the_cap_is_refused_before_encoding():
    # (G - 1) * N * (G - 1) = 342,020,700 numbers, 2.5 GiB of encodings
    N = 700
    corpus = Corpus.from_dense(np.ones((N, 1, 2)),
                               np.random.default_rng(0).random((N, 1, 1)),
                               np.arange(N), default_vocab(2), n_groups=N)
    with pytest.raises(ShapeError, match="342020700 numbers"):
        CorpusArrays(corpus)


def _stage(rng, B, M, K, V, density):
    """theta (B, M, K), bcols (V, K) and the (rows, cols) of a random stage
    in which each cell is nonzero with the given density and about a third
    of the rows are empty."""
    mask = rng.random((B, V)) < density
    mask[rng.random(B) < 0.3] = False
    rows, cols = np.nonzero(mask)
    theta = softmax(rng.normal(size=(B, M, K)), axis=2)
    return theta, column_softmax(rng.normal(size=(V, K))), rows, cols


def _dense_at(theta, bcols, rows, cols):
    B, M, K = theta.shape
    probs = (theta.reshape(B * M, K) @ bcols.T).reshape(B, M, -1)
    return probs[rows, :, cols]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nonzero_probs_match_the_dense_product(data):
    B, M = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
    K, V = data.draw(st.integers(1, 10)), data.draw(st.integers(3, 300))
    # density 0 is a stage with no entries
    density = data.draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    theta, bcols, rows, cols = _stage(rng, B, M, K, V, density)
    got = nonzero_probs(theta, bcols, rows, cols)[0]
    assert got.shape == (rows.size, M)
    np.testing.assert_allclose(got, _dense_at(theta, bcols, rows, cols),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("B, M, K, V", [(64, 5, 3, 200), (256, 5, 8, 1000)])
def test_nonzero_probs_are_the_dense_bits_at_the_benchmark_shapes(B, M, K, V):
    rng = np.random.default_rng(B + V)
    for density in (0.02, 0.1, 0.3):
        theta, bcols, rows, cols = _stage(rng, B, M, K, V, density)
        assert np.array_equal(nonzero_probs(theta, bcols, rows, cols)[0],
                              _dense_at(theta, bcols, rows, cols))


def _traced_peak(call):
    """The bytes call() allocates at its peak, beyond what was held."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _evaluation_peak(T, work):
    """An evaluation call's traced peak on a 256-subject chunk, V = 3000,
    K = 3, M = 5, with the info_radius counterfactuals; with work, through
    an encoder input allocated outside the call, as a fit's is."""
    N, V, K, M = 256, 3000, 3, 5
    corpus, _ = simulate(SimConfig(n_subjects=N, n_stages=T, vocab_size=V,
                                   n_topics=K, n_covariates=2, seed=6))
    cfg = make_cfg(n_topics=K, m_samples=M, hidden_enc=16,
                   dist_kind="info_radius", dist_weight=0.5)
    gen, enc = default_init(corpus, cfg)
    (_, _, batch), = CorpusArrays(corpus).chunks()
    eps = np.random.default_rng(0).standard_normal((N, T, M, K))
    inp = np.zeros((N, enc.stages[0].in_dim)) if work else None
    return _traced_peak(lambda: longitudinal_loss(
        batch, gen, enc, cfg, eps, want_grads=False, work=inp))


def test_an_evaluation_call_holds_no_v_wide_probability_block():
    # one (N * M, V) float64 block, 29.3 MiB
    assert _evaluation_peak(2, work=False) < 256 * 5 * 3000 * 8


def test_evaluation_memory_does_not_grow_with_the_stages():
    # one stage's record at a time: a record kept past its stage would
    # add about 2 MiB a stage to the 4 MiB peak
    assert _evaluation_peak(8, work=True) <= \
        1.25 * _evaluation_peak(2, work=True)


@pytest.mark.parametrize("B, M, K, V, density, one_word", [
    (16, 5, 3, 200, 0.1, False),
    (8, 3, 4, 50, 0.0, False),       # no entries in the stage: L = 0
    (12, 4, 3, 60, 0.2, True),       # every document of one word: L = 1
    (12, 1, 5, 80, 0.2, False),      # M = 1
    (10, 4, 40, 120, 0.3, False),    # K >= 32
    (64, 5, 8, 1000, 0.05, False),   # corpus-scale
])
def test_nonzero_backward_matches_the_dense_r_products(B, M, K, V, density,
                                                       one_word):
    rng = np.random.default_rng(B * V + K)
    theta, bcols, rows, cols = _stage(rng, B, M, K, V, density)
    if one_word:
        rows, first = np.unique(rows, return_index=True)
        cols = cols[first]
    elif rows.size:
        # a one-word document among longer ones
        keep = (rows != rows[0]) | (np.arange(rows.size) == 0)
        rows, cols = rows[keep], cols[keep]
    g = -rng.random((rows.size, M))
    _, *layout = nonzero_probs(theta, bcols, rows, cols)
    gtheta, gb = nonzero_backward(g, theta, *layout, V)
    gtheta_ref, gb_ref = reconstruction_backward_ref(g, theta, bcols, rows,
                                                     cols)
    assert gtheta.shape == (B, M, K) and gb.shape == (V, K)
    # every term of a sum has g's sign, so no sum cancels
    np.testing.assert_allclose(gtheta, gtheta_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gb, gb_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("C", [0, 2])
def test_encoder_backward_is_the_previous_mean_columns(C):
    V, P, E, K, H, B = 300, 3, 2, 8, 16, 20
    enc = StageEncoder.init(V=V, P=P, E=E, K=K, H=H,
                            rng=np.random.default_rng(C), scale=0.3)
    rng = np.random.default_rng(10 + C)
    inp = rng.random((B, enc.in_dim))
    _, _, cache = enc.forward(inp, rng.standard_normal((C, B, E)))
    gmu, gsg = rng.standard_normal((2, 1 + C, B, K))
    gin, _ = enc.backward(cache, gmu, gsg)
    full = encoder_input_grad_ref(enc, cache, gmu, gsg)
    assert gin.shape == (B, K)
    np.testing.assert_allclose(gin, full[:, -K:], rtol=1e-12, atol=1e-12)


def test_a_stage_with_no_entries_has_zero_topic_gradient():
    corpus = tiny_corpus(N=4, T=3, V=6, missing=[(i, 1) for i in range(4)])
    cfg = make_cfg(n_topics=3, m_samples=2)
    gen, enc = default_init(corpus, cfg)
    batch = CorpusArrays(corpus).batch(np.arange(4))
    eps = np.random.default_rng(2).standard_normal((4, 3, 2, 3))
    bcols = np.stack([column_softmax(gen.beta)] * 3)
    res = longitudinal_loss(batch, gen, enc, cfg, eps, stage_bcols=bcols)
    gb = res.grads["bcols_stage"]
    assert not gb[1].any() and gb[0].any() and gb[2].any()
    assert all(np.isfinite(g).all() for g in res.grads.values())


def test_a_training_call_holds_no_v_wide_block():
    B, V, K, M, T = 64, 20_000, 3, 5, 2
    corpus, _ = simulate(SimConfig(n_subjects=B, n_stages=T, vocab_size=V,
                                   n_topics=K, n_covariates=2, seed=6))
    cfg = make_cfg(n_topics=K, m_samples=M, hidden_enc=8)
    gen, enc = default_init(corpus, cfg)
    batch = CorpusArrays(corpus).batch(np.arange(B))
    eps = np.random.default_rng(0).standard_normal((B, T, M, K))
    # the encoder inputs a fit allocates once and passes to every call
    work = np.zeros((T * B, enc.stages[0].in_dim))
    used = _traced_peak(
        lambda: longitudinal_loss(batch, gen, enc, cfg, eps, work=work))
    # a quarter of one (B * M, V) float64 block, 51.2 MB
    assert used < B * M * V * 8 / 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_stage_prior_is_the_sample_free_formula(data):
    # the first stage runs the prior pass with S = 1 previous sample (eta0)
    # and weight M // S = M: its KL and every trans0 gradient are the bits
    # of the sample-free (B, K) forms
    N, V = 4, 6
    T = data.draw(st.integers(1, 3), label="T")
    M = data.draw(st.integers(1, 3), label="M")
    hidden = data.draw(st.sampled_from([0, 3]), label="hidden_trans")
    kind = data.draw(st.sampled_from(["none", "info_radius"]), label="kind")
    gaps = data.draw(st.lists(st.integers(1, N - 1), unique=True,
                              max_size=N - 1), label="missing stage 1")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    corpus = tiny_corpus(N=N, T=T, V=V, seed=seed,
                         missing=[(i, 0) for i in gaps])
    cfg = make_cfg(m_samples=M, hidden_trans=hidden, dist_kind=kind,
                   dist_weight=0.0 if kind == "none" else 0.5)
    gen, enc = default_init(corpus, cfg)
    assert not gen.share_across_stages
    batch = CorpusArrays(corpus).batch(np.arange(N))
    K = cfg.n_topics
    eps = np.random.default_rng(seed).standard_normal((N, T, M, K))
    res = longitudinal_loss(batch, gen, enc, cfg, eps)

    # the encoder's first head, with the loss's counterfactual shifts
    C = batch.cf_encs.shape[0] if kind != "none" else 0
    mu, sg, _ = next(stage_heads(
        batch, enc, gen.eta0, batch.cf_encs[:C] - batch.y_enc,
        np.zeros((N, enc.stages[0].in_dim)), False))
    mu_q, sg_q = mu[0], sg[0]
    tin = np.concatenate([np.broadcast_to(gen.eta0, (N, K)), batch.x[:, 0],
                          batch.y_enc], axis=1)
    mu0, cache = gen.transitions[0].forward(tin)
    s0, pm, scale = gen.sigma0, batch.present, 1.0 / (N * M)
    kl0 = scale * M * float(pm[:, 0] @ _kl_rows(mu_q, sg_q, mu0, s0))
    assert res.components["kl"][0].tobytes() == np.float64(kl0).tobytes()
    w = scale * pm[:, 0][:, None]
    _, tg = gen.transitions[0].backward(
        cache, -(M * w) * (mu_q - mu0) / s0 ** 2)
    assert sorted(tg) == sorted(k[len("trans0."):] for k in res.grads
                                if k.startswith("trans0."))
    for name, val in tg.items():
        assert res.grads[f"trans0.{name}"].tobytes() == val.tobytes()
