from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from longtopic.corpus import Corpus
from longtopic.errors import ConfigError, DivergedError
from longtopic.inference.dynamic import (
    _chain_kl_and_grads,
    _topic_scale,
    fit_dynamic_topics,
)
from longtopic.inference.trainer import (
    TrainConfig,
    default_init,
    load_model,
    save_model,
    train,
)
from longtopic.model import (
    column_softmax,
    default_vocab,
    softmax,
    softmax_backward,
)
from oracles import (
    chain_kl_and_grads_ref,
    column_softmax_backward_ref,
    gaussian_kl_term,
)


def small_corpus(T=3, N=16, V=6, seed=0):
    rng = np.random.default_rng(seed)
    counts = np.zeros((N, T, V))
    for i in range(N):
        block = (0, 3) if i % 2 == 0 else (3, 6)
        for t in range(T):
            for v in rng.integers(*block, size=40):
                counts[i, t, v] += 1
    return Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                             np.arange(N) % 2, default_vocab(V))


def cfg_for(T, var, epochs=4, seed=0):
    return TrainConfig(n_topics=2, m_samples=2, t_max=epochs, eps_stop=0.0,
                       hidden_enc=8, learning_rate=0.01, optimizer="adam",
                       dist_kind="none", dist_weight=0.0, seed=seed,
                       dynamic_topics_var=var)


def test_zero_variance_routes_to_consistent_trainer():
    corpus = small_corpus()
    cfg = cfg_for(3, 0.0)
    base = train(corpus, *default_init(corpus, cfg), cfg)
    dyn = fit_dynamic_topics(corpus, cfg)
    assert np.array_equal(dyn.gen.beta, base.gen.beta)
    assert dyn.log[-1]["loss"] == base.log[-1]["loss"]
    st = dyn.stage_topics()
    assert st.shape == (3, 6, 2)
    for t in range(1, 3):
        assert np.array_equal(st[t], st[0])
    assert np.array_equal(dyn.beta_stage[1], dyn.beta_stage[0])
    assert np.all(dyn.beta_stage_scale == 0.0)


def test_zero_variance_accepts_none_config_field():
    corpus = small_corpus(T=1, N=8)
    cfg = cfg_for(1, None, epochs=2)
    dyn = fit_dynamic_topics(corpus, cfg)
    assert dyn.beta_stage is not None


def test_negative_variance_rejected():
    corpus = small_corpus(T=1, N=8)
    with pytest.raises(ConfigError, match="dynamic_topics_var must be >= 0"):
        fit_dynamic_topics(corpus, cfg_for(1, -0.5))


def test_chain_kl_composes_from_scalar_terms():
    rng = np.random.default_rng(3)
    T, V, K = 3, 4, 2
    mu_b = rng.standard_normal((T, V, K))
    sigma_b = rng.uniform(0.3, 1.2, size=(T, V, K))
    eps_b = rng.standard_normal((T, V, K))
    beta_tilde = mu_b + eps_b * sigma_b
    beta0 = rng.standard_normal((V, K))
    delta2, var = 1.7, 0.4
    kl, gmu, gsg = _chain_kl_and_grads(mu_b, sigma_b, eps_b, beta_tilde,
                                       beta0, delta2, var)
    want = sum(gaussian_kl_term(mu_b[0, v, k], sigma_b[0, v, k],
                                beta0[v, k], np.sqrt(delta2))
               for v in range(V) for k in range(K))
    want += sum(gaussian_kl_term(mu_b[t, v, k], sigma_b[t, v, k],
                                 beta_tilde[t - 1, v, k], np.sqrt(var))
                for t in range(1, T) for v in range(V) for k in range(K))
    assert kl == pytest.approx(want, rel=1e-12)
    assert gmu.shape == mu_b.shape and gsg.shape == sigma_b.shape


def test_chain_kl_zero_at_matched_prior():
    # mu_1 = beta0 with sigma_1^2 = delta2, and each follow-up centered on the
    # previous sample with sigma^2 = var, is exactly the prior: KL = 0
    V, K = 3, 2
    beta0 = np.zeros((V, K))
    var, delta2 = 0.25, 1.0
    mu_b = np.stack([beta0, beta0 + 0.7])
    sigma_b = np.stack([np.full((V, K), 1.0), np.full((V, K), 0.5)])
    eps_b = np.zeros((2, V, K))
    beta_tilde = mu_b + eps_b * sigma_b
    beta_tilde[0] = mu_b[1]  # make stage-2 prior mean coincide with mu_2
    kl, _, _ = _chain_kl_and_grads(mu_b, sigma_b, eps_b, beta_tilde,
                                   beta0, delta2, var)
    assert kl == pytest.approx(0.0, abs=1e-12)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def chain_case(T, V, K, ties, seed):
    """Chain inputs. With ties, a third of the entries sit exactly on their
    prior mean, a third of the noise is +-0, and in a sixth of the (v, k)
    cells every stage's mean is -0.0 on a +0.0 prior (diff = -0.0), so
    zeros of both signs meet in the sums."""
    rng = np.random.default_rng(seed)
    mu_b = rng.standard_normal((T, V, K))
    sigma_b = rng.uniform(0.05, 2.0, size=(T, V, K))
    eps_b = rng.standard_normal((T, V, K))
    beta0 = rng.standard_normal((V, K))
    if ties:
        eps_b[rng.random((T, V, K)) < 1 / 3] = 0.0
        eps_b[rng.random((T, V, K)) < 1 / 6] = -0.0
        on_prior = rng.random((T, V, K)) < 1 / 3
        mu_b[0][on_prior[0]] = beta0[on_prior[0]]
        for t in range(1, T):
            prev = mu_b[t - 1] + eps_b[t - 1] * sigma_b[t - 1]
            mu_b[t][on_prior[t]] = prev[on_prior[t]]
        signed = rng.random((V, K)) < 1 / 6
        mu_b[:, signed], eps_b[:, signed], beta0[signed] = -0.0, 0.0, 0.0
    return mu_b, sigma_b, eps_b, mu_b + eps_b * sigma_b, beta0


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 5), V=st.integers(1, 1200), K=st.integers(1, 9),
       ties=st.booleans(), delta2=st.sampled_from([1.0, 1.7, 0.1, 1e-3]),
       var=st.sampled_from([0.4, 0.1, 2.0, 1e-4]),
       seed=st.integers(0, 2**32 - 1))
@example(T=1, V=7, K=3, ties=True, delta2=1.0, var=0.1, seed=0)
@example(T=1, V=1200, K=9, ties=False, delta2=0.1, var=0.4, seed=1)
def test_stacked_chain_matches_stage_loop_bit_for_bit(T, V, K, ties, delta2,
                                                      var, seed):
    args = (*chain_case(T, V, K, ties, seed), delta2, var)
    kl, gmu, gsg = _chain_kl_and_grads(*args)
    kl_ref, gmu_ref, gsg_ref = chain_kl_and_grads_ref(*args)
    assert same_bits(kl, kl_ref)
    assert same_bits(gmu, gmu_ref) and same_bits(gsg, gsg_ref)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 5), V=st.integers(1, 1200), K=st.integers(1, 9),
       ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(T=1, V=7, K=3, ties=True, seed=0)
def test_stacked_softmax_and_jacobian_match_per_matrix(T, V, K, ties, seed):
    rng = np.random.default_rng(seed)
    beta = 3.0 * rng.standard_normal((T, V, K))
    g = rng.standard_normal((T, V, K))
    if ties:
        g[rng.random((T, V, K)) < 1 / 3] = 0.0
        g[rng.random((T, V, K)) < 1 / 6] = -0.0
    p = softmax(beta, axis=1)
    assert same_bits(p, np.stack([column_softmax(b) for b in beta]))
    assert same_bits(softmax_backward(p, g, axis=1), np.stack(
        [column_softmax_backward_ref(p[t], g[t]) for t in range(T)]))


def test_topic_scale_floor():
    s, raw = _topic_scale(np.array([-50.0, 0.0]))
    assert s[0] >= 1e-300 and s[0] > 0
    assert s[1] == pytest.approx(np.log(2.0), rel=1e-12)
    assert raw[1] == s[1]


def test_positive_variance_fits_and_descends():
    corpus = small_corpus()
    cfg = cfg_for(3, 0.3, epochs=5)
    dyn = fit_dynamic_topics(corpus, cfg)
    assert dyn.log[0]["epoch"] == 0
    assert dyn.log[-1]["loss"] < dyn.log[0]["loss"]
    assert dyn.beta_stage.shape == (3, 6, 2)
    assert np.all(dyn.beta_stage_scale > 0)
    st = dyn.stage_topics()
    assert np.allclose(st.sum(axis=1), 1.0, atol=1e-9)
    # stages are trained independently through their own reconstruction
    # terms, so the per-stage point estimates must have decoupled
    assert not np.array_equal(dyn.beta_stage[0], dyn.beta_stage[1])


def test_positive_variance_deterministic():
    corpus = small_corpus(N=10)
    cfg = cfg_for(3, 0.5, epochs=2)
    a = fit_dynamic_topics(corpus, cfg)
    b = fit_dynamic_topics(corpus, cfg)
    assert np.array_equal(a.beta_stage, b.beta_stage)
    assert np.array_equal(a.beta_stage_scale, b.beta_stage_scale)
    assert a.log[-1]["loss"] == b.log[-1]["loss"]


def test_positive_variance_divergence_is_named():
    corpus = small_corpus()
    cfg = replace(cfg_for(3, 0.3, epochs=6), optimizer="sgd",
                  learning_rate=1e9)
    # the loss logged at epoch 1 is finite, but above 1e6 times the initial
    # loss
    with pytest.raises(DivergedError, match=r"^loss \S+ at epoch 1 is above"
                       r" \S+, 1e\+06 times max\(\|initial loss\|, 1\)$"):
        fit_dynamic_topics(corpus, cfg)


def test_dynamic_model_round_trips_through_disk(tmp_path):
    corpus = small_corpus(N=10)
    dyn = fit_dynamic_topics(corpus, cfg_for(3, 0.5, epochs=2))
    path = tmp_path / "model.json"
    save_model(dyn, path)
    back = load_model(path)
    assert np.allclose(back.beta_stage, dyn.beta_stage, atol=1e-12)
    assert np.allclose(back.beta_stage_scale, dyn.beta_stage_scale,
                       atol=1e-12)
    assert np.allclose(back.stage_topics(), dyn.stage_topics(), atol=1e-12)
