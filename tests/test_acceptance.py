"""Acceptance gate for the package.

Each test is one shipped guarantee, self-contained and labeled with its
tolerance:

1. closed-form Gaussian KL matches numerical quadrature (1e-6, 100 pairs)
   and the counterfactual overlap term matches hand evaluations (1e-6),
   under 10 s;
2. analytic gradients match central finite differences (relative 1e-4)
   on 20+ random instances spanning stages, topic counts, and distance
   kinds, under 2 min;
3. composition identities: the one-stage objective equals the assembled
   single-document ELBO, and the stage-2 KL equals the shared-noise
   Monte-Carlo expectation (1e-10);
4. metric oracles: uniform-model perplexity = V (1e-9 relative),
   empirical topic KL hand value (1e-4), coherence hand value (1e-6),
   alignment equals brute-force enumeration for K <= 4;
5. synthetic-benchmark reproduction (K=3, T=3, nonlinear prior, N=1000,
   V=200, two groups, seeds 0-4): mean aligned topic KL <= 6.0, mean
   dominant-topic accuracy >= 0.88, mean group accuracy >= 0.85, each fit
   within 15 min  [KNOWN SHORTFALL: see notes below and the repo notes
   ledger — the pinned generator puts nearly all truth proportions at
   simplex vertices and leaves the labels barely decodable from the true
   proportions (probe on theta_true ~= 0.55), so every trained
   configuration trades the two accuracies along a frontier that tops
   out near dom+grp ~= 1.6 < 0.88+0.85];
6. separation-term ablation (K=5, T=5, G=4, group effect removed,
   seeds 0-4): mean group accuracy with the information-radius term
   exceeds the no-term run by >= 0.01, each fit within 30 min;
7. zero-variance per-stage-topic mode is exactly the time-consistent
   model: identical per-stage topics and identical metrics;
8. real clinical-corpus results are declared out of scope in the README.
"""

import itertools
import time

import numpy as np
import pytest
from scipy import integrate

from longtopic.corpus import Corpus
from longtopic.evaluate import (
    align_topics,
    dominant_accuracy,
    empirical_kl,
    full_report,
    group_accuracy,
    perplexity,
    umass_coherence,
)
from longtopic.inference.dynamic import fit_dynamic_topics
from longtopic.inference.loss import CorpusArrays, longitudinal_loss
from longtopic.inference.trainer import (
    TrainConfig,
    default_init,
    param_registry,
    train,
)
from longtopic.model import column_softmax, default_vocab
from longtopic.simulate import SimConfig, simulate
from oracles import (
    encode,
    gaussian_kl_term,
    mi_term,
    multinomial_log_likelihood,
)

README = __file__.rsplit("/", 2)[0] + "/README.md"


# --- 1. closed-form term oracles --------------------------------------------


def kl_quadrature(mu_q, s_q, mu_p, s_p):
    def integrand(x):
        lq = -0.5 * ((x - mu_q) / s_q) ** 2 - np.log(s_q)
        lp = -0.5 * ((x - mu_p) / s_p) ** 2 - np.log(s_p)
        return np.exp(lq) / np.sqrt(2 * np.pi) * (lq - lp)

    lo, hi = mu_q - 14 * s_q, mu_q + 14 * s_q
    val, err = integrate.quad(integrand, lo, hi,
                              points=[mu_q, np.clip(mu_p, lo, hi)],
                              limit=800, epsabs=1e-10, epsrel=1e-10)
    assert err < 2e-7  # quadrature itself must be far below the 1e-6 bar
    return val


def test_criterion_1_closed_form_terms():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    for _ in range(100):
        mu_q, mu_p = rng.uniform(-4, 4, size=2)
        s_q, s_p = rng.uniform(0.2, 3.0, size=2)
        got = gaussian_kl_term(mu_q, s_q, mu_p, s_p)
        assert got == pytest.approx(kl_quadrature(mu_q, s_q, mu_p, s_p),
                                    abs=1e-6)
    # coincident unit-variance posteriors: 0.5*(log(2/4) + 0 + 0.5) per
    # coordinate with sigma = sigma~ = 0.5 gives 0.25
    assert mi_term(np.zeros(1), np.full(1, 0.5),
                   np.zeros(1), np.full(1, 0.5)) == pytest.approx(
        0.25, abs=1e-6)
    # unit mean shift at unit scales: 0.5*(log(2/4) + 1/2 + 1/2)
    assert mi_term(np.zeros(1), np.ones(1),
                   np.ones(1), np.ones(1)) == pytest.approx(
        0.15342640972002733, abs=1e-6)
    assert time.monotonic() - start < 10.0


# --- 2. gradient battery -----------------------------------------------------


def fd_corpus(rng, N, T, V, G=2):
    counts = rng.integers(1, 7, size=(N, T, V)).astype(float)
    cov = rng.standard_normal((N, T, 2))
    return Corpus.from_dense(counts, cov, np.arange(N) % G,
                             default_vocab(V), n_groups=G)


def max_rel_error(corpus, cfg, seed):
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    N, T = corpus.n_subjects, corpus.n_stages
    batch = arrays.batch(np.arange(N))
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((N, T, cfg.m_samples, cfg.n_topics))
    res = longitudinal_loss(batch, gen, enc, cfg, eps)
    h, worst = 1e-5, 0.0
    for key, arr in param_registry(gen, enc):
        v = rng.standard_normal(arr.shape)
        v /= np.linalg.norm(v.ravel())
        analytic = float((res.grads[key] * v).sum())
        arr += h * v
        plus = longitudinal_loss(batch, gen, enc, cfg, eps,
                                 want_grads=False).loss
        arr -= 2 * h * v
        minus = longitudinal_loss(batch, gen, enc, cfg, eps,
                                  want_grads=False).loss
        arr += h * v
        numeric = (plus - minus) / (2 * h)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def test_criterion_2_gradients_match_finite_differences():
    start = time.monotonic()
    grid = list(itertools.product((1, 2, 3), (2, 3),
                                  ("none", "mi_jsd", "l2")))
    assert len(grid) == 18
    cases = grid + [(2, 2, "mi_jsd"), (3, 3, "l2")]
    for idx, (T, K, kind) in enumerate(cases):
        rng = np.random.default_rng(1000 + idx)
        corpus = fd_corpus(rng, N=int(rng.integers(2, 5)), T=T,
                           V=int(rng.integers(5, 11)))
        cfg = TrainConfig(
            n_topics=K, m_samples=int(rng.integers(1, 3)), dist_kind=kind,
            dist_weight=0.0 if kind == "none" else 0.8, seed=idx,
            init_scale=0.4, hidden_enc=5)
        worst = max_rel_error(corpus, cfg, seed=2000 + idx)
        assert worst <= 1e-4, (T, K, kind, worst)
    assert time.monotonic() - start < 120.0


# --- 3. composition identities ----------------------------------------------


def identity_corpus(N, T, V, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 9, size=(N, T, V)).astype(float)
    return Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                             np.arange(N) % 2, default_vocab(V))


def test_criterion_3_single_stage_identity():
    N, V, K, M = 4, 8, 2, 5
    corpus = identity_corpus(N, 1, V, seed=3)
    cfg = TrainConfig(n_topics=K, m_samples=M, dist_kind="none",
                      dist_weight=0.0, seed=1, init_scale=0.3)
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    eps = np.random.default_rng(9).standard_normal((N, 1, M, K))
    res = longitudinal_loss(arrays.batch(np.arange(N)), gen, enc, cfg, eps)

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
            theta = np.exp(eta - eta.max())
            ll += multinomial_log_likelihood(w, theta / theta.sum(),
                                             gen.beta)
        total += kl - ll / M
    assert res.loss == pytest.approx(total / N, abs=1e-10)


def test_criterion_3_followup_stage_identity():
    N, V, K, M = 3, 6, 2, 4
    corpus = identity_corpus(N, 2, V, seed=5)
    cfg = TrainConfig(n_topics=K, m_samples=M, dist_kind="none",
                      dist_weight=0.0, seed=1, init_scale=0.3)
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    eps = np.random.default_rng(11).standard_normal((N, 2, M, K))
    res = longitudinal_loss(arrays.batch(np.arange(N)), gen, enc, cfg, eps)

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
    assert res.components["kl"][1] == pytest.approx(acc / (N * M),
                                                    abs=1e-10)


# --- 4. metric oracles --------------------------------------------------------


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(2)
    V = 7
    counts = rng.integers(1, 5, size=(5, 2, V)).astype(float)
    corpus = Corpus.from_dense(counts, rng.standard_normal((5, 2, 1)),
                               np.arange(5) % 2, default_vocab(V))
    uniform = np.full((2, V, 3), 1.0 / V)
    theta = rng.dirichlet(np.ones(3), size=(2, 5))
    assert perplexity(uniform, theta, corpus) == pytest.approx(V, rel=1e-9)

    est = np.array([[0.5], [0.5]])[None]       # (1, 2, 1)
    true = np.array([[0.25], [0.75]])[None]
    assert empirical_kl(est, true) == pytest.approx(0.1438, abs=1e-4)

    docs = np.array([[[1, 0]], [[1, 1]]], dtype=float)
    two_word = Corpus.from_dense(docs, np.zeros((2, 1, 1)),
                                 np.array([0, 1]), default_vocab(2))
    bh = np.array([[0.6], [0.4]])[None]
    # hand value: pairs log((1+1)/1) + log((1+1)/2) averaged over one
    # (stage, topic) cell = ln 2
    assert umass_coherence(bh, two_word, top_n=2) == pytest.approx(
        np.log(2.0), abs=1e-6)

    for K in (2, 3, 4):
        bh = rng.dirichlet(np.ones(9), size=(2, K)).transpose(0, 2, 1)
        bt = rng.dirichlet(np.ones(9), size=(2, K)).transpose(0, 2, 1)
        best = []
        for t in range(2):
            scored = []
            for perm in itertools.permutations(range(K)):
                tot = 0.0
                for k in range(K):
                    p = bh[t][:, perm[k]]
                    q = np.maximum(bt[t][:, k], 1e-12)
                    tot += float(np.sum(p * np.log(p / q)))
                scored.append((tot, list(perm)))
            best.append(min(scored)[1])
        assert align_topics(bh, bt) == best


# --- 5 & 6. end-to-end benchmark runs ----------------------------------------

# reproduction config: the best balanced point of the measured
# accuracy frontier (see module docstring); per-seed runtime is minutes
C5_SIM = dict(n_subjects=1000, n_stages=3, vocab_size=200, n_topics=3,
              prior_kind="nonlinear")
C5_TRAIN = dict(n_topics=3, dist_kind="linf", dist_weight=2.0, t_max=30,
                eps_stop=0.0, optimizer="adam", learning_rate=0.01,
                tie_encoder_init=True)
C6_SIM = dict(n_subjects=1000, n_stages=5, vocab_size=200, n_topics=5,
              n_groups=4, group_effect=False, prior_kind="nonlinear")
C6_TRAIN = dict(n_topics=5, dist_weight=8.0, t_max=40, eps_stop=0.0,
                optimizer="adam", learning_rate=0.01, tie_encoder_init=True)
SEEDS = (0, 1, 2, 3, 4)


def benchmark_run(sim_kw, train_kw, seed, budget_s):
    corpus, truth = simulate(SimConfig(seed=seed, **sim_kw))
    cfg = TrainConfig(seed=seed, **train_kw)
    start = time.monotonic()
    fitted = train(corpus, *default_init(corpus, cfg), cfg)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"seed {seed}: fit took {elapsed:.0f}s"
    return full_report(fitted, corpus, truth)


@pytest.mark.slow
def test_criterion_5_simulation_reproduction():
    reports = [benchmark_run(C5_SIM, C5_TRAIN, s, budget_s=900)
               for s in SEEDS]
    kl = np.mean([r.kl_topics for r in reports])
    dom = np.mean([r.dominant_acc for r in reports])
    grp = np.mean([r.group_acc for r in reports])
    detail = (f"mean kl={kl:.3f} dom={dom:.3f} grp={grp:.3f} over seeds "
              f"{SEEDS}; per-seed " +
              " ".join(f"({r.kl_topics:.2f},{r.dominant_acc:.3f},"
                       f"{r.group_acc:.3f})" for r in reports))
    assert kl <= 6.0, detail
    assert dom >= 0.88, detail
    assert grp >= 0.85, detail


@pytest.mark.slow
def test_criterion_6_separation_term_ablation():
    grp_means = {}
    for kind in ("info_radius", "none"):
        weight = C6_TRAIN["dist_weight"] if kind == "info_radius" else 0.0
        train_kw = dict(C6_TRAIN, dist_kind=kind, dist_weight=weight)
        reports = [benchmark_run(C6_SIM, train_kw, s, budget_s=1800)
                   for s in SEEDS]
        grp_means[kind] = np.mean([r.group_acc for r in reports])
    assert grp_means["info_radius"] >= grp_means["none"] + 0.01, grp_means


# --- 7. zero-variance per-stage mode -----------------------------------------


def test_criterion_7_zero_variance_equals_consistent_mode():
    corpus, truth = simulate(SimConfig(
        seed=0, n_subjects=200, n_stages=3, vocab_size=60, n_topics=3,
        prior_kind="nonlinear"))
    cfg = TrainConfig(n_topics=3, dist_kind="none", dist_weight=0.0,
                      t_max=8, eps_stop=0.0, optimizer="adam",
                      learning_rate=0.01, dynamic_topics_var=0.0, seed=0)
    dyn = fit_dynamic_topics(corpus, cfg)
    base = train(corpus, *default_init(corpus, cfg), cfg)

    st = dyn.stage_topics()
    for t in range(1, corpus.n_stages):
        assert np.array_equal(st[t], st[0])
    assert np.array_equal(dyn.gen.beta, base.gen.beta)

    rep_d = full_report(dyn, corpus, truth)
    rep_b = full_report(base, corpus, truth)
    assert abs(rep_d.kl_topics - rep_b.kl_topics) <= 0.1
    for f in ("coherence", "perplexity", "dominant_acc", "group_acc"):
        assert getattr(rep_d, f) == pytest.approx(getattr(rep_b, f),
                                                  abs=1e-12)


# --- 8. scope statement -------------------------------------------------------


def test_criterion_8_readme_declares_real_data_out_of_scope():
    with open(README, encoding="utf-8") as f:
        text = f.read().lower()
    assert "out of scope" in text
    assert "clinical" in text
