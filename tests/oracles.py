"""Reference implementations of the package's batched kernels: one
document's posterior moments, its group distance, the collapsed word
distribution, its multinomial log-likelihood, one transition mean and a
corpus drawn from the generative process; a whole corpus's posterior moments
in one pass over all subjects, which the row blocks must match; the
closed-form Gaussian KL and pairwise separation terms for one document; the
loop forms of the group-distance kernel (one pass per counterfactual) and of
the evaluation metrics (topic alignment, UMass coherence, perplexity and the
group probe), which the stacked and vectorized kernels must match bit for
bit; and the dense (N, T, V) forms of the corpus's CSR view, the batch
gather and the sampler, which the sparse code must match exactly; a corpus
loader that reads every docs.jsonl line with json.loads, which the bulk
reader must match exactly; the optimizer step block by block, which the
flat one must match bit for bit; and the comparison of two ground truths. Only
tests call them, to check the package's code against a direct
computation."""

import itertools
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from longtopic import corpus as corpus_module
from longtopic.corpus import Corpus
from longtopic.errors import NumericError, ShapeError, UnknownDistance
from longtopic.evaluate import _as_stack, _topic_kl_matrix, top_words
from longtopic.inference.terms import (
    DISTANCE_KINDS,
    _kl_rows,
    distance_with_grad,
)
from longtopic.model import (
    PROB_FLOOR,
    column_softmax,
    default_vocab,
    encode_groups,
    sample_corpus,
    softmax,
)


def _check_scales(*scales):
    for s in scales:
        s = np.asarray(s, dtype=np.float64)
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise NumericError("scales must be positive and finite")


def gaussian_kl_term(mu_q, sigma_q, mu0, sigma0):
    """KL(N(mu_q, sigma_q^2) || N(mu0, sigma0^2)), summed over dimensions:
    sum_k log(sigma0/sigma_q) + (sigma_q^2 + (mu_q - mu0)^2)/(2 sigma0^2) - 1/2.
    """
    mu_q = np.asarray(mu_q, dtype=np.float64)
    sigma_q = np.asarray(sigma_q, dtype=np.float64)
    mu0 = np.broadcast_to(np.asarray(mu0, dtype=np.float64), mu_q.shape)
    sigma0 = np.broadcast_to(np.asarray(sigma0, dtype=np.float64), mu_q.shape)
    _check_scales(sigma_q, sigma0)
    return float(np.sum(
        np.log(sigma0 / sigma_q)
        + (sigma_q ** 2 + (mu_q - mu0) ** 2) / (2.0 * sigma0 ** 2)
        - 0.5))


def mi_term(mu_q, sigma_q, mu_cf, sigma_cf):
    """Factual/counterfactual separation term, summed over dimensions;
    symmetric under swapping the two distributions."""
    mu_q = np.asarray(mu_q, dtype=np.float64)
    sigma_q = np.asarray(sigma_q, dtype=np.float64)
    mu_cf = np.asarray(mu_cf, dtype=np.float64)
    sigma_cf = np.asarray(sigma_cf, dtype=np.float64)
    _check_scales(sigma_q, sigma_cf)
    ssum = sigma_q + sigma_cf
    return float(0.5 * np.sum(
        np.log(ssum / (4.0 * sigma_q * sigma_cf))
        + (mu_q - mu_cf) ** 2 / ssum
        + 0.5))


@dataclass
class PosteriorMoments:
    mu: np.ndarray     # (K,)
    sigma: np.ndarray  # (K,) strictly positive


def _no_shifts(enc, B):
    """The (0, B, E) group shifts that ask an encoder for its factual heads
    alone."""
    return np.empty((0, B, enc.E))


def _encoder_input(w, x, y_enc, prev_mean):
    w = np.asarray(w, dtype=np.float64).ravel()
    total = w.sum()
    wn = w / total if total > 0 else w
    return np.concatenate(
        [wn, np.ravel(x), np.ravel(y_enc), np.ravel(prev_mean)])[None, :]


def encode(w, x, y, prev_mean, params, t):
    """Factual posterior moments for one document slice at stage t.

    w: raw counts (V,), normalized to relative frequencies internally;
    x: covariates (P,); y: the subject's group label; prev_mean: the previous
    stage's variational mean (eta0 at the first stage).
    """
    enc = params.stages[t]
    y_enc = encode_groups(np.array([y]), params.n_groups)[0]
    mu, sigma, _ = enc.forward(_encoder_input(w, x, y_enc, prev_mean),
                               _no_shifts(enc, 1))
    return PosteriorMoments(mu=mu[0, 0], sigma=sigma[0, 0])


def encode_corpus_ref(fitted, corpus):
    """encode_corpus in one pass over all N subjects: each stage's input
    built densely from the (N, T, V) relative frequencies of the whole
    corpus."""
    wn = batch_ref(corpus, np.arange(corpus.n_subjects)).wn
    y_enc = encode_groups(corpus.groups, corpus.n_groups)
    N, T, K = corpus.n_subjects, corpus.n_stages, fitted.gen.n_topics
    mu_all, sg_all = np.zeros((2, T, N, K))
    prev = np.broadcast_to(fitted.gen.eta0, (N, K))
    for t in range(T):
        enc = fitted.enc.stages[t]
        inp = np.concatenate([wn[:, t], corpus.covariates[:, t], y_enc, prev],
                             axis=1)
        mu, sigma, _ = enc.forward(inp, _no_shifts(enc, N))
        mu_all[t], sg_all[t] = mu[0], sigma[0]
        prev = mu_all[t]
    return mu_all, sg_all


def counterfactual_encode(w, x, y, prev_mean, params, t):
    """Moments under each non-factual group label (ascending), all other
    inputs unchanged. Exactly n_groups - 1 entries."""
    out = []
    for g in range(params.n_groups):
        if g == int(y):
            continue
        out.append(encode(w, x, g, prev_mean, params, t))
    return out


def group_distance(kind, factual, counterfactuals):
    """Distance between one document's factual posterior and its
    counterfactuals (PosteriorMoments each). kind 'none' returns 0 without
    touching the counterfactual list contents."""
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    if kind == "none":
        return 0.0
    if not counterfactuals:
        raise ShapeError("need at least one counterfactual")
    mu = np.asarray(factual.mu, dtype=np.float64)[None, :]
    s = np.asarray(factual.sigma, dtype=np.float64)[None, :]
    mu_cfs = [np.asarray(c.mu, dtype=np.float64)[None, :]
              for c in counterfactuals]
    s_cfs = [np.asarray(c.sigma, dtype=np.float64)[None, :]
             for c in counterfactuals]
    d, *_ = distance_with_grad(kind, mu, s, mu_cfs, s_cfs)
    return float(d[0])


def distance_with_grad_ref(kind, mu, s, mu_cfs, s_cfs):
    """Batched distances with hand gradients, one Python pass per
    counterfactual (the loop form of terms.distance_with_grad).

    mu, s: (B, K) factual moments; mu_cfs, s_cfs: C-long lists of (B, K).
    Returns (d (B,), gmu, gs, gmu_cfs, gs_cfs) where the gradients are the raw
    partial derivatives of d per row.
    """
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    B, K = mu.shape
    zeros = np.zeros((B, K))
    C = len(mu_cfs)
    if kind == "none":
        return (np.zeros(B), zeros, zeros.copy(),
                [np.zeros((B, K)) for _ in range(C)],
                [np.zeros((B, K)) for _ in range(C)])
    if C == 0:
        raise ShapeError("need at least one counterfactual")

    gmu = np.zeros((B, K))
    gs = np.zeros((B, K))
    gmu_cfs = [np.zeros((B, K)) for _ in range(C)]
    gs_cfs = [np.zeros((B, K)) for _ in range(C)]
    d = np.zeros(B)

    if kind == "mi_jsd":
        for c in range(C):
            mu2, s2 = mu_cfs[c], s_cfs[c]
            ssum = s + s2
            diff = mu - mu2
            d += 0.5 * np.sum(np.log(ssum / (4.0 * s * s2))
                              + diff ** 2 / ssum + 0.5, axis=1)
            gmu += diff / ssum
            gmu_cfs[c] -= diff / ssum
            common = 0.5 * (1.0 / ssum - diff ** 2 / ssum ** 2)
            gs += common - 0.5 / s
            gs_cfs[c] += common - 0.5 / s2
        return d, gmu, gs, gmu_cfs, gs_cfs

    if kind == "info_radius":
        # members: factual + counterfactuals, equal weights 1/G
        mus = [mu] + list(mu_cfs)
        ss = [s] + list(s_cfs)
        G = len(mus)
        mu_m = sum(mus) / G
        var_m = sum(si ** 2 + mi ** 2 for mi, si in zip(mus, ss)) / G \
            - mu_m ** 2
        var_m = np.maximum(var_m, 1e-300)
        a_bar = sum(si ** 2 + (mi - mu_m) ** 2
                    for mi, si in zip(mus, ss)) / G
        for mi, si in zip(mus, ss):
            d += np.sum(0.5 * np.log(var_m) - np.log(si)
                        + (si ** 2 + (mi - mu_m) ** 2) / (2.0 * var_m)
                        - 0.5, axis=1)
        d /= G
        # direct dependence on mu_m cancels (the deviations sum to zero);
        # the mixture variance path remains
        gvar = 0.5 / var_m - a_bar / (2.0 * var_m ** 2)
        gs_all = []
        gmu_all = []
        for mi, si in zip(mus, ss):
            dev = mi - mu_m
            gmu_all.append(dev / (G * var_m) + gvar * (2.0 / G) * dev)
            gs_all.append((si / var_m - 1.0 / si) / G
                          + gvar * (2.0 * si / G))
        gmu[:] = gmu_all[0]
        gs[:] = gs_all[0]
        for c in range(C):
            gmu_cfs[c][:] = gmu_all[c + 1]
            gs_cfs[c][:] = gs_all[c + 1]
        return d, gmu, gs, gmu_cfs, gs_cfs

    if kind == "avg_divergence":
        for c in range(C):
            mu2, s2 = mu_cfs[c], s_cfs[c]
            diff = mu - mu2
            d += _kl_rows(mu, s, mu2, s2)
            gmu += diff / s2 ** 2
            gs += -1.0 / s + s / s2 ** 2
            gmu_cfs[c] -= diff / s2 ** 2
            gs_cfs[c] += 1.0 / s2 - (s ** 2 + diff ** 2) / s2 ** 3
        d /= C
        gmu /= C
        gs /= C
        for c in range(C):
            gmu_cfs[c] /= C
            gs_cfs[c] /= C
        return d, gmu, gs, gmu_cfs, gs_cfs

    # norm family: no scale dependence
    for c in range(C):
        diff = mu - mu_cfs[c]
        if kind == "l1":
            d += np.sum(np.abs(diff), axis=1)
            g = np.sign(diff)
        elif kind == "l2":
            norm = np.sqrt(np.sum(diff ** 2, axis=1))
            d += norm
            safe = np.maximum(norm, 1e-300)
            g = diff / safe[:, None]
        else:  # linf; subgradient at the first maximizing coordinate
            idx = np.argmax(np.abs(diff), axis=1)
            rows = np.arange(B)
            d += np.abs(diff[rows, idx])
            g = np.zeros_like(diff)
            g[rows, idx] = np.sign(diff[rows, idx])
        gmu += g
        gmu_cfs[c] -= g
    d /= C
    gmu /= C
    for c in range(C):
        gmu_cfs[c] /= C
    return d, gmu, gs, gmu_cfs, gs_cfs


def collapsed_word_distribution(theta, beta):
    """Word distribution theta . softmax_col(beta)^T with the topic assignment
    collapsed; a convex combination of simplices, so itself a V-simplex."""
    theta = np.asarray(theta, dtype=np.float64)
    b = column_softmax(beta)
    if theta.shape != (b.shape[1],):
        raise ShapeError(
            f"theta has shape {theta.shape}, expected ({b.shape[1]},)")
    return b @ theta


def multinomial_log_likelihood(counts, theta, beta):
    """Sum_v counts_v * log p_v under the collapsed word distribution,
    probabilities clipped to [1e-12, 1] before the log (never -inf, never
    positive when a mixture rounds just above 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    p = collapsed_word_distribution(theta, beta)
    if counts.shape != p.shape:
        raise ShapeError(
            f"counts has shape {counts.shape}, expected {p.shape}")
    return float(counts @ np.log(np.clip(p, PROB_FLOOR, 1.0)))


def forward_sample(params, covariates, groups, count_range, seed, vocab=None):
    """Sample a corpus from the generative process.

    Draws beta once from N(beta0_mean, delta2 I), runs the eta chain with
    variance a2 (deterministic when delta2 = a2 = 0), then one multinomial
    document per (subject, stage) with totals uniform on the inclusive
    count_range. Bit-reproducible for a fixed seed.
    """
    covariates = np.asarray(covariates, dtype=np.float64)
    if covariates.ndim != 3:
        raise ShapeError("covariates must be (N, T, P)")
    N, T, P = covariates.shape
    if T != params.n_stages:
        raise ShapeError(
            f"covariates have {T} stages, transitions {params.n_stages}")
    groups = np.asarray(groups)
    G = max(2, int(groups.max()) + 1)
    yenc = encode_groups(groups, G)
    lo, hi = int(count_range[0]), int(count_range[1])
    if lo < 1 or hi < lo:
        raise ShapeError("count_range must satisfy 1 <= lo <= hi")

    rng = np.random.default_rng(seed)
    V, K = params.beta.shape
    beta = params.beta0_mean + np.sqrt(params.delta2) * rng.standard_normal(
        (V, K)) if params.delta2 > 0 else params.beta0_mean.copy()
    b = column_softmax(beta)

    eta = np.broadcast_to(params.eta0, (N, K)).copy()
    theta = np.zeros((T, N, K))
    for t in range(T):
        inp = np.concatenate([eta, covariates[:, t, :], yenc], axis=1)
        mu, _ = params.transitions[t].forward(inp)
        noise = rng.standard_normal((N, K)) if params.a2 > 0 else 0.0
        eta = mu + np.sqrt(params.a2) * noise
        theta[t] = softmax(eta, axis=1)

    vocab = vocab if vocab is not None else default_vocab(V)
    return sample_corpus(rng, np.broadcast_to(b, (T, V, K)), theta, (lo, hi),
                         covariates, groups, vocab, G)


def transition_mean(t, eta_prev, x_t, y_enc, model):
    """Prior mean mu0_t = f_t(eta_prev, x_t, y_enc) for a single subject.

    t is the 1-based stage index (t=1 pairs with eta_prev = eta0); it only
    labels the call, the mapping is carried by `model`.
    """
    if t < 1:
        raise ShapeError("stage index t must be >= 1")
    inp = np.concatenate([np.ravel(eta_prev), np.ravel(x_t), np.ravel(y_enc)])
    if inp.shape[0] != model.in_dim:
        raise ShapeError(
            f"concatenated input has dim {inp.shape[0]},"
            f" expected {model.in_dim}")
    out, _ = model.forward(inp[None, :])
    return out[0]


# -- evaluation metrics, one Python loop per stage, topic and word pair ------


def align_topics_ref(beta_hat, beta_true):
    """Per-stage permutation by scoring each of the K! permutations in
    itertools order with Python's sum; strict < keeps the first minimum."""
    bh = _as_stack(beta_hat, "beta_hat")
    bt = _as_stack(beta_true, "beta_true")
    T, V, K = bh.shape
    perms = []
    for t in range(T):
        cost = _topic_kl_matrix(bh[t], bt[t])
        best, best_perm = np.inf, None
        for perm in itertools.permutations(range(K)):
            c = sum(cost[perm[k], k] for k in range(K))
            if c < best:  # strict: itertools yields ascending lexicographic
                best, best_perm = c, perm
        perms.append(list(best_perm))
    return perms


def umass_coherence_ref(beta_hat, corpus, top_n=15):
    """UMass coherence with one boolean column intersection per word pair."""
    bh = _as_stack(beta_hat, "beta_hat")
    T, V, K = bh.shape
    tops = top_words(bh, top_n)
    W = corpus.dense_counts()                   # (N, T, V)
    present = corpus.present
    total, cells = 0.0, 0
    for t in range(T):
        occ = (W[present[:, t], t] > 0)         # (N_t, V) word-in-doc flags
        doc_freq = occ.sum(axis=0)
        for k in range(K):
            words = tops[t, k]
            score = 0.0
            for i in words:
                for j in words:
                    if i == j or doc_freq[j] == 0:
                        continue
                    co = int(np.sum(occ[:, i] & occ[:, j]))
                    score += np.log((co + 1.0) / doc_freq[j])
            total += score
            cells += 1
    return total / cells


def perplexity_ref(beta_hat, theta_hat, corpus):
    """Perplexity from whole-array expressions, a new (N, V) array each."""
    bh = _as_stack(beta_hat, "beta_hat")
    th = np.asarray(theta_hat, dtype=np.float64)
    T = bh.shape[0]
    W = corpus.dense_counts()
    present = corpus.present
    out = 0.0
    for t in range(T):
        probs = th[t] @ bh[t].T                 # (N, V)
        logp = np.log(np.maximum(probs, PROB_FLOOR))
        cnt = W[:, t].sum(axis=1)
        mask = present[:, t]
        per_doc = -(W[:, t] * logp).sum(axis=1)[mask] / cnt[mask]
        out += np.exp(per_doc.mean())
    return float(out / T)


def probe_fit_ref(X, y, G, n_iter=500, step=0.1, l2=1e-4):
    """Final (Wp, b) of the group probe's gradient descent, in the
    (samples, groups) layout with the package's row softmax."""
    n, K = X.shape
    Y = np.zeros((n, G))
    Y[np.arange(n), y] = 1.0
    Wp = np.zeros((K, G))
    b = np.zeros(G)
    for _ in range(n_iter):
        p = softmax(X @ Wp + b, axis=1)
        r = (p - Y) / n
        Wp -= step * (X.T @ r + l2 * Wp)
        b -= step * r.sum(axis=0)
    return Wp, b


# -- dense forms of the corpus's CSR view -------------------------------------


def dense_counts_ref(corpus):
    """(N, T, V) float64 counts filled cell by cell from corpus.docs."""
    W = np.zeros((corpus.n_subjects, corpus.n_stages, corpus.vocab_size))
    for i in range(corpus.n_subjects):
        for t in range(corpus.n_stages):
            cell = corpus.docs[i][t]
            if cell:
                W[i, t, list(cell.keys())] = list(cell.values())
    return W


def batch_ref(corpus, idx):
    """A batch from dense arrays: the (B, T, V) counts and relative
    frequencies of subjects idx, and per stage the np.nonzero (rows, cols)
    of the counts block and the counts there."""
    W = dense_counts_ref(corpus)
    totals = W.sum(axis=2, keepdims=True)
    wn = np.divide(W, totals, out=np.zeros_like(W), where=totals > 0)
    idx = np.asarray(idx)
    counts = W[idx]
    cells = [np.nonzero(counts[:, t] > 0) for t in range(corpus.n_stages)]
    return SimpleNamespace(
        counts=counts, wn=wn[idx], cells=cells,
        c_nz=[counts[r, t, c] for t, (r, c) in enumerate(cells)])


def sample_corpus_ref(rng, topics, theta, count_range, covariates, groups,
                      vocab, n_groups):
    """The sampler drawing into one dense (N, T, V) count tensor, in the
    package's draw order: every total, then the cells subject by subject,
    stage by stage."""
    T, N, _ = theta.shape
    lo, hi = count_range
    totals = rng.integers(lo, hi + 1, size=(N, T))
    counts = np.zeros((N, T, topics.shape[1]), dtype=np.int64)
    for i in range(N):
        for t in range(T):
            p = topics[t] @ theta[t, i]
            counts[i, t] = rng.multinomial(totals[i, t], p)
    return Corpus.from_dense(counts, covariates, groups, vocab,
                             n_groups=n_groups)


def load_corpus_ref(path, allow_missing=False):
    """load_corpus with every docs.jsonl line read by json.loads and its
    per-line checks, in line order, and the records built by Corpus.build."""
    cm = corpus_module
    vocab = cm._read_vocab(os.path.join(path, cm.VOCAB_FILE))
    groups = cm._read_groups(os.path.join(path, cm.GROUPS_FILE))
    covariates = cm._read_meta(os.path.join(path, cm.META_FILE), len(groups))
    fname = os.path.join(path, cm.DOCS_FILE)
    records = [cm._parse_doc_line(fname, ln, line) for ln, line in
               enumerate(cm._read_lines(fname), start=1) if line.strip()]
    return Corpus.build(records, covariates, groups, vocab,
                        allow_missing=allow_missing)


def truths_equal(a, b):
    """Two GroundTruth objects hold the same arrays, to 1e-12."""
    return (
        np.allclose(a.beta_true, b.beta_true, atol=1e-12)
        and np.allclose(a.theta_true, b.theta_true, atol=1e-12)
        and set(a.gamma) == set(b.gamma)
        and all(np.allclose(a.gamma[k], b.gamma[k], atol=1e-12)
                for k in a.gamma)
    )


class OptimizerRef:
    """The optimizer step block by block, as it was before its state went
    flat: per-block velocity and moment arrays and one update per registry
    entry, with the same element-wise expressions in the same order.
    Adam's overflow check names the first block whose second moment is not
    finite (the blocks before it have moved by then)."""

    def __init__(self, registry, cfg):
        self.registry = registry
        self.kind = cfg.optimizer
        self.momentum = cfg.momentum
        self.t = 0
        self.v = {k: np.zeros_like(a) for k, a in registry}
        self.m = {k: np.zeros_like(a) for k, a in registry}

    def step(self, grads, lr):
        self.t += 1
        for key, arr in self.registry:
            g, v = grads[key], self.v[key]
            if self.kind == "sgd":
                v *= self.momentum
                v += g
                s = lr * v
            else:
                m = self.m[key]
                m *= 0.9
                m += 0.1 * g
                v *= 0.999
                v += (0.001 * g) * g
                if not np.isfinite(v.max()):
                    raise NumericError(
                        f"the second moment of {key} overflowed")
                d = np.sqrt(v / (1.0 - 0.999 ** self.t)) + 1e-8
                s = lr * (m / (1.0 - 0.9 ** self.t)) / d
            arr -= s
