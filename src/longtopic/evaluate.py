"""Evaluation metrics: topic alignment, topic KL, UMass coherence, perplexity,
dominant-topic accuracy, and the group-recovery probe.

Estimated topic indices are arbitrary, so truth-dependent metrics first align
per stage by exhaustive permutation search (K <= 8), minimizing the mean
KL(beta_hat || beta_true) over topics; the same permutation is reused for
dominant accuracy. All metrics are pure functions of arrays plus, for
coherence/perplexity, the corpus counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import write_json
from .errors import (DegenerateDesign, NumericError, ShapeError,
                     TooManyTopics)
from .model import PROB_FLOOR

MAX_ALIGN_TOPICS = 8


@dataclass
class MetricsReport:
    kl_topics: float | None
    coherence: float
    perplexity: float
    dominant_acc: float | None
    group_acc: float
    permutations: list | None  # per-stage topic orderings, None without truth

    def to_dict(self):
        return {
            "kl_topics": self.kl_topics,
            "coherence": self.coherence,
            "perplexity": self.perplexity,
            "dominant_acc": self.dominant_acc,
            "group_acc": self.group_acc,
            "permutations": self.permutations,
        }


def _as_stack(arr, name):
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 3 or a.size == 0:
        raise ShapeError(f"{name} must be a nonempty (T, V, K) stack;"
                         f" got shape {a.shape}")
    return a


def _topic_pair(beta_hat, beta_true):
    bh = _as_stack(beta_hat, "beta_hat")
    bt = _as_stack(beta_true, "beta_true")
    if bh.shape != bt.shape:
        raise ShapeError(f"shape mismatch: {bh.shape} vs {bt.shape}")
    if not (np.isfinite(bh).all() and np.isfinite(bt).all()):
        raise NumericError("topic-word distributions must be finite")
    return bh, bt


def _topic_kl_matrix(bh, bt):
    """cost[a, b] = KL(bh[:, a] || bt[:, b]) with the reference floored."""
    p = bh.T[:, None, :]                       # (K, 1, V)
    q = np.maximum(bt.T[None, :, :], PROB_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / q), 0.0)
    return terms.sum(axis=2)


def align_topics(beta_hat, beta_true):
    """Per-stage permutation perm with beta_hat[t][:, perm] matched to
    beta_true[t]; exhaustive search, ties to the lexicographically smallest
    permutation (all K! scored at once, columns added left to right)."""
    bh, bt = _topic_pair(beta_hat, beta_true)
    T, V, K = bh.shape
    if K > MAX_ALIGN_TOPICS:
        raise TooManyTopics(
            f"alignment is exhaustive and capped at K = {MAX_ALIGN_TOPICS};"
            f" got K = {K}")
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(K))),
        dtype=np.intp, count=math.factorial(K) * K).reshape(-1, K)
    perms = []
    for t in range(T):
        cost = _topic_kl_matrix(bh[t], bt[t])
        total = cost[table[:, 0], 0]
        for k in range(1, K):
            total += cost[table[:, k], k]
        perms.append(table[np.argmin(total)].tolist())
    return perms


def apply_permutations(arr, perms):
    """Reorder the last axis of a (T, ..., K) stack stage by stage."""
    a = np.asarray(arr)
    return np.stack([a[t][..., perms[t]] for t in range(a.shape[0])])


def empirical_kl(beta_hat, beta_true):
    """(1/(T K)) sum over stages and topics of KL(beta_hat || beta_true),
    reference floored at 1e-12; call after alignment."""
    bh, bt = _topic_pair(beta_hat, beta_true)
    T, V, K = bh.shape
    total = 0.0
    for t in range(T):
        cost = _topic_kl_matrix(bh[t], bt[t])
        total += float(np.trace(cost))
    return total / (T * K)


def top_words(beta_hat, top_n=15):
    """(T, K, top_n) word indices, most probable first; probability ties go to
    the lower word index."""
    bh = _as_stack(beta_hat, "beta_hat")
    T, V, K = bh.shape
    if top_n < 1:
        raise ShapeError(f"top_n must be at least 1; got {top_n}")
    n = min(top_n, V)
    out = np.empty((T, K, n), dtype=np.int64)
    for t in range(T):
        order = np.argsort(-bh[t], axis=0, kind="stable")
        out[t] = order[:n].T
    return out


def umass_coherence(beta_hat, corpus, top_n=15):
    """Mean over (stage, topic) of sum_{i != j} log((D_t(v_i, v_j) + 1) /
    D_t(v_j)), where D_t counts stage-t documents containing the word(s);
    j-words absent from stage t are skipped."""
    bh = _as_stack(beta_hat, "beta_hat")
    T, V, K = bh.shape
    tops = top_words(bh, top_n)
    (indptr, words, _, rows), N = corpus.csr(), corpus.n_subjects
    n = tops.shape[2]
    keep = ~np.eye(n, dtype=bool)
    total = 0.0
    for t in range(T):
        sl = slice(indptr[t * N], indptr[(t + 1) * N])
        occ = np.zeros((N, V), dtype=bool)      # word-in-doc flags
        occ[rows[sl], words[sl]] = True
        doc_freq = occ.sum(axis=0)[tops[t]]     # (K, n)
        # co-document counts: exact integers (missing cells add zero rows);
        # the pair terms add up in (i, j) order, a skipped pair as +0.0
        cols = occ[:, tops[t]].astype(np.float64).transpose(1, 2, 0)
        co = cols @ cols.transpose(0, 2, 1)     # (K, n, n)
        terms = np.log((co + 1.0) / np.maximum(doc_freq, 1)[:, None, :])
        terms = np.where(keep & (doc_freq > 0)[:, None, :], terms, 0.0)
        for score in np.cumsum(terms.reshape(K, n * n), axis=1)[:, -1]:
            total += score
    return total / (T * K)


def perplexity(beta_hat, theta_hat, corpus):
    """(1/T) sum_t exp of the stage's mean per-word negative log-likelihood
    under theta_hat . beta_hat^T; probabilities floored at 1e-12. Missing
    cells are excluded from the stage mean."""
    bh = _as_stack(beta_hat, "beta_hat")
    th = np.asarray(theta_hat, dtype=np.float64)
    T, V, K = bh.shape
    if th.ndim != 3 or th.shape[0] != T or th.shape[2] != K:
        raise ShapeError(f"theta_hat must be (T, N, {K}); got {th.shape}")
    N = corpus.n_subjects
    if corpus.vocab_size != V or N != th.shape[1]:
        raise ShapeError("corpus dimensions disagree with the model arrays")
    (indptr, words, counts, rows), totals = corpus.csr(), corpus.total_counts()
    out = 0.0
    terms = np.empty((N, V))                    # reused per stage
    for t in range(T):
        sl = slice(indptr[t * N], indptr[(t + 1) * N])
        np.matmul(th[t], bh[t].T, out=terms)    # word probabilities
        # the log at the nonzero counts only, scattered back into a zeroed
        # buffer, so the row sums add the same terms as a dense product
        logp = np.log(np.maximum(terms[rows[sl], words[sl]], PROB_FLOOR))
        terms.fill(0.0)
        terms[rows[sl], words[sl]] = logp * counts[sl]
        mask = corpus.present[:, t]
        per_doc = -terms.sum(axis=1)[mask] / totals[mask, t]
        out += np.exp(per_doc.mean())
    return float(out / T)


def dominant_accuracy(theta_hat, theta_true, mask=None):
    """Fraction of (stage, subject) cells whose largest-proportion topic
    matches; ties resolve to the lowest index on both sides. mask (T, N)
    restricts to observed cells."""
    th = np.asarray(theta_hat, dtype=np.float64)
    tt = np.asarray(theta_true, dtype=np.float64)
    if th.shape != tt.shape or th.ndim != 3:
        raise ShapeError(f"shape mismatch: {th.shape} vs {tt.shape}")
    hit = (th.argmax(axis=2) == tt.argmax(axis=2))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != hit.shape:
            raise ShapeError("mask must be (T, N)")
        if not mask.any():
            raise ShapeError("mask excludes every cell")
        hit = hit[mask]
    return float(np.mean(hit))


def group_accuracy(theta_hat, groups, mask=None, n_iter=500, step=0.1,
                   l2=1e-4):
    """In-sample accuracy of a softmax-regression probe of group labels on the
    pooled per-cell proportions.

    Full-batch gradient descent, zero init, L2 penalty on the weights (not
    the intercept). Constant features reduce to an intercept-only model whose
    accuracy is the majority-class share.
    """
    th = np.asarray(theta_hat, dtype=np.float64)
    if th.ndim != 3:
        raise ShapeError(f"theta_hat must be (T, N, K); got {th.shape}")
    T, N, K = th.shape
    groups = np.asarray(groups)
    if groups.shape != (N,):
        raise ShapeError("groups must be (N,)")
    G = max(2, int(groups.max()) + 1)
    X = th.reshape(T * N, K)
    y = np.tile(groups, T)
    if mask is not None:
        keep = np.asarray(mask, dtype=bool).reshape(T * N)
        X, y = X[keep], y[keep]
    n = X.shape[0]
    if n < G * K:
        raise DegenerateDesign(
            f"need at least G*K = {G * K} samples; got {n}")
    Wp, b = _probe_fit(X, y, G, n_iter, step, l2)
    pred = np.argmax(X @ Wp + b, axis=1)
    return float(np.mean(pred == y))


def _probe_fit(X, y, G, n_iter, step, l2):
    """The probe's final (Wp, b), float for float as softmax(X @ Wp + b,
    axis=1) would give them, with the softmax in a (G, n) layout: its row sum
    adds the groups left to right, numpy's order below 8 terms (numpy unrolls
    longer sums, so G >= 8 sums a contiguous copy), and the intercept
    gradient is a cumsum, the order of r.sum(axis=0)."""
    n, K = X.shape
    Y = np.zeros((n, G))
    Y[np.arange(n), y] = 1.0
    Wp = np.zeros((K, G))
    b = np.zeros(G)
    Z, r, col = np.empty((G, n)), np.empty((n, G)), np.empty(n)
    # non-finite logits end in the NumericError below, not in a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_iter):
            np.add((X @ Wp).T, b[:, None], out=Z)
            if not np.isfinite(Z).all():
                raise NumericError("softmax input must be finite")
            Z -= Z.max(axis=0, out=col)
            np.exp(Z, out=Z)
            if G < 8:
                Z.sum(axis=0, out=col)
            else:
                np.ascontiguousarray(Z.T).sum(axis=1, out=col)
            Z /= col
            np.subtract(Z.T, Y, out=r)
            r /= n
            Wp -= step * (X.T @ r + l2 * Wp)
            b -= step * np.cumsum(r.T, axis=1)[:, -1]
    return Wp, b


def full_report(fitted, corpus, truth=None):
    """Compose all metrics on one fitted model; alignment runs once and its
    permutations are shared by the truth-dependent metrics."""
    from .inference.trainer import infer_proportions

    beta_hat = fitted.stage_topics()
    theta_hat = infer_proportions(fitted, corpus)
    pres = corpus.present.T                      # (T, N)
    mask = None if pres.all() else pres
    coh = umass_coherence(beta_hat, corpus)
    perp = perplexity(beta_hat, theta_hat, corpus)
    gacc = group_accuracy(theta_hat, corpus.groups, mask=mask)
    if truth is None:
        return MetricsReport(kl_topics=None, coherence=coh, perplexity=perp,
                             dominant_acc=None, group_acc=gacc,
                             permutations=None)
    perms = align_topics(beta_hat, truth.beta_true)
    bh_al = apply_permutations(beta_hat, perms)
    th_al = apply_permutations(theta_hat, perms)
    kl = empirical_kl(bh_al, truth.beta_true)
    dacc = dominant_accuracy(th_al, truth.theta_true, mask=mask)
    return MetricsReport(kl_topics=kl, coherence=coh, perplexity=perp,
                         dominant_acc=dacc, group_acc=gacc,
                         permutations=perms)


def save_metrics(report, fname, config_echo=None):
    obj = report.to_dict()
    if config_echo is not None:
        obj["config"] = config_echo
    write_json(obj, fname, indent=2)


def save_top_words(beta_hat, vocab, fname, top_n=15):
    tops = top_words(beta_hat, top_n)
    obj = [[[vocab[v] for v in tops[t, k]] for k in range(tops.shape[1])]
           for t in range(tops.shape[0])]
    write_json(obj, fname, indent=2)
