"""Evaluation metrics: topic alignment, topic KL, UMass coherence, perplexity,
dominant-topic accuracy, and the group-recovery probe.

Estimated topic indices are arbitrary, so truth-dependent metrics first align
per stage by exhaustive permutation search (K <= 8), minimizing the mean
KL(beta_hat || beta_true) over topics; the same permutation is reused for
dominant accuracy. All metrics are pure functions of arrays plus, for
coherence/perplexity, the corpus counts.

The topic metrics take the (T, V, K) stack whole, with no stage loop but the
K!-table argmin of the alignment; coherence and perplexity read the corpus
stage by stage.

full_report runs coherence and perplexity in a helper process, forked when a
fit would fork (trainer._evaluator; not beside numpy's default BLAS pool on two
CPUs), beside the probe and the truth metrics; the same module functions on the
same arrays give the same floats. Traced from outside (bench/spans.py), a
forked report shows no coherence or perplexity span; alignment stays here.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ROW_CHUNK, write_json
from .errors import (DegenerateDesign, NumericError, ShapeError,
                     TooManyTopics)
from .model import PROB_FLOOR

MAX_ALIGN_TOPICS = 8
# the group probe's gradient descent: steps, step size, L2 weight penalty
PROBE_ITERS, PROBE_STEP, PROBE_L2 = 500, 0.1, 1e-4


@dataclass
class MetricsReport:
    kl_topics: float | None
    coherence: float
    perplexity: float
    dominant_acc: float | None
    group_acc: float
    permutations: list | None  # per-stage topic orderings, None without truth

    def to_dict(self):
        return dataclasses.asdict(self)


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
    """cost[..., a, b] = KL(bh[..., :, a] || bt[..., :, b]) over (..., V, K)
    stacks, with the reference floored."""
    p = np.swapaxes(bh, -1, -2)[..., :, None, :]     # (..., K, 1, V)
    q = np.maximum(np.swapaxes(bt, -1, -2)[..., None, :, :], PROB_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / q), 0.0)
    return terms.sum(axis=-1)


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
    for cost in _topic_kl_matrix(bh, bt):
        total = cost[table[:, 0], 0]
        for k in range(1, K):
            total += cost[table[:, k], k]
        perms.append(table[np.argmin(total)].tolist())
    return perms


def apply_permutations(arr, perms):
    """Reorder the last axis of a (T, ..., K) stack stage by stage."""
    a, idx = np.asarray(arr), np.asarray(perms)
    return np.take_along_axis(
        a, np.expand_dims(idx, tuple(range(1, a.ndim - 1))), axis=-1)


def empirical_kl(beta_hat, beta_true):
    """(1/(T K)) sum over stages and topics of KL(beta_hat || beta_true),
    reference floored at 1e-12; call after alignment."""
    bh, bt = _topic_pair(beta_hat, beta_true)
    T, V, K = bh.shape
    traces = np.trace(_topic_kl_matrix(bh, bt), axis1=1, axis2=2)
    return float(np.cumsum(traces)[-1]) / (T * K)  # stages added in order


def top_words(beta_hat, top_n=15):
    """(T, K, top_n) word indices, most probable first; probability ties go to
    the lower word index."""
    bh = _as_stack(beta_hat, "beta_hat")
    if top_n < 1:
        raise ShapeError(f"top_n must be at least 1; got {top_n}")
    order = np.argsort(-bh, axis=1, kind="stable")[:, :top_n]
    return np.ascontiguousarray(order.transpose(0, 2, 1), dtype=np.int64)


def umass_coherence(beta_hat, corpus, top_n=15):
    """Mean over (stage, topic) of sum_{i != j} log((D_t(v_i, v_j) + 1) /
    D_t(v_j)), where D_t counts stage-t documents containing the word(s);
    j-words absent from stage t are skipped. The counts add up over blocks
    of ROW_CHUNK subjects."""
    bh = _as_stack(beta_hat, "beta_hat")
    T, V, K = bh.shape
    tops = top_words(bh, top_n)
    N, n = corpus.n_subjects, tops.shape[2]
    keep = ~np.eye(n, dtype=bool)
    occ = np.empty((min(N, ROW_CHUNK), V), dtype=bool)  # word-in-doc flags
    total = 0.0
    for t in range(T):
        # exact integer counts in any order (missing cells add zero rows)
        doc_freq = np.zeros(V, dtype=np.int64)
        co = np.zeros((K, n, n))                # co-document counts
        for lo in range(0, N, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, N)
            rows, words, _ = corpus.stage_block(t, lo, hi)
            block = occ[:hi - lo]
            block.fill(False)
            block[rows, words] = True
            doc_freq += block.sum(axis=0)
            cols = block[:, tops[t]].astype(np.float64).transpose(1, 2, 0)
            co += cols @ cols.transpose(0, 2, 1)
        df = doc_freq[tops[t]]                  # (K, n)
        # the pair terms add up in (i, j) order, a skipped pair as +0.0
        terms = np.log((co + 1.0) / np.maximum(df, 1)[:, None, :])
        terms = np.where(keep & (df > 0)[:, None, :], terms, 0.0)
        for score in np.cumsum(terms.reshape(K, n * n), axis=1)[:, -1]:
            total += score
    return total / (T * K)


def perplexity(beta_hat, theta_hat, corpus):
    """Mean over the stages that hold a document of exp(the stage's mean
    per-word negative log-likelihood under theta_hat . beta_hat^T), missing
    cells left out and probabilities floored at 1e-12; the word probabilities
    go through one (ROW_CHUNK, V) buffer, ROW_CHUNK subjects at a time."""
    bh = _as_stack(beta_hat, "beta_hat")
    th = np.asarray(theta_hat, dtype=np.float64)
    T, V, K = bh.shape
    if th.ndim != 3 or th.shape[0] != T or th.shape[2] != K:
        raise ShapeError(f"theta_hat must be (T, N, {K}); got {th.shape}")
    N = corpus.n_subjects
    if corpus.vocab_size != V or N != th.shape[1]:
        raise ShapeError("corpus dimensions disagree with the model arrays")
    out = 0.0
    terms = np.empty((min(N, ROW_CHUNK), V))    # reused per block
    per_doc, totals = np.empty(N), corpus.total_counts()
    held = np.flatnonzero(corpus.present.any(axis=0))  # stages with a doc
    for t in held:
        for lo in range(0, N, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, N)
            rows, words, counts = corpus.stage_block(t, lo, hi)
            block = terms[:hi - lo]
            np.matmul(th[t, lo:hi], bh[t].T, out=block)  # word probabilities
            # the log at the nonzero counts only, scattered back into a
            # zeroed block, so the row sums add the same terms as a dense
            # product
            logp = np.log(np.maximum(block[rows, words], PROB_FLOOR))
            block.fill(0.0)
            block[rows, words] = logp * counts
            block.sum(axis=1, out=per_doc[lo:hi])
        mask = corpus.present[:, t]
        out += np.exp((-per_doc[mask] / totals[mask, t]).mean())
    return float(out / len(held))


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


def group_accuracy(theta_hat, groups, mask=None):
    """In-sample accuracy of a softmax-regression probe of group labels on the
    pooled per-cell proportions.

    PROBE_ITERS steps of full-batch gradient descent of size PROBE_STEP, zero
    init, L2 penalty PROBE_L2 on the weights (not the intercept). Constant
    features reduce to an intercept-only model whose accuracy is the
    majority-class share.
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
    Wp, b = _probe_fit(X, y, G, PROBE_ITERS, PROBE_STEP, PROBE_L2)
    pred = np.argmax(X @ Wp + b, axis=1)
    return float(np.mean(pred == y))


def _probe_fit(X, y, G, n_iter, step, l2):
    """The probe's final (Wp, b), float for float as softmax(X @ Wp + b,
    axis=1) would give them, with logits, labels and residual in a (G, n)
    layout: the softmax's row sum adds the groups left to right, numpy's
    order below 8 terms (numpy unrolls longer sums, so G >= 8 sums a
    contiguous copy), and the intercept gradient accumulates each row left
    to right, the order of r.sum(axis=0)."""
    n, K = X.shape
    XT = np.ascontiguousarray(X.T)
    YT = np.zeros((G, n))
    YT[y, np.arange(n)] = 1.0
    Wp = np.zeros((K, G))
    b = np.zeros(G)
    Z, acc, col = np.empty((G, n)), np.empty((G, n)), np.empty(n)
    # non-finite logits end in the NumericError below, not in a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_iter):
            np.matmul(Wp.T, XT, out=Z)
            Z += b[:, None]
            if not np.isfinite(Z).all():
                raise NumericError("softmax input must be finite")
            Z -= Z.max(axis=0, out=col)
            np.exp(Z, out=Z)
            if G < 8:
                Z.sum(axis=0, out=col)
            else:
                np.ascontiguousarray(Z.T).sum(axis=1, out=col)
            Z /= col
            Z -= YT      # the residual, (G, n)
            Z /= n
            # one column of X takes numpy's matrix-vector product, whose
            # sums follow the residual's layout: that one reads it (n, G)
            r = Z.T if K > 1 else np.ascontiguousarray(Z.T)
            Wp -= step * (X.T @ r + l2 * Wp)
            b -= step * np.add.accumulate(Z, axis=1, out=acc)[:, -1]
    return Wp, b


def full_report(fitted, corpus, truth=None):
    """Compose all metrics on one fitted model; alignment runs once and its
    permutations are shared by the truth-dependent metrics. The error that
    the serial order would raise first wins (module docstring)."""
    from .inference.trainer import _evaluator, infer_proportions

    beta_hat = fitted.stage_topics()
    theta_hat = infer_proportions(fitted, corpus)
    pres = corpus.present.T                      # (T, N)
    mask = None if pres.all() else pres

    def corpus_scores():
        return (umass_coherence(beta_hat, corpus),
                perplexity(beta_hat, theta_hat, corpus))

    kl = dacc = perms = failed = None
    with _evaluator([], corpus_scores) as ev:
        ev.submit()
        try:
            gacc = group_accuracy(theta_hat, corpus.groups, mask=mask)
            if truth is not None:
                perms = align_topics(beta_hat, truth.beta_true)
                kl = empirical_kl(apply_permutations(beta_hat, perms),
                                  truth.beta_true)
                dacc = dominant_accuracy(apply_permutations(theta_hat, perms),
                                         truth.theta_true, mask=mask)
        except Exception as e:
            failed = e
        coh, perp = ev.result()
    if failed is not None:
        raise failed
    return MetricsReport(kl_topics=kl, coherence=coh, perplexity=perp,
                         dominant_acc=dacc, group_acc=gacc,
                         permutations=perms)


def save_metrics(report, fname, config_echo=None):
    obj = report.to_dict()
    if config_echo is not None:
        obj["config"] = config_echo
    write_json(obj, fname, indent=2)


def save_top_words(beta_hat, vocab, fname, top_n=15):
    tops = top_words(beta_hat, top_n).tolist()
    write_json([[[vocab[v] for v in topic] for topic in stage]
                for stage in tops], fname, indent=2)
