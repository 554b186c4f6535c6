"""Correctness checks on one pipeline pass.

Each check recomputes what it tests from the pass's outputs with code of its
own; none compares against a stored copy of earlier output. A check returns
(ok, detail) and never raises on a bad value, so one failure does not stop
the run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FLOOR = 1e-12     # reference floor of the package's topic KL
TOL = 1e-9


def topic_cost(bh, bt):
    """cost[a, b] = KL(bh[:, a] || max(bt[:, b], FLOOR)) for (V, K) topic
    matrices, written as entropy minus cross-entropy."""
    logp = np.log(np.where(bh > 0, bh, 1.0))
    neg_entropy = (bh * logp).sum(axis=0)
    return neg_entropy[:, None] - bh.T @ np.log(np.maximum(bt, FLOOR))


def align(beta_hat, beta_true):
    """Best permutation per stage by scoring all K! of them at once; ties go
    to the lexicographically smallest. Returns (perms (T, K), aligned KL)."""
    T, _, K = beta_hat.shape
    cands = np.array(list(itertools.permutations(range(K))))
    perms, total = [], 0.0
    for t in range(T):
        cost = topic_cost(beta_hat[t], beta_true[t])
        score = cost[cands[:, 0], 0]
        for k in range(1, K):
            score = score + cost[cands[:, k], k]
        best = int(np.argmin(score))
        perms.append(cands[best])
        total += score[best]
    return np.array(perms), total / (T * K)


def dominant(theta_hat, theta_true, perms):
    """Share of cells whose aligned largest-proportion topic matches."""
    hits = [theta_hat[t][:, p].argmax(axis=1) == theta_true[t].argmax(axis=1)
            for t, p in enumerate(perms)]
    return float(np.mean(hits))


def uniform_kl(beta_true):
    """Mean KL of uniform topics against the true ones."""
    V = beta_true.shape[1]
    return float(np.mean(
        -math.log(V) - np.log(np.maximum(beta_true, FLOOR)).mean(axis=1)))


def perplexity_gap_closed(perplexity, true_perplexity, vocab_size):
    """Share of the way from a uniform model (perplexity V) to the model
    that generated the corpus (true_perplexity) that a fit's perplexity
    covers: 0 for a uniform fit, 1 for one as good as the truth."""
    return (vocab_size - perplexity) / (vocab_size - true_perplexity)


def close(value, reference, tol=TOL):
    ok = value is not None and abs(value - reference) <= tol
    return ok, f"{value!r} vs {reference!r}"


def corpus_roundtrip(original, loaded):
    return original == loaded, "load_corpus(save_corpus(c)) == c"


def cell_totals(corpus, count_range):
    lo, hi = count_range
    totals = [sum(cell.values()) if cell else 0
              for row in corpus.docs for cell in row]
    bad = [n for n in totals if not lo <= n <= hi]
    return not bad, f"{len(bad)} cell totals outside [{lo}, {hi}]"


def loss_log(log, t_max):
    losses = [row["loss"] for row in log]
    ok = (len(losses) == t_max + 1
          and all(math.isfinite(x) for x in losses)
          and losses[-1] < losses[0])
    return ok, f"{len(losses)} entries, first {losses[:1]}, last {losses[-1:]}"


def simplex(arr, axis):
    arr = np.asarray(arr)
    err = float(np.max(np.abs(arr.sum(axis=axis) - 1.0)))
    ok = bool(np.all(arr >= 0)) and err <= TOL
    return ok, f"min {arr.min()!r}, max |sum - 1| {err!r}"


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    ok = a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return ok, f"shapes {a.shape} / {b.shape}"


def run_all(corpus, count_range, fitted, model, theta_fitted, theta_hat,
            report, truth):
    """The checks on a pass's outputs, in a fixed order: [(name, ok, detail)].

    corpus is the corpus loaded back from disk; fitted is the trained model
    and model the one loaded back, which produced report; theta_fitted and
    theta_hat are infer_proportions of the two. The corpus round trip is
    checked apart, right after loading, so the simulated corpus need not
    live through the fit."""
    beta_hat = model.stage_topics()
    T, V, K = beta_hat.shape
    perms, kl = align(beta_hat, truth.beta_true)
    dom = dominant(theta_hat, truth.theta_true, perms)
    results = [
        ("cell_totals_in_range", *cell_totals(corpus, count_range)),
        ("loss_log", *loss_log(fitted.log, fitted.cfg.t_max)),
        ("topics_simplex", *simplex(beta_hat, axis=1)),
        ("proportions_simplex", *simplex(theta_hat, axis=2)),
        ("model_roundtrip_bitwise", *bitwise_equal(theta_fitted, theta_hat)),
        ("aligned_kl_matches", *close(report.kl_topics, kl)),
        ("dominant_acc_matches", *close(report.dominant_acc, dom)),
        ("perplexity_below_vocab", report.perplexity < V,
         f"{report.perplexity!r} vs V = {V}"),
        ("kl_below_uniform", kl < uniform_kl(truth.beta_true),
         f"{kl!r} vs {uniform_kl(truth.beta_true)!r}"),
        ("dominant_above_chance", dom > 1.0 / K, f"{dom!r} vs 1/{K}"),
    ]
    return [(name, bool(ok), detail) for name, ok, detail in results]
