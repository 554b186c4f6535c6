"""The longitudinal variational objective and its exact gradients.

For each document i and stage t (writing q_t = N(mu_q, diag(sigma_q^2)) for the
encoded posterior and eta_{t,j} = mu_q + eps_{t,j} * sigma_q for the M
reparameterized samples), the minimized loss is

    (1/(N M)) sum_i sum_t sum_j [ KL(q_t || N(mu0_{t,j}, sigma0^2 I))
                                  - W_{i,t} . log(softmax(eta_{t,j}) B)
                                  - dist_weight * D_t(i) ]

where B is the column-softmaxed topic matrix, mu0_{1,j} = f_1(eta0, x_1, y) and
mu0_{t,j} = f_t(eta_{t-1,j}, x_t, y) for t >= 2 (the *same* sample stream is
reused for the prior propagation), and D_t(i) is the configured group distance
between the factual posterior and the counterfactual posteriors obtained by
re-encoding with each non-factual group label. D does not depend on j, so its
inner sum contributes with weight 1/N.

Each stage's prior takes its S previous samples through f_t and weights
their KL M // S: S = 1 at the first stage (eta0), whose KL is then
sample-free, so the objective at T=1 is exactly the single-stage negative
ELBO; S = M later, the shared-eps Monte-Carlo estimate of
E_{eta_{t-1} ~ q_{t-1}}[KL(q_t || p_t)] that the stage decomposition of the
evidence bound prescribes.

Gradients are hand-derived and propagated in reverse stage order. Paths into
stage t's moments: the stage-t KL and distance terms, the multinomial term
through eta_{t,j}, the stage-(t+1) prior mean through f_{t+1}(eta_{t,j}, ...),
and the stage-(t+1) encoder inputs (factual and counterfactual) through the
recurrent previous-mean slot. Missing cells keep the recurrent chain alive but
contribute no terms.

Each stage costs a fixed number of batched kernels whatever C and M are: one
encoder pass whose counterfactual heads share the factual trunk, one distance
call on its stacked (1 + C, B, K) moments, one transition pass over the B * S
previous samples, and the reconstruction at the nonzero counts only (a zero
count adds nothing to the likelihood or its gradient).

The loss's forward and the posterior read-out iterate one stage chain,
`stage_heads`, over Batches that hold each stage's entries apart, all built
by `CorpusArrays.batch`: training minibatches, and the ROW_CHUNK-subject
chunks of the whole-corpus passes (`CorpusArrays.chunks`).

The reconstruction and its backward run at the nonzero cells only, in one
padded (B, L, K) gather of topic rows per stage (`nonzero_probs`,
`nonzero_backward`): no (B * M, V) block is formed. The only dense block of
a call is its encoder input, which a fit allocates once and passes to every
call as `work`, its word columns all zeros between calls. An evaluation
(want_grads=False) keeps no per-stage caches, so its memory does not grow
with the number of stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import ROW_CHUNK
from ..errors import NumericError, ShapeError, UnknownDistance
from ..model import (
    PROB_FLOOR,
    column_softmax,
    encode_groups,
    softmax,
    softmax_backward,
)
from .terms import DISTANCE_KINDS, _kl_rows, _member_sum, distance_with_grad


@dataclass
class Batch:
    x: np.ndarray        # (B, T, P)
    y_enc: np.ndarray    # (B, E) factual group encoding
    cf_encs: np.ndarray  # (C, B, E) counterfactual encodings, C = G - 1
    present: np.ndarray  # (B, T) float 0/1
    # per stage, its nonzero (batch row, word, count, count / cell total)
    stages: list


class CorpusArrays:
    """Encoder-ready views of a corpus, sliceable into batches: its CSR
    counts (int64) and (N, T) cell totals, nothing nnz-sized of its own."""

    def __init__(self, corpus):
        self.indptr, self.words, self.counts, _ = corpus.csr()
        self.totals = corpus.total_counts()
        self.x = corpus.covariates
        self.present = corpus.present.astype(np.float64)
        G = corpus.n_groups
        self.y_enc = encode_groups(corpus.groups, G)
        # counterfactual slot c holds each subject's c-th non-factual group
        c = np.arange(G - 1)
        self.cf_groups = c + (c >= corpus.groups[:, None])
        self.cf_encs = encode_groups(self.cf_groups.T.ravel(), G).reshape(
            G - 1, corpus.n_subjects, -1)

    @property
    def wn(self):
        """Each entry's count over its cell total, built on read, not held."""
        idx = np.arange(self.present.shape[0])
        return np.concatenate([s[3] for s in self.batch(idx).stages])

    def batch(self, idx):
        """The Batch of subjects idx: the entries of cells t*N + idx, each
        count also over its cell total."""
        idx = np.asarray(idx)
        B, N = idx.size, self.present.shape[0]
        stages = []
        for t in range(self.present.shape[1]):
            start = self.indptr[t * N + idx]
            n = self.indptr[t * N + idx + 1] - start
            rows = np.repeat(np.arange(B), n)
            ent = np.arange(rows.size) + np.repeat(start - np.cumsum(n) + n, n)
            c = self.counts[ent]
            stages.append((rows, self.words[ent], c,
                           c / np.repeat(self.totals[idx, t], n)))
        return Batch(
            x=self.x[idx], y_enc=self.y_enc[idx],
            cf_encs=self.cf_encs[:, idx], present=self.present[idx],
            stages=stages)

    def chunks(self):
        """(lo, hi, batch) of subjects lo to hi - 1, ROW_CHUNK at a time."""
        N = self.present.shape[0]
        for lo in range(0, N, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, N)
            yield lo, hi, self.batch(np.arange(lo, hi))


def stage_heads(batch, enc, eta0, shifts, inp, keep):
    """For each stage t in order: write its nonzero frequencies and the
    tail [x_t, y_enc, prev] into rows of inp (word columns all zeros), run
    enc.stages[t].forward on them with shifts and yield (mu, sigma, cache),
    factual head first. prev is eta0, then the previous stage's mu[0]. With
    keep, stage t takes rows t*B to (t+1)*B and leaves its words for the
    backward to clear; without, every stage takes the first B rows and
    clears its words after the forward."""
    B, V = batch.y_enc.shape[0], enc.stages[0].V
    prev = np.broadcast_to(eta0, (B, eta0.shape[0]))
    for t, (rows, cols, _, wn_nz) in enumerate(batch.stages):
        part = inp[t * B:(t + 1) * B] if keep else inp[:B]
        part[rows, cols] = wn_nz
        part[:, V:] = np.hstack([batch.x[:, t], batch.y_enc, prev])
        mu, sg, cache = enc.stages[t].forward(part, shifts)
        if not keep:
            part[rows, cols] = 0.0
        yield mu, sg, cache
        prev = mu[0]


def nonzero_probs(theta, bcols, rows, cols):
    """(nnz, M) probabilities theta[rows] @ bcols[cols].T at a stage's
    nonzero cells, rows ascending: each document's words, padded with word 0
    to the longest row L, gather a (B, L, K) block of bcols for one batched
    matmul with theta, whose sums over K round as the dense (B * M, V)
    product's do on the pinned shapes (README, Determinism). Returned with
    what nonzero_backward reads of that layout: the gather, its (B * L,)
    word index pad and the entries' places flat in it."""
    B, M, _ = theta.shape
    n = np.bincount(rows, minlength=B)
    L = int(n.max(initial=0))
    # entry i's place in the padded (B, L) block
    flat = np.arange(rows.size) + (L * np.arange(B) - np.cumsum(n) + n)[rows]
    pad = np.zeros(B * L, dtype=cols.dtype)
    pad[flat] = cols
    gather = np.take(bcols, pad.reshape(B, L), axis=0)
    probs = np.matmul(gather, theta.transpose(0, 2, 1))
    return np.take(probs.reshape(B * L, M), flat, axis=0), gather, pad, flat


def nonzero_backward(g, theta, gather, pad, flat, V):
    """Given g (nnz, M), the gradient of a function of nonzero_probs's
    output, its gradients on theta (B, M, K) and bcols (V, K): with Rp the
    (B, L, M) block holding g at flat and zeros in the padding, Rp^T @
    gather, and Rp @ theta summed onto the rows that pad names by one
    bincount per topic (faster than one over a (B * L * K) index)."""
    B, L, K = gather.shape
    rp = np.zeros((B * L, theta.shape[1]))
    rp[flat] = g
    rp = rp.reshape(B, L, theta.shape[1])
    gb = np.stack([np.bincount(pad, weights=w, minlength=V) for w in
                   np.matmul(rp, theta).reshape(B * L, K).T], axis=1)
    return np.matmul(rp.transpose(0, 2, 1), gather), gb


@dataclass
class LossResult:
    loss: float
    grads: dict | None
    components: dict  # per-stage arrays: "kl", "nll", "dist"; loss =
    #                   sum(kl) - sum(nll) - dist_weight * sum(dist)


def longitudinal_loss(batch, gen, enc, cfg, eps, want_grads=True,
                      stage_bcols=None, work=None):
    """Evaluate the objective (and, unless disabled, all parameter gradients)
    on one batch with an explicit eps tensor of shape (B, T, M, K).

    stage_bcols, when given, is a (T, V, K) stack of already-normalized
    per-stage topic matrices that replaces softmax_col(gen.beta) in the
    reconstruction term; grads then carry "bcols_stage" (the raw gradient with
    respect to each normalized matrix, for the caller to chain through its own
    parametrization) instead of "beta".

    work, when given, is the encoder-input buffer: B rows (T * B with
    gradients) or more, word columns all zeros, which the call leaves so;
    without one the call allocates its own, with the same bits.
    With want_grads=False the call keeps nothing of a stage but what the next
    stage reads: no encoder or transition caches, no per-stage theta.
    """
    x = batch.x
    B, T, _ = x.shape
    V, K = gen.beta.shape
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 4 or eps.shape[0] != B or eps.shape[1] != T \
            or eps.shape[3] != K:
        raise ShapeError(f"eps must be (B, {T}, M, {K}); got {eps.shape}")
    M = eps.shape[2]
    if T != gen.n_stages or T != enc.n_stages:
        raise ShapeError("stage counts disagree")
    s0 = gen.sigma0
    if not s0 > 0:
        raise NumericError("sigma0 must be positive for the KL term")
    kind, w_d = cfg.dist_kind, cfg.dist_weight
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    # a zero weight is exactly the "none" ablation: skip every
    # counterfactual pass, not just the final weighting
    use_dist = (kind != "none" and w_d != 0.0)
    C = batch.cf_encs.shape[0] if use_dist else 0
    pm = batch.present
    scale = 1.0 / (B * M)
    if stage_bcols is None:
        bcols = np.broadcast_to(column_softmax(gen.beta), (T, V, K))
    else:
        bcols = np.asarray(stage_bcols, dtype=np.float64)
        if bcols.shape != (T, V, K):
            raise ShapeError(
                f"stage_bcols must be ({T}, {V}, {K}); got {bcols.shape}")
    if work is None:
        work = np.zeros((T * B if want_grads else B, enc.stages[0].in_dim))

    # ---- forward ----------------------------------------------------------
    # the counterfactual encodings enter only as shifts of the factual group
    # columns, so each stage runs one encoder pass over the 1 + C heads
    shifts = batch.cf_encs[:C] - batch.y_enc
    # what the backward reads of each stage: (mu, sigma) of the 1 + C
    # heads, factual first, the encoder cache (enc_cache[0] is the input, a
    # view of work), the prior means mu0 (B, S, K), the transition cache,
    # theta (B, M, K), the (b, v) indices of the nonzero counts,
    # nonzero_probs's padded layout, the (nnz, M) counts / probs there and
    # the distance gradients
    saved = [None] * T

    kl_t = np.zeros(T)
    nll_t = np.zeros(T)
    dist_t = np.zeros(T)

    prev_eta = np.broadcast_to(gen.eta0, (B, 1, K))
    heads = stage_heads(batch, enc, gen.eta0, shifts, work, want_grads)
    for t, (mu, sg, enc_cache) in enumerate(heads):
        rows, cols, c_nz, _ = batch.stages[t]
        mu_q, sg_q = mu[0], sg[0]
        eta = mu_q[:, None, :] + eps[:, t] * sg_q[:, None, :]

        # prior means: one transition pass over the B * S previous samples
        # (S = 1 at the first stage, eta0; S = M after), KL weight M // S
        S = prev_eta.shape[1]
        side = np.concatenate([x[:, t], batch.y_enc], axis=1)
        tin = np.concatenate(
            [prev_eta, np.broadcast_to(side[:, None], (B, S, side.shape[1]))],
            axis=2).reshape(B * S, -1)
        out, tr_cache = gen.transitions[t].forward(tin)
        mu0 = out.reshape(B, S, K)
        kl_t[t] = scale * (M // S) * float(pm[:, t] @ _kl_rows(
            mu_q[:, None], sg_q[:, None], mu0, s0).sum(axis=1))

        # multinomial reconstruction at the nonzero counts (present cells)
        theta = softmax(eta, axis=2)
        p_nz, *layout = nonzero_probs(theta, bcols[t], rows, cols)
        logp = np.maximum(p_nz, PROB_FLOOR)
        np.log(logp, out=logp)
        nll_t[t] = scale * float((c_nz @ logp).sum())

        # group distance (independent of j)
        dgrads = None
        if use_dist:
            d, *dgrads = distance_with_grad(kind, mu_q, sg_q, mu[1:], sg[1:])
            dist_t[t] = float(pm[:, t] @ d) / B

        if want_grads:
            ratio = np.divide(
                np.broadcast_to(c_nz[:, None], p_nz.shape), p_nz,
                out=np.zeros_like(p_nz), where=p_nz > PROB_FLOOR)
            saved[t] = (mu, sg, enc_cache, mu0, tr_cache, theta, rows, cols,
                        layout, ratio, dgrads)
        del layout      # an evaluation frees the gather before the next stage
        prev_eta = eta

    loss = float(kl_t.sum() - nll_t.sum() - w_d * dist_t.sum())
    components = {"kl": kl_t, "nll": nll_t, "dist": dist_t}
    if not want_grads:
        return LossResult(loss=loss, grads=None, components=components)

    # ---- backward ---------------------------------------------------------
    grads = {}

    def add(key, val):
        if key in grads:
            grads[key] += val
        else:
            grads[key] = val

    gb = np.zeros((T, V, K))
    pending_gmu = np.zeros((B, K))
    pending_geta = np.zeros((B, M, K))  # into eta[t] from stage t + 1
    for t in range(T - 1, -1, -1):
        mu, sg, enc_cache, mu0, tr_cache, theta, rows, cols, layout, \
            ratio, dgrads = saved[t]
        saved[t] = None
        mu_q, sg_q = mu[0], sg[0]
        geta = pending_geta

        # KL term: d/dmu_q = (mu_q - mu0)/s0^2, d/dsigma = -1/sg + sg/s0^2,
        # d/dmu0 = -(mu_q - mu0)/s0^2, each of the S prior means weighted
        # M // S
        w = scale * pm[:, t][:, None]
        gsig = -1.0 / sg_q + sg_q / s0 ** 2
        S = mu0.shape[1]
        gdiff = ((M // S) * w)[:, :, None] * (mu_q[:, None] - mu0) / s0 ** 2
        gmu_t = pending_gmu + gdiff.sum(axis=1)
        gs_t = M * w * gsig
        gin, tg = gen.transitions[t].backward(tr_cache,
                                              -gdiff.reshape(B * S, K))
        pending_geta = gin[:, :K].reshape(B, S, K)  # unread after stage 1
        key = "trans" if gen.share_across_stages else f"trans{t}"
        for name, val in tg.items():
            add(f"{key}.{name}", val)

        # multinomial term through eta: the scaled count/prob ratio at the
        # nonzero cells, back through the forward's padded gather
        gtheta, gb[t] = nonzero_backward(-scale * ratio, theta, *layout, V)
        geta = geta + softmax_backward(theta, gtheta, axis=2)

        # route eta gradients into (mu, sigma)
        gmu_t = gmu_t + geta.sum(axis=1)
        gs_t += (geta * eps[:, t]).sum(axis=1)

        # distance term: factual and counterfactual heads
        gmu_all, gs_all = gmu_t[None], gs_t[None]
        if use_dist:
            dgmu, dgs, dgmu_c, dgs_c = dgrads
            uw = (-w_d / B) * pm[:, t][:, None]
            gmu_all = np.concatenate([gmu_all + uw * dgmu, uw * dgmu_c])
            gs_all = np.concatenate([gs_all + uw * dgs, uw * dgs_c])

        # one encoder backward for every head (all share the stage-t
        # parameters and the recurrent previous-mean input)
        pending_gmu, eg = enc.stages[t].backward(enc_cache, gmu_all, gs_all)
        enc_cache[0][rows, cols] = 0.0
        for name, val in eg.items():
            add(f"enc{t}.{name}", val)

    # beta through the per-column softmax, the stages summed last to first
    if stage_bcols is None:
        grads["beta"] = softmax_backward(bcols[0], _member_sum(gb[::-1]),
                                         axis=0)
    else:
        grads["bcols_stage"] = gb
    return LossResult(loss=loss, grads=grads, components=components)
