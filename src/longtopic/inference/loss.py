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

Each stage costs a fixed number of batched kernels whatever C and M are: one
encoder pass whose counterfactual heads share the factual trunk
(`stage_heads`, which the posterior read-out also iterates), one distance
call on its stacked (1 + C, B, K) moments, one transition pass over the
B * S previous samples, and the reconstruction at the nonzero counts only (a
zero count adds nothing to the likelihood or its gradient), in one padded
(B, L, K) gather of topic rows (`nonzero_probs`, `nonzero_backward`).

The forward (`_forward`) yields one StageRecord per stage, what the backward
reads and the stage's three terms; the hand-derived backward (`_backward`)
walks the records last stage first. Paths into stage t's moments: the
stage-t KL and distance terms, the multinomial term through eta_{t,j}, the
stage-(t+1) prior mean through f_{t+1}(eta_{t,j}, ...), and the stage-(t+1)
encoder inputs (factual and counterfactual) through the recurrent
previous-mean slot. Missing cells keep the recurrent chain alive but
contribute no terms. A training call holds every record until the backward
reads it; an evaluation (want_grads=False) holds one at a time, so its
memory does not grow with the number of stages.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..corpus import ROW_CHUNK
from ..errors import NumericError, ShapeError, UnknownDistance
from ..model import (
    PROB_FLOOR,
    column_softmax,
    encode_groups,
    group_encoding_dim,
    softmax,
    softmax_backward,
)
from .terms import DISTANCE_KINDS, _kl_rows, _member_sum, distance_with_grad

# the most float64 numbers (2 GiB) that one Monte-Carlo tensor, or one
# corpus's counterfactual group encodings, may hold
MAX_SAMPLE_ELEMENTS = 2 ** 28


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
    counts (int64) and (N, T) cell totals, nothing nnz-sized of its own.
    ShapeError first if its counterfactual encodings would exceed
    MAX_SAMPLE_ELEMENTS numbers."""

    def __init__(self, corpus):
        G, N = corpus.n_groups, corpus.n_subjects
        size = (G - 1) * N * group_encoding_dim(G)
        if size > MAX_SAMPLE_ELEMENTS:
            raise ShapeError(f"{G} groups of {N} subjects need {size} numbers"
                             f" of counterfactual group encodings, above the"
                             f" cap {MAX_SAMPLE_ELEMENTS}")
        self.indptr, self.words, self.counts = (corpus.indptr, corpus.words,
                                                corpus.counts)
        self.totals = corpus.total_counts()
        self.x = corpus.covariates
        self.present = corpus.present.astype(np.float64)
        self.y_enc = encode_groups(corpus.groups, G)
        # counterfactual slot c holds each subject's c-th non-factual group
        c = np.arange(G - 1)
        self.cf_groups = c + (c >= corpus.groups[:, None])
        self.cf_encs = encode_groups(self.cf_groups.T.ravel(), G).reshape(
            G - 1, N, -1)

    @property
    def wn(self):
        """Each entry's count over its cell total, built on read, not held."""
        idx = np.arange(self.present.shape[0])
        return np.concatenate([s[3] for s in self.batch(idx).stages])

    def batch(self, idx):
        """The Batch of subjects idx: the entries of cells t*N + idx, each
        count also over its cell total."""
        idx = np.asarray(idx)
        N = self.present.shape[0]

        def entries(t):
            start = self.indptr[t * N + idx]
            n = self.indptr[t * N + idx + 1] - start
            return n, (np.arange(n.sum())
                       + np.repeat(start - np.cumsum(n) + n, n))
        return self._batch(idx, entries)

    def _batch(self, idx, entries):
        """The Batch of subjects idx, whose stage-t entries, n per subject,
        entries(t) gives as (n, an index or a slice of the CSR arrays)."""
        stages = []
        for t in range(self.present.shape[1]):
            n, ent = entries(t)
            c = self.counts[ent]
            stages.append((np.repeat(np.arange(idx.size), n), self.words[ent],
                           c, c / np.repeat(self.totals[idx, t], n)))
        return Batch(
            x=self.x[idx], y_enc=self.y_enc[idx],
            cf_encs=self.cf_encs[:, idx], present=self.present[idx],
            stages=stages)

    def chunks(self):
        """(lo, hi, batch) of subjects lo to hi - 1, ROW_CHUNK at a time. A
        chunk's stage-t entries are one slice of the CSR arrays, so its
        words and counts are views of them."""
        N = self.present.shape[0]
        for lo in range(0, N, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, N)

            def entries(t):
                ptr = self.indptr[t * N + lo:t * N + hi + 1]
                return np.diff(ptr), slice(ptr[0], ptr[-1])
            yield lo, hi, self._batch(np.arange(lo, hi), entries)


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


# One stage of the forward: (1 + C, B, K) encoder heads, factual first, whose
# enc_cache[0] is a view of work; (B, S, K) prior means; theta (B, M, K); the
# nonzero cells' (nnz, M) probabilities; and dgrads None without a distance
StageRecord = namedtuple("StageRecord", "mu sg enc_cache mu0 tr_cache theta"
                         " rows cols layout c_nz p_nz dgrads kl nll dist")


def _forward(batch, gen, enc, eps, bcols, kind, work, keep):
    """Yield each stage's StageRecord in order; kind None skips the
    counterfactuals. A record is built in a call of its own and not kept
    here: a caller that drops each before the next holds one at a time."""
    B, T, M, K = eps.shape
    scale = 1.0 / (B * M)

    def stage(t, mu, sg, enc_cache, prev_eta, eta):
        pm = batch.present[:, t]
        S = prev_eta.shape[1]
        side = np.concatenate([batch.x[:, t], batch.y_enc], axis=1)
        tin = np.concatenate(
            [prev_eta, np.broadcast_to(side[:, None], (B, S, side.shape[1]))],
            axis=2).reshape(B * S, -1)
        out, tr_cache = gen.transitions[t].forward(tin)
        mu0 = out.reshape(B, S, K)
        kl = scale * (M // S) * float(pm @ _kl_rows(
            mu[0][:, None], sg[0][:, None], mu0, gen.sigma0).sum(axis=1))

        # multinomial reconstruction at the nonzero counts (present cells)
        rows, cols, c_nz, _ = batch.stages[t]
        theta = softmax(eta, axis=2)
        p_nz, *layout = nonzero_probs(theta, bcols[t], rows, cols)
        logp = np.maximum(p_nz, PROB_FLOOR)
        np.log(logp, out=logp)

        # group distance (independent of the samples)
        dgrads, dist = None, 0.0
        if kind:
            d, *dgrads = distance_with_grad(kind, mu[0], sg[0], mu[1:], sg[1:])
            dist = float(pm @ d) / B
        return StageRecord(
            mu=mu, sg=sg, enc_cache=enc_cache, mu0=mu0, tr_cache=tr_cache,
            theta=theta, rows=rows, cols=cols, layout=layout, c_nz=c_nz,
            p_nz=p_nz, dgrads=dgrads, kl=kl,
            nll=scale * float((c_nz @ logp).sum()), dist=dist)

    # the counterfactuals enter as shifts of the factual group columns
    shifts = (batch.cf_encs if kind else batch.cf_encs[:0]) - batch.y_enc
    heads = stage_heads(batch, enc, gen.eta0, shifts, work, keep)
    prev_eta = np.broadcast_to(gen.eta0, (B, 1, K))
    for t, (mu, sg, enc_cache) in enumerate(heads):
        eta = mu[0][:, None, :] + eps[:, t] * sg[0][:, None, :]
        yield stage(t, mu, sg, enc_cache, prev_eta, eta)
        prev_eta = eta


def _backward(records, gen, enc, eps, present, dist_weight):
    """The gradient dict, with "bcols_stage" the (T, V, K) gradients on each
    stage's topic rows, from the forward's list of records, which it pops
    last stage first."""
    B, T, M, K = eps.shape
    s0, scale = gen.sigma0, 1.0 / (B * M)
    grads = {}
    gb = np.zeros((T, gen.beta.shape[0], K))
    pending_gmu = np.zeros((B, K))
    pending_geta = np.zeros((B, M, K))  # into eta[t] from stage t + 1
    for t in range(T - 1, -1, -1):
        r = records.pop()
        mu_q, sg_q = r.mu[0], r.sg[0]

        # multinomial term through eta: the scaled count/prob ratio at the
        # nonzero cells, back through the forward's padded gather
        ratio = np.divide(
            np.broadcast_to(r.c_nz[:, None], r.p_nz.shape), r.p_nz,
            out=np.zeros_like(r.p_nz), where=r.p_nz > PROB_FLOOR)
        gtheta, gb[t] = nonzero_backward(-scale * ratio, r.theta, *r.layout,
                                         gb.shape[1])
        geta = pending_geta + softmax_backward(r.theta, gtheta, axis=2)

        # KL term: d/dmu_q = -d/dmu0 = (mu_q - mu0)/s0^2 and d/dsigma =
        # -1/sg + sg/s0^2, each of the S prior means weighted M // S
        w = scale * present[:, t][:, None]
        S = r.mu0.shape[1]
        gdiff = ((M // S) * w)[:, :, None] * (mu_q[:, None] - r.mu0) / s0 ** 2
        gin, tg = gen.transitions[t].backward(r.tr_cache,
                                              -gdiff.reshape(B * S, K))
        pending_geta = gin[:, :K].reshape(B, S, K)  # unread after stage 1
        key = "trans" if gen.share_across_stages else f"trans{t}"
        for name, val in tg.items():
            # a shared model's first term itself, not 0 + it, keeps a -0.0
            at = f"{key}.{name}"
            grads[at] = grads[at] + val if at in grads else val

        # the factual head's (mu, sigma) gradients; the distance's, all heads'
        gmu_all = (pending_gmu + gdiff.sum(axis=1) + geta.sum(axis=1))[None]
        gs_all = (M * w * (-1.0 / sg_q + sg_q / s0 ** 2)
                  + (geta * eps[:, t]).sum(axis=1))[None]
        if r.dgrads is not None:
            dgmu, dgs, dgmu_c, dgs_c = r.dgrads
            uw = (-dist_weight / B) * present[:, t][:, None]
            gmu_all = np.concatenate([gmu_all + uw * dgmu, uw * dgmu_c])
            gs_all = np.concatenate([gs_all + uw * dgs, uw * dgs_c])

        # one encoder backward for every head
        pending_gmu, eg = enc.stages[t].backward(r.enc_cache, gmu_all, gs_all)
        r.enc_cache[0][r.rows, r.cols] = 0.0
        grads.update((f"enc{t}.{name}", val) for name, val in eg.items())
    grads["bcols_stage"] = gb
    return grads


def longitudinal_loss(batch, gen, enc, cfg, eps, want_grads=True,
                      stage_bcols=None, work=None):
    """Evaluate the objective (and, unless disabled, all parameter gradients)
    on one batch with an explicit eps tensor of shape (B, T, M, K), B and M
    at least 1.

    stage_bcols, when given, is a (T, V, K) stack of already-normalized
    per-stage topic matrices that replaces softmax_col(gen.beta) in the
    reconstruction term; grads then carry "bcols_stage" (the raw gradient with
    respect to each normalized matrix, for the caller to chain through its own
    parametrization) instead of "beta".

    work, when given, is the encoder-input buffer: B rows (T * B with
    gradients) or more, word columns all zeros, which the call leaves so;
    without one the call allocates its own, with the same bits.
    With want_grads=False the call holds one stage's record at a time.
    """
    B, T, _ = batch.x.shape
    V, K = gen.beta.shape
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 4 or eps.shape[:2] != (B, T) or eps.shape[3] != K \
            or eps.size == 0:
        raise ShapeError(f"eps must be (B, {T}, M, {K}) with B, M >= 1;"
                         f" got {eps.shape}")
    if T != gen.n_stages or T != enc.n_stages:
        raise ShapeError("stage counts disagree")
    if not gen.sigma0 > 0:
        raise NumericError("sigma0 must be positive for the KL term")
    kind, w_d = cfg.dist_kind, cfg.dist_weight
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    if stage_bcols is None:
        bcols = np.broadcast_to(column_softmax(gen.beta), (T, V, K))
    else:
        bcols = np.asarray(stage_bcols, dtype=np.float64)
        if bcols.shape != (T, V, K):
            raise ShapeError(
                f"stage_bcols must be ({T}, {V}, {K}); got {bcols.shape}")
    if work is None:
        work = np.zeros((T * B if want_grads else B, enc.stages[0].in_dim))

    # a zero weight is exactly the "none" ablation: skip every
    # counterfactual pass, not just the final weighting
    kind = kind if kind != "none" and w_d != 0.0 else None
    records = _forward(batch, gen, enc, eps, bcols, kind, work, want_grads)
    if want_grads:
        records = list(records)
    # map drops each record before it asks the forward for the next
    kl_t, nll_t, dist_t = np.array(list(zip(*map(
        attrgetter("kl", "nll", "dist"), records))))
    res = LossResult(loss=float(kl_t.sum() - nll_t.sum() - w_d * dist_t.sum()),
                     grads=None,
                     components={"kl": kl_t, "nll": nll_t, "dist": dist_t})
    if want_grads:
        res.grads = _backward(records, gen, enc, eps, batch.present, w_d)
        if stage_bcols is None:
            # beta through the per-column softmax, stages summed last first
            gb = res.grads.pop("bcols_stage")
            res.grads["beta"] = softmax_backward(
                bcols[0], _member_sum(gb[::-1]), axis=0)
    return res
