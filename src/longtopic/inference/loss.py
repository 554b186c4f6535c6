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

A call costs a fixed number of batched kernels whatever C and M are. The
encoder chain runs first (`stage_heads`, a pass a stage whose counterfactual
heads share the factual trunk; the posterior read-out iterates it too). The
row-local terms then run once on the stages' stacked rows: the samples'
softmax, one distance call on the (T * B)-row heads and the KL rows of the
stages after the first. Per stage remain the transition pass over the B * S
previous samples and the reconstruction at the nonzero counts only, in one
padded (B, L, K) gather of topic rows (`nonzero_probs`, `nonzero_backward`).

`_forward` returns the KL and distance terms, theta and a Forward of what
`_backward` reads; the reconstruction follows a stage at a time. The
hand-derived backward runs what the encoder chain does not feed first, then
the encoders last stage first. Paths into stage t's moments: the stage-t KL
and distance terms, the multinomial term through eta_{t,j}, the stage-(t+1)
prior mean through f_{t+1}(eta_{t,j}, ...), and the stage-(t+1) encoder
inputs (factual and counterfactual) through the recurrent previous-mean
slot. Missing cells keep the recurrent chain alive but contribute no terms.
An evaluation (want_grads=False) frees all but theta before its
reconstruction, which holds one stage's blocks at a time, so its memory
grows with the number of stages by theta's (B, M, K) alone.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ..corpus import ROW_CHUNK
from ..errors import NumericError, ShapeError, UnknownDistance, check_size
from ..model import (
    PROB_FLOOR,
    column_softmax,
    encode_groups,
    group_encoding_dim,
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
    counts (int64) and (N, T) cell totals, nothing nnz-sized of its own.
    ShapeError first if its (G - 1, N, E) counterfactual encodings would
    exceed the cap (errors.check_size)."""

    def __init__(self, corpus):
        G, N = corpus.n_groups, corpus.n_subjects
        check_size(ShapeError, f"the counterfactual group encodings of {G}"
                   f" groups of {N} subjects make",
                   (G - 1, N, group_encoding_dim(G)))
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
        """The Batch of subjects idx: the entries of cells t*N + idx, every
        stage's in one gather, each count also over its cell total."""
        idx = np.asarray(idx)
        N, T = self.present.shape
        cells = (N * np.arange(T)[:, None] + idx).ravel()
        start = self.indptr[cells]
        n = self.indptr[cells + 1] - start
        ent = np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)
        return self._batch(idx, n, self.words[ent], self.counts[ent])

    def _batch(self, idx, n, words, counts):
        """The Batch of subjects idx from its cells' entries, stage-major, n
        a cell: their words and counts, in one array or a list per stage."""
        T = self.present.shape[1]
        ends = np.cumsum(n.reshape(T, -1).sum(axis=1)).tolist()

        def parts(a):
            return [a[lo:hi] for lo, hi in zip([0] + ends, ends)]
        if isinstance(counts, list):
            c = np.concatenate(counts)
        else:
            c, words, counts = counts, parts(words), parts(counts)
        rows = np.repeat(np.tile(np.arange(idx.size), T), n)
        wn = c / np.repeat(self.totals[idx].T.ravel(), n)
        return Batch(
            x=self.x[idx], y_enc=self.y_enc[idx],
            cf_encs=self.cf_encs[:, idx], present=self.present[idx],
            stages=list(zip(parts(rows), words, counts, parts(wn))))

    def chunks(self):
        """(lo, hi, batch) of subjects lo to hi - 1, ROW_CHUNK at a time. A
        chunk's stage-t entries are one slice of the CSR arrays, so its
        words and counts are views of them."""
        N, T = self.present.shape
        for lo in range(0, N, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, N)
            ptr = [self.indptr[t * N + lo:t * N + hi + 1] for t in range(T)]
            yield lo, hi, self._batch(
                np.arange(lo, hi), np.concatenate([np.diff(p) for p in ptr]),
                [self.words[p[0]:p[-1]] for p in ptr],
                [self.counts[p[0]:p[-1]] for p in ptr])


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


# The (T, 1 + C, B, K) heads, factual first, and per stage the encoder cache
# (its inp a view of work); stage 0's (1, B, 1, K) and the later (T - 1, B,
# M, K) prior means, per stage the transition cache; theta and eps (T, B, M,
# K); the distance's (T, 1 or C, B, K) gradients, None without a distance
Forward = namedtuple("Forward", "mu sg caches mu0 tr_caches theta eps dgrads")


def _forward(batch, gen, enc, eps, kind, work, keep):
    """(kl, dist, theta, Forward or, without keep, None) of the stages;
    kind None skips the counterfactuals."""
    B, T, M, K = eps.shape
    scale, pm, s0 = 1.0 / (B * M), batch.present.T, gen.sigma0
    # the counterfactuals enter as shifts of the factual group columns
    shifts = (batch.cf_encs if kind else batch.cf_encs[:0]) - batch.y_enc
    mu, sg, caches = zip(*((m, s, c if keep else None) for m, s, c in
                           stage_heads(batch, enc, gen.eta0, shifts, work,
                                       keep)))
    mu, sg = np.stack(mu), np.stack(sg)
    eps = np.ascontiguousarray(eps.transpose(1, 0, 2, 3))
    eta = mu[:, 0, :, None] + eps * sg[:, 0, :, None]

    # f_t of the S previous samples: eta0 (S = 1), then eta_{t-1} (S = M)
    mu0, tr_caches, eta0 = [], [], np.broadcast_to(gen.eta0, (B, 1, K))
    for t, prev in enumerate([eta0, *eta[:-1]]):
        S = prev.shape[1]
        side = np.concatenate([batch.x[:, t], batch.y_enc], axis=1)
        out, cache = gen.transitions[t].forward(np.concatenate(
            [prev, np.broadcast_to(side[:, None], (B, S, side.shape[1]))],
            axis=2).reshape(B * S, -1))
        mu0.append(out.reshape(B, S, K))
        tr_caches.append(cache if keep else None)
    mu0 = [mu0[0][None], np.array(mu0[1:]).reshape(T - 1, B, M, K)]
    kl = []
    for sl, m0 in zip((slice(0, 1), slice(1, T)), mu0):
        rows = _kl_rows(mu[sl, 0, :, None], sg[sl, 0, :, None], m0, s0)
        kl += [scale * (M // m0.shape[2]) * float(p @ r)
               for p, r in zip(pm[sl], rows.sum(axis=2))]

    # group distance (independent of the samples) on the T * B rows
    dgrads, dist = None, [0.0] * T
    if kind:
        m, s = (np.moveaxis(a, 1, 0).reshape(-1, T * B, K) for a in (mu, sg))
        d, *dgrads = distance_with_grad(kind, m[0], s[0], m[1:], s[1:])
        dist = [float(p @ r) / B for p, r in zip(pm, d.reshape(T, B))]
        dgrads = [np.moveaxis(g.reshape(-1, T, B, K), 0, 1) for g in dgrads]
    theta = softmax(eta, axis=3)
    return kl, dist, theta, Forward(
        mu=mu, sg=sg, caches=caches, mu0=mu0, tr_caches=tr_caches,
        theta=theta, eps=eps, dgrads=dgrads) if keep else None


def _stage_nll(theta, bcols, stage, keep):
    """A stage's multinomial term at its nonzero counts (present cells) and,
    with keep, its (nnz, M) probabilities and their layout. A call of its
    own: one stage's padded blocks are freed before the next's are built."""
    rows, cols, c_nz, _ = stage
    p_nz, *layout = nonzero_probs(theta, bcols, rows, cols)
    logp = np.maximum(p_nz, PROB_FLOOR)
    np.log(logp, out=logp)
    scale = 1.0 / (theta.shape[0] * theta.shape[1])
    return scale * float((c_nz @ logp).sum()), (p_nz, layout) if keep else None


def _backward(f, recon, gen, enc, batch, dist_weight):
    """The gradient dict, with "bcols_stage" the (T, V, K) gradients on each
    stage's topic rows, from the Forward f and each stage's (p_nz, layout)
    in recon."""
    T, B, M, K = f.theta.shape
    s0, scale, pm = gen.sigma0, 1.0 / (B * M), batch.present.T
    w = scale * pm[:, :, None]
    grads = {}

    # multinomial term through eta: the scaled count/prob ratio at the
    # nonzero cells, 0 where p is floored, back through each padded gather
    gb = np.zeros((T, gen.beta.shape[0], K))
    gtheta = np.empty_like(f.theta)
    for t, (p_nz, layout) in enumerate(recon):
        ratio = batch.stages[t][2][:, None] / np.maximum(p_nz, PROB_FLOOR)
        ratio[~(p_nz > PROB_FLOOR)] = 0.0
        gtheta[t], gb[t] = nonzero_backward(-scale * ratio, f.theta[t],
                                            *layout, gb.shape[1])
    geta = softmax_backward(f.theta, gtheta, axis=3)

    # KL term: d/dmu_q = -d/dmu0 = (mu_q - mu0)/s0^2, each of the S prior
    # means weighted M // S; f_t's input gradient is eta_{t-1}'s
    gdiff = [((M // m0.shape[2]) * w[sl])[..., None]
             * (f.mu[sl, 0, :, None] - m0) / s0 ** 2
             for sl, m0 in zip((slice(0, 1), slice(1, T)), f.mu0)]
    pending = 0.0
    for t, g in reversed(list(enumerate([*gdiff[0], *gdiff[1]]))):
        geta[t] += pending
        gin, tg = gen.transitions[t].backward(f.tr_caches[t],
                                              -g.reshape(-1, K))
        pending = gin[:, :K].reshape(g.shape)  # unread after stage 1
        key = "trans" if gen.share_across_stages else f"trans{t}"
        for name, val in tg.items():
            # a shared model's first term itself, not 0 + it, keeps a -0.0
            at = f"{key}.{name}"
            grads[at] = grads[at] + val if at in grads else val

    # the heads' (mu, sigma) gradients but the factual mean's chained part;
    # the KL's d/dsigma = -1/sg + sg/s0^2 and the distance's, all heads'
    sg_q = f.sg[:, 0]
    gs = (M * w * (-1.0 / sg_q + sg_q / s0 ** 2)
          + (geta * f.eps).sum(axis=2))[:, None]
    sums = np.concatenate([g.sum(axis=2) for g in gdiff]), geta.sum(axis=2)
    gmu, udg = np.empty_like(f.mu), None
    if f.dgrads is not None:
        dgmu, dgs, dgmu_c, dgs_c = f.dgrads
        uw = (-dist_weight / B) * pm[:, None, :, None]
        udg, gmu[:, 1:] = uw * dgmu, uw * dgmu_c
        gs = np.concatenate([gs + uw * dgs, uw * dgs_c], axis=1)

    # one encoder backward for every head, last stage first
    pending = 0.0
    for t in range(T - 1, -1, -1):
        gmu[t, 0] = pending + sums[0][t] + sums[1][t]
        if udg is not None:
            gmu[t, 0] += udg[t, 0]
        pending, eg = enc.stages[t].backward(f.caches[t], gmu[t], gs[t])
        rows, cols = batch.stages[t][:2]
        f.caches[t][0][rows, cols] = 0.0
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
    kl, dist, theta, fwd = _forward(batch, gen, enc, eps, kind, work,
                                    want_grads)
    nll, recon = zip(*(_stage_nll(theta[t], bcols[t], stage, want_grads)
                       for t, stage in enumerate(batch.stages)))
    kl_t, nll_t, dist_t = np.array([kl, nll, dist])
    res = LossResult(loss=float(kl_t.sum() - nll_t.sum() - w_d * dist_t.sum()),
                     grads=None,
                     components={"kl": kl_t, "nll": nll_t, "dist": dist_t})
    if want_grads:
        res.grads = _backward(fwd, recon, gen, enc, batch, w_d)
        if stage_bcols is None:
            # beta through the per-column softmax, stages summed last first
            gb = res.grads.pop("bcols_stage")
            res.grads["beta"] = softmax_backward(
                bcols[0], _member_sum(gb[::-1]), axis=0)
    return res
