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

The first-stage KL is sample-free (mu0_1 does not involve eta), so the
composed objective at T=1 is exactly the single-stage negative ELBO; at later
stages the KL contribution is the shared-eps Monte-Carlo estimate of
E_{eta_{t-1} ~ q_{t-1}}[KL(q_t || p_t)], which is what the stage
decomposition of the evidence bound prescribes.

Gradients are hand-derived and propagated in reverse stage order. Paths into
stage t's moments: the stage-t KL and distance terms, the multinomial term
through eta_{t,j}, the stage-(t+1) prior mean through f_{t+1}(eta_{t,j}, ...),
and the stage-(t+1) encoder inputs (factual and counterfactual) through the
recurrent previous-mean slot. Missing cells keep the recurrent chain alive but
contribute no terms.

Each stage costs a fixed number of batched kernels whatever C and M are: one
encoder pass whose counterfactual heads share the factual trunk, one distance
call on its stacked (1 + C, B, K) moments, one transition pass over the B * M
Monte-Carlo rows, and the reconstruction at the nonzero counts only (a zero
count adds nothing to the likelihood or its gradient).

The dense blocks of a call (the (B * M, V) product, the backward's (B * M, V)
scatter buffer R and the encoder inputs) live in a Workspace that a fit
allocates once and every call reuses through prefix views; R and the word
columns of the encoder inputs are kept all zeros between calls. An evaluation (want_grads=False) keeps no per-stage
caches, so its memory does not grow with the number of stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, ShapeError, UnknownDistance
from ..model import (
    PROB_FLOOR,
    column_softmax,
    column_softmax_backward,
    encode_groups,
    softmax,
)
from .terms import DISTANCE_KINDS, _kl_rows, _member_sum, distance_with_grad


@dataclass
class Batch:
    x: np.ndarray        # (B, T, P)
    y_enc: np.ndarray    # (B, E) factual group encoding
    cf_encs: np.ndarray  # (C, B, E) counterfactual encodings, C = G - 1
    present: np.ndarray  # (B, T) float 0/1
    # nonzero (batch row, word, count, count / cell total), row-major by stage
    rows: np.ndarray
    cols: np.ndarray
    c_nz: np.ndarray
    wn_nz: np.ndarray
    stage_ptr: np.ndarray  # (T + 1,) stage t's: stage_ptr[t]:stage_ptr[t + 1]


class CorpusArrays:
    """Encoder-ready views of a corpus, sliceable into batches. The counts
    are the corpus's CSR count array itself (int64), the relative
    frequencies its values over their cell totals."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.indptr, self.words, self.counts, _ = corpus.csr()
        self.wn = relative_frequencies(corpus)
        self.x = corpus.covariates
        self.present = corpus.present.astype(np.float64)
        G = corpus.n_groups
        self.y_enc = encode_groups(corpus.groups, G)
        # counterfactual slot c holds each subject's c-th non-factual group
        c = np.arange(G - 1)
        self.cf_groups = c + (c >= corpus.groups[:, None])
        self.cf_encs = encode_groups(self.cf_groups.T.ravel(), G).reshape(
            G - 1, corpus.n_subjects, -1)

    def batch(self, idx):
        idx = np.asarray(idx)
        B, (N, T) = idx.size, self.present.shape
        # the entries of cells t*N + idx, stage by stage; pos is the cell's
        # place t*B + b in that order
        cells = (N * np.arange(T)[:, None] + idx).ravel()
        starts = self.indptr[cells]
        lens = self.indptr[cells + 1] - starts
        pos = np.repeat(np.arange(T * B), lens)
        ent = np.arange(pos.size) + (starts - np.cumsum(lens) + lens)[pos]
        return Batch(
            x=self.x[idx], y_enc=self.y_enc[idx],
            cf_encs=self.cf_encs[:, idx],
            present=self.present[idx], rows=pos % B, cols=self.words[ent],
            c_nz=self.counts[ent], wn_nz=self.wn[ent],
            stage_ptr=np.searchsorted(pos, B * np.arange(T + 1)))


def relative_frequencies(corpus):
    """Each nonzero count of corpus.csr() over its cell's total."""
    indptr, _, counts, _ = corpus.csr()
    return counts / np.repeat(corpus.total_counts().T, np.diff(indptr))


class Workspace:
    """The large buffers of longitudinal_loss, allocated once and reused by
    every call of one fit. A call with B rows takes prefix views:

    - prod (rows * M, V): the dense product theta @ bcols.T of one stage,
      sized for the largest evaluation chunk;
    - R (train_rows * M, V): the backward's scattered count/prob ratios,
      sized for the training batch. It is all zeros between calls: a call
      clears the cells it set as soon as their two matmuls are done;
    - inp: the encoder inputs [wn, x_t, y_enc, prev]. A call with gradients
      keeps each stage's input for the backward (stage t at rows t*B to
      (t+1)*B); an evaluation reuses the first B rows at every stage. Like
      R, the first V (word) columns are all zeros between calls: a call
      writes a stage's nonzero frequencies and clears them once the
      encoder is done with them.

    A call that raises may leave R or inp dirty; a fit ends on any error,
    and the next fit allocates a new Workspace.
    """

    def __init__(self, rows, train_rows, T, M, V, D):
        self.prod = np.empty((rows * M, V))
        self.R = np.zeros((train_rows * M, V))
        self.inp = np.zeros((max(rows, T * train_rows), D))


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

    work, when given, is a Workspace with room for this batch; without one
    the call allocates its own. Either way the results are the same bits.
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
        work = Workspace(B, B if want_grads else 0, T, M, V,
                         enc.stages[0].in_dim)

    # ---- forward ----------------------------------------------------------
    # the counterfactual encodings enter only as shifts of the factual group
    # columns, so each stage runs one encoder pass over the 1 + C heads
    shifts = batch.cf_encs[:C] - batch.y_enc
    # what the backward reads of each stage: the encoder input (a view of
    # the workspace), (mu, sigma) of the 1 + C heads, factual first, the
    # encoder cache, the prior mean mu0 ((B, K) at t = 0, (B, M, K) after),
    # the transition cache, theta (B, M, K), the (b, v) indices of the
    # nonzero counts and their flat places in a (B, M, V) block, the
    # (nnz, M) counts / probs there and the distance gradients
    saved = [None] * T

    kl_t = np.zeros(T)
    nll_t = np.zeros(T)
    dist_t = np.zeros(T)

    prev_mean = np.broadcast_to(gen.eta0, (B, K))
    for t in range(T):
        sl = slice(batch.stage_ptr[t], batch.stage_ptr[t + 1])
        rows, cols = batch.rows[sl], batch.cols[sl]
        lo = t * B if want_grads else 0
        inp = work.inp[lo:lo + B]
        inp[rows, cols] = batch.wn_nz[sl]
        inp[:, V:] = np.concatenate([x[:, t], batch.y_enc, prev_mean], axis=1)
        mu, sg, enc_cache = enc.stages[t].forward(inp, shifts)
        if not want_grads:
            inp[rows, cols] = 0.0
        mu_q, sg_q = mu[0], sg[0]
        eta = mu_q[:, None, :] + eps[:, t] * sg_q[:, None, :]

        # prior means: sample-free at the first stage, otherwise one
        # transition pass over all B * M Monte-Carlo rows
        if t == 0:
            tin = np.concatenate([prev_mean, x[:, 0], batch.y_enc], axis=1)
            mu0, tr_cache = gen.transitions[0].forward(tin)
            kl_t[0] = scale * M * float(
                pm[:, 0] @ _kl_rows(mu_q, sg_q, mu0, s0))
        else:
            side = np.concatenate([x[:, t], batch.y_enc], axis=1)
            tin = np.concatenate(
                [prev_eta, np.broadcast_to(
                    side[:, None], (B, M, side.shape[1]))],
                axis=2).reshape(B * M, -1)
            out, tr_cache = gen.transitions[t].forward(tin)
            mu0 = out.reshape(B, M, K)
            kl_t[t] = scale * float(pm[:, t] @ _kl_rows(
                mu_q[:, None], sg_q[:, None], mu0, s0).sum(axis=1))

        # multinomial reconstruction, evaluated at the nonzero counts only
        theta = softmax(eta, axis=2)
        c_nz = batch.c_nz[sl]
        probs = np.matmul(theta.reshape(B * M, K), bcols[t].T,
                          out=work.prod[:B * M])
        # the flat places of the nonzero cells in a (B, M, V) block, one
        # column per sample
        at = (rows * (M * V) + cols)[:, None] + V * np.arange(M)
        p_nz = np.take(probs, at)                             # (nnz, M)
        logp = np.maximum(p_nz, PROB_FLOOR)
        np.log(logp, out=logp)
        nll_t[t] = scale * float(((pm[rows, t] * c_nz) @ logp).sum())

        # group distance (independent of j)
        dgrads = None
        if use_dist:
            d, *dgrads = distance_with_grad(kind, mu_q, sg_q, mu[1:], sg[1:])
            dist_t[t] = float(pm[:, t] @ d) / B

        if want_grads:
            ratio = np.divide(
                np.broadcast_to(c_nz[:, None], p_nz.shape), p_nz,
                out=np.zeros_like(p_nz), where=p_nz > PROB_FLOOR)
            saved[t] = (inp, mu, sg, enc_cache, mu0, tr_cache, theta, rows,
                        cols, at, ratio, dgrads)
        prev_mean, prev_eta = mu_q, eta

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

    def trans_key(t):
        return "trans" if gen.share_across_stages else f"trans{t}"

    R = work.R[:B * M]
    R_flat = R.reshape(-1)
    gb = np.zeros((T, V, K))
    pending_gmu = np.zeros((B, K))
    pending_geta = np.zeros((B, M, K))  # into eta[t] from stage t + 1
    for t in range(T - 1, -1, -1):
        inp, mu, sg, enc_cache, mu0, tr_cache, theta, rows, cols, at, \
            ratio, dgrads = saved[t]
        saved[t] = None
        mu_q, sg_q = mu[0], sg[0]
        geta = pending_geta

        # KL term: d/dmu_q = (mu_q - mu0)/s0^2, d/dsigma = -1/sg + sg/s0^2,
        # d/dmu0 = -(mu_q - mu0)/s0^2
        w = scale * pm[:, t][:, None]
        gsig = -1.0 / sg_q + sg_q / s0 ** 2
        if t == 0:
            gdiff = (M * w) * (mu_q - mu0) / s0 ** 2
            gmu_t = pending_gmu + gdiff
            gs_t = (M * w) * gsig
            _, tg = gen.transitions[0].backward(tr_cache, -gdiff)
        else:
            gdiff = w[:, :, None] * (mu_q[:, None] - mu0) / s0 ** 2
            gmu_t = pending_gmu + gdiff.sum(axis=1)
            gs_t = M * w * gsig
            gin, tg = gen.transitions[t].backward(
                tr_cache, -gdiff.reshape(B * M, K))
            pending_geta = gin[:, :K].reshape(B, M, K)
        for name, val in tg.items():
            add(f"{trans_key(t)}.{name}", val)

        # multinomial term through eta: the scaled count/prob ratio scattered
        # into the dense (B, M, V) buffer, two matmuls, and the cells cleared
        R_flat[at] = (-scale * pm[rows, t])[:, None] * ratio
        gtheta = (R @ bcols[t]).reshape(B, M, K)
        np.matmul(R.T, theta.reshape(B * M, K), out=gb[t])
        R_flat[at] = 0.0
        inner = (gtheta * theta).sum(axis=2, keepdims=True)
        geta = geta + theta * (gtheta - inner)

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
        gin, eg = enc.stages[t].backward(enc_cache, gmu_all, gs_all)
        inp[rows, cols] = 0.0
        for name, val in eg.items():
            add(f"enc{t}.{name}", val)
        pending_gmu = gin[:, -K:]

    # beta through the per-column softmax, the stages summed last to first
    if stage_bcols is None:
        grads["beta"] = column_softmax_backward(bcols[0],
                                                _member_sum(gb[::-1]))
    else:
        grads["bcols_stage"] = gb
    return LossResult(loss=loss, grads=grads, components=components)
