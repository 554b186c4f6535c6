"""Optional per-stage topic drift on top of the time-consistent model.

Each stage gets its own variational topic posterior q(beta_t) =
N(mu_t, diag(sigma_t^2)) tied together by a Gaussian chain: beta_1 against the
N(beta0, delta2 I) prior and beta_t against N(beta_tilde_{t-1}, topic_var I),
where beta_tilde_{t-1} is the reparameterized sample also used in the stage-
(t-1) reconstruction. The chain KL enters the objective once per corpus, so
each size-B batch carries it with weight 1/N, and the full-data loss (the
size-weighted mean of the chunk losses) counts it exactly once. topic_var = 0
is, by definition, the time-consistent model: the fit routes to the ordinary
trainer and the per-stage point estimates replicate the shared topics exactly.

This module supplies only what the chain adds: the topics.mu / topics.rho
parameter blocks, the topic noise (frozen for the full-data evaluation, fresh
for each training batch) and the batch objective with its gradients, each
over the (T, V, K) stack at once (the chain's prior means are the stack
shifted by one stage). The epoch loop, optimizer and stop rule are the
trainer's.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..model import softmax, softmax_backward
from .loss import longitudinal_loss
from .networks import SIGMA_MIN, sigmoid, softplus
from .terms import _member_sum
from .trainer import (
    FittedModel,
    _run_epochs,
    default_init,
    param_registry,
    train,
)


def _topic_scale(rho):
    raw = softplus(rho)
    return np.maximum(raw, SIGMA_MIN), raw


def _chain_kl_and_grads(mu_b, sigma_b, eps_b, beta_tilde, beta0, delta2, var):
    """Topic-chain KL (scalar, the stages added in order) plus gradients on
    (mu, sigma) of the whole (T, V, K) stack. The stage-(t-1) sample is the
    prior mean of stage t, so each interior stage receives its own-KL
    gradient and then the next stage's prior-mean gradient, routed through
    the reparameterization."""
    diff = mu_b - np.concatenate([beta0[None], beta_tilde[:-1]])
    pvar = np.full((mu_b.shape[0], 1, 1), float(var))
    pvar[0] = delta2
    kl = float(_member_sum(np.sum(
        np.log(np.sqrt(pvar) / sigma_b)
        + (sigma_b ** 2 + diff ** 2) / (2.0 * pvar) - 0.5, axis=(1, 2))))
    # each own term added to zero, so a -0.0 term is +0.0, as in the loop
    gmu = 0.0 + diff / pvar
    gsg = 0.0 + (-1.0 / sigma_b + sigma_b / pvar)
    gprior = -diff[1:] / var
    gmu[:-1] += gprior
    gsg[:-1] += gprior * eps_b[:-1]
    return kl, gmu, gsg


def _topic_terms(mu_b, rho_b, eps_b, gen, var):
    """What a batch objective takes from the topic chain under one topic
    noise eps_b: (raw scale, stage_bcols, chain KL, its gradients on mu and
    sigma). It depends on no batch, so one full-data evaluation
    computes it once for all its chunks."""
    sigma_b, raw = _topic_scale(rho_b)
    beta_tilde = mu_b + eps_b * sigma_b
    stage_bcols = softmax(beta_tilde, axis=1)
    kl, gmu, gsg = _chain_kl_and_grads(
        mu_b, sigma_b, eps_b, beta_tilde, gen.beta0_mean, gen.delta2, var)
    return raw, stage_bcols, kl, gmu, gsg


def _dynamic_batch(batch, gen, enc, cfg, eps, mu_b, rho_b, eps_b, inv_n, var,
                   want_grads=True, work=None, topics=None):
    """The batch objective with per-stage topics. topics, when given, is
    _topic_terms of the same (mu_b, rho_b, eps_b, gen, var)."""
    if topics is None:
        topics = _topic_terms(mu_b, rho_b, eps_b, gen, var)
    raw, stage_bcols, kl, gmu, gsg = topics
    res = longitudinal_loss(batch, gen, enc, cfg, eps, want_grads=want_grads,
                            stage_bcols=stage_bcols, work=work)
    loss = res.loss + inv_n * kl
    if not want_grads:
        return loss, None
    grads = res.grads
    gtilde = softmax_backward(stage_bcols, grads.pop("bcols_stage"), axis=1)
    grads["topics.mu"] = inv_n * gmu + gtilde
    grads["topics.rho"] = ((inv_n * gsg + gtilde * eps_b) * sigmoid(rho_b)
                           * (raw > SIGMA_MIN))
    return loss, grads


def fit_dynamic_topics(corpus, cfg):
    """Fit with per-stage topics under chain variance topic_var =
    cfg.dynamic_topics_var (sigma_0^2 of the topic random walk; None is 0).
    Returns a FittedModel whose beta_stage / beta_stage_scale hold the
    per-stage variational moments; stage_topics() gives the per-stage
    simplices."""
    var = float(cfg.dynamic_topics_var or 0.0)
    cfg = replace(cfg, dynamic_topics_var=var)
    gen, enc = default_init(corpus, cfg)
    T = corpus.n_stages
    if var == 0.0:
        fitted = train(corpus, gen, enc, cfg)
        fitted.beta_stage = np.repeat(fitted.gen.beta[None, :, :], T, axis=0)
        fitted.beta_stage_scale = np.zeros_like(fitted.beta_stage)
        return fitted

    V, K = corpus.vocab_size, cfg.n_topics
    inv_n = 1.0 / corpus.n_subjects
    mu_b = np.repeat(gen.beta[None, :, :], T, axis=0).copy()
    rho_b = np.full((T, V, K), math.log(math.expm1(0.1)))
    registry = param_registry(gen, enc, include_beta=False,
                              extra=[("topics.mu", mu_b),
                                     ("topics.rho", rho_b)])
    eval_eps_b = np.random.default_rng([cfg.seed, 4]).standard_normal(
        (T, V, K))
    rng_b = np.random.default_rng([cfg.seed, 5])
    eps_b = np.empty((T, V, K))
    frozen = []     # the evaluation's _topic_terms until the next step

    def batch_loss(batch, eps, want_grads, work):
        if want_grads:
            frozen.clear()
            return _dynamic_batch(batch, gen, enc, cfg, eps, mu_b, rho_b,
                                  rng_b.standard_normal(out=eps_b), inv_n,
                                  var, want_grads, work=work)
        if not frozen:
            frozen.append(_topic_terms(mu_b, rho_b, eval_eps_b, gen, var))
        return _dynamic_batch(batch, gen, enc, cfg, eps, mu_b, rho_b,
                              eval_eps_b, inv_n, var, want_grads, work=work,
                              topics=frozen[0])

    log, converged = _run_epochs(corpus, registry, cfg, batch_loss)
    sigma_b, _ = _topic_scale(rho_b)
    return FittedModel(gen=gen, enc=enc, cfg=cfg, vocab=list(corpus.vocab),
                       n_groups=corpus.n_groups, log=log, converged=converged,
                       beta_stage=mu_b, beta_stage_scale=sigma_b)
