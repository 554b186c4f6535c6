"""Minibatch training loop, fitted-model container, and inference.

One epoch loop serves every topic parametrization: `train` (shared topics)
and `dynamic.fit_dynamic_topics` (per-stage topics) each hand it their
parameter registry and a batch objective. It runs plain SGD with momentum
(default) or Adam over all blocks, using the exact gradients of that
objective. After each epoch the full-data loss is evaluated with a frozen eps
tensor (drawn once at startup) and logged; training stops when the relative
change of that logged loss drops to eps_stop, or after t_max epochs. A
non-finite eps_stop disables the stop rule entirely; a non-finite loss raises
DivergedError. Everything is a deterministic function of (corpus, initial
parameters, config): refits are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..corpus import read_json, write_json
from ..errors import (
    ConfigError,
    DivergedError,
    IoError,
    NumericError,
    UnknownDistance,
    VocabMismatch,
)
from ..model import (
    GenerativeParams,
    TransitionModel,
    column_softmax,
    encode_groups,
    softmax,
)
from .loss import (
    CorpusArrays,
    encoder_input,
    longitudinal_loss,
    relative_frequencies,
)
from .networks import EncoderParams, StageEncoder
from .terms import DISTANCE_KINDS


@dataclass
class TrainConfig:
    n_topics: int
    m_samples: int = 5
    learning_rate: float = 1e-2
    t_max: int = 100
    eps_stop: float = 1e-5
    batch_size: int = 64
    dist_kind: str = "mi_jsd"
    dist_weight: float = 1.0
    seed: int = 0
    optimizer: str = "sgd"
    momentum: float = 0.9
    schedule: str = "constant"
    hidden_enc: int = 64
    hidden_trans: int = 0
    share_transitions: bool = False
    tie_encoder_init: bool = False
    init_scale: float = 0.01
    a2: float = 1.0
    delta2: float = 1.0
    dynamic_topics_var: float | None = None

    def __post_init__(self):
        if self.n_topics < 1:
            raise ConfigError("n_topics must be >= 1")
        if self.m_samples < 1:
            raise ConfigError("m_samples must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if self.eps_stop < 0:
            raise ConfigError("eps_stop must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.dist_kind not in DISTANCE_KINDS:
            raise UnknownDistance(f"unknown distance kind {self.dist_kind!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.hidden_enc < 1:
            raise ConfigError("hidden_enc must be >= 1")
        if self.hidden_trans < 0:
            raise ConfigError("hidden_trans must be >= 0")
        if not self.a2 > 0:
            raise ConfigError("a2 must be positive")
        if not self.delta2 > 0:
            raise ConfigError("delta2 must be positive")
        if self.dynamic_topics_var is not None and self.dynamic_topics_var < 0:
            raise ConfigError("dynamic_topics_var must be >= 0")


def default_init(corpus, cfg):
    """Fresh (GenerativeParams, EncoderParams) for a corpus, sized from the
    config; a deterministic function of cfg.seed."""
    rng = np.random.default_rng([cfg.seed, 0])
    gen = GenerativeParams.init(
        corpus.vocab_size, cfg.n_topics, corpus.n_stages, corpus.n_features,
        corpus.n_groups, hidden=cfg.hidden_trans,
        share_across_stages=cfg.share_transitions, rng=rng,
        scale=cfg.init_scale, a2=cfg.a2, delta2=cfg.delta2)
    enc = EncoderParams.init(
        corpus.vocab_size, corpus.n_features, cfg.n_topics, corpus.n_stages,
        corpus.n_groups, hidden=cfg.hidden_enc, rng=rng, scale=cfg.init_scale)
    if cfg.tie_encoder_init:
        # start every stage encoder from the stage-1 draw: the stages still
        # train independently, but group-direction choices stay coherent
        # across stages instead of being broken by symmetry at random
        first = enc.stages[0]
        for stage in enc.stages[1:]:
            for (_, dst), (_, src) in zip(stage.param_items(),
                                          first.param_items()):
                dst[...] = src
    return gen, enc


def param_registry(gen, enc, extra=None, include_beta=True):
    """Ordered (key, array) pairs for every trainable block; shared
    transitions appear once. include_beta=False drops the shared topic
    matrix (per-stage topic fits parametrize topics elsewhere)."""
    items = [("beta", gen.beta)] if include_beta else []
    if gen.share_across_stages:
        items += [(f"trans.{n}", a)
                  for n, a in gen.transitions[0].param_items()]
    else:
        for t, m in enumerate(gen.transitions):
            items += [(f"trans{t}.{n}", a) for n, a in m.param_items()]
    for t, se in enumerate(enc.stages):
        items += [(f"enc{t}.{n}", a) for n, a in se.param_items()]
    if extra:
        items += list(extra)
    return items


class Optimizer:
    """SGD with momentum, or Adam, over a parameter registry. Updates are in
    place so the model objects always hold the live values."""

    def __init__(self, registry, cfg):
        self.registry = registry
        self.kind = cfg.optimizer
        self.momentum = cfg.momentum
        self.t = 0
        if self.kind == "sgd":
            self.v = {k: np.zeros_like(a) for k, a in registry}
        else:
            self.m = {k: np.zeros_like(a) for k, a in registry}
            self.v = {k: np.zeros_like(a) for k, a in registry}

    def step(self, grads, lr):
        self.t += 1
        for key, arr in self.registry:
            g = grads.get(key)
            if g is None:
                continue
            if self.kind == "sgd":
                v = self.v[key]
                v *= self.momentum
                v += g
                arr -= lr * v
            else:
                m, v = self.m[key], self.v[key]
                m *= 0.9
                m += 0.1 * g
                v *= 0.999
                v += 0.001 * g * g
                mhat = m / (1.0 - 0.9 ** self.t)
                vhat = v / (1.0 - 0.999 ** self.t)
                arr -= lr * mhat / (np.sqrt(vhat) + 1e-8)


@dataclass
class FittedModel:
    gen: GenerativeParams
    enc: EncoderParams
    cfg: TrainConfig
    vocab: list
    n_groups: int
    log: list = field(default_factory=list)
    converged: bool = False
    # dynamic mode only: per-stage unnormalized topic means/scales (T, V, K)
    beta_stage: np.ndarray | None = None
    beta_stage_scale: np.ndarray | None = None

    def stage_topics(self):
        """(T, V, K) per-stage topic simplices (replicated in consistent
        mode)."""
        T = self.gen.n_stages
        if self.beta_stage is not None:
            return np.stack([column_softmax(self.beta_stage[t])
                             for t in range(T)])
        b = column_softmax(self.gen.beta)
        return np.repeat(b[None, :, :], T, axis=0)

    @property
    def final_loss(self):
        return self.log[-1]["loss"] if self.log else None


def _run_epochs(corpus, registry, cfg, batch_loss, chunk=256):
    """The epoch loop shared by every topic parametrization. batch_loss(batch,
    eps, want_grads) -> (loss, grads) is the objective on one batch; the
    loop draws the eps tensors, steps the optimizer over the registry, logs
    the full-data loss after each epoch and applies the stop rule. Returns
    (log, converged)."""
    arrays = CorpusArrays(corpus)
    N, T = corpus.n_subjects, corpus.n_stages
    K = cfg.n_topics
    opt = Optimizer(registry, cfg)
    eval_eps = np.random.default_rng([cfg.seed, 1]).standard_normal(
        (N, T, cfg.m_samples, K))
    rng = np.random.default_rng([cfg.seed, 2])

    def full_loss():
        total = 0.0
        for lo in range(0, N, chunk):
            idx = np.arange(lo, min(lo + chunk, N))
            loss, _ = batch_loss(arrays.batch(idx), eval_eps[idx], False)
            total += loss * len(idx)
        return total / N

    def check(loss, epoch):
        if not math.isfinite(loss):
            raise DivergedError(f"loss became non-finite at epoch {epoch}")

    prev_loss = full_loss()
    if not math.isfinite(prev_loss):
        raise DivergedError("initial loss is not finite")
    log = [{"epoch": 0, "loss": prev_loss}]
    for epoch in range(1, cfg.t_max + 1):
        lr = cfg.learning_rate
        if cfg.schedule == "cosine":
            lr *= 0.5 * (1.0 + math.cos(math.pi * (epoch - 1) / cfg.t_max))
        perm = rng.permutation(N)
        try:
            for lo in range(0, N, cfg.batch_size):
                idx = perm[lo:lo + cfg.batch_size]
                eps = rng.standard_normal((len(idx), T, cfg.m_samples, K))
                loss, grads = batch_loss(arrays.batch(idx), eps, True)
                check(loss, epoch)
                opt.step(grads, lr)
            loss = full_loss()
        except NumericError as e:
            raise DivergedError(f"parameters diverged: {e}") from e
        check(loss, epoch)
        log.append({"epoch": epoch, "loss": loss})
        rel = abs(loss - prev_loss) / max(abs(prev_loss), 1e-12)
        prev_loss = loss
        if math.isfinite(cfg.eps_stop) and rel <= cfg.eps_stop:
            return log, True
    return log, False


def train(corpus, gen, enc, cfg):
    """Fit all parameters on a corpus; returns a FittedModel with the
    per-epoch loss log."""
    def batch_loss(batch, eps, want_grads):
        res = longitudinal_loss(batch, gen, enc, cfg, eps,
                                want_grads=want_grads)
        return res.loss, res.grads

    log, converged = _run_epochs(corpus, param_registry(gen, enc), cfg,
                                 batch_loss)
    return FittedModel(gen=gen, enc=enc, cfg=cfg, vocab=list(corpus.vocab),
                       n_groups=corpus.n_groups, log=log,
                       converged=converged)


def encode_corpus(fitted, corpus):
    """Factual posterior moments for every cell: two (T, N, K) arrays.
    Each stage's input goes into one (N, D) buffer from that stage's slice of
    the corpus's CSR counts, so no (N, T, V) array is built."""
    (indptr, words, _, rows), wn = corpus.csr(), relative_frequencies(corpus)
    y_enc = encode_groups(corpus.groups, corpus.n_groups)
    N, T, K = corpus.n_subjects, corpus.n_stages, fitted.gen.n_topics
    mu_all, sg_all = np.zeros((2, T, N, K))
    prev = np.broadcast_to(fitted.gen.eta0, (N, K))
    inp = np.empty((N, fitted.enc.stages[0].in_dim))
    for t in range(T):
        sl = slice(indptr[t * N], indptr[(t + 1) * N])
        encoder_input(inp, rows[sl], words[sl], wn[sl],
                      corpus.covariates[:, t], y_enc, prev)
        mu_all[t], sg_all[t], _ = fitted.enc.stages[t].forward(inp)
        prev = mu_all[t]
    return mu_all, sg_all


def infer_proportions(fitted, corpus):
    """Posterior point estimate theta_hat[t, i] = softmax(mu_q[t, i]);
    (T, N, K) with simplex rows."""
    if list(corpus.vocab) != list(fitted.vocab):
        raise VocabMismatch("corpus vocabulary differs from the fitted model")
    mu_all, _ = encode_corpus(fitted, corpus)
    return softmax(mu_all, axis=2)


# -- serialization -----------------------------------------------------------


def _transition_to_dict(m):
    d = {"K": m.K, "in_dim": m.in_dim, "hidden": m.hidden}
    for name, arr in m.param_items():
        d[name] = arr.tolist()
    return d


def _transition_from_dict(d):
    m = TransitionModel(K=d["K"], in_dim=d["in_dim"], hidden=d["hidden"])
    for name in ("W", "b", "W1", "b1", "W2", "b2"):
        if name in d:
            setattr(m, name, np.asarray(d[name], dtype=np.float64))
    return m


def save_model(fitted, fname):
    """model.json: every parameter tensor, config echo, and training log."""
    gen, enc = fitted.gen, fitted.enc
    trans = ([_transition_to_dict(gen.transitions[0])]
             if gen.share_across_stages
             else [_transition_to_dict(m) for m in gen.transitions])
    obj = {
        "format": "longtopic-model-v1",
        "config": asdict(fitted.cfg),
        "vocab": fitted.vocab,
        "n_groups": fitted.n_groups,
        "n_stages": gen.n_stages,
        "beta": gen.beta.tolist(),
        "beta0_mean": gen.beta0_mean.tolist(),
        "delta2": gen.delta2,
        "a2": gen.a2,
        "eta0": gen.eta0.tolist(),
        "share_across_stages": gen.share_across_stages,
        "transitions": trans,
        "encoders": [
            {"V": s.V, "P": s.P, "E": s.E, "K": s.K, "H": s.H,
             "Wh": s.Wh.tolist(), "bh": s.bh.tolist(),
             "Wm": s.Wm.tolist(), "bm": s.bm.tolist(),
             "Ws": s.Ws.tolist(), "bs": s.bs.tolist()}
            for s in enc.stages],
        "log": fitted.log,
        "converged": fitted.converged,
        "beta_stage": (None if fitted.beta_stage is None
                       else fitted.beta_stage.tolist()),
        "beta_stage_scale": (None if fitted.beta_stage_scale is None
                             else fitted.beta_stage_scale.tolist()),
    }
    write_json(obj, fname)


def load_model(fname):
    obj = read_json(fname)
    if obj.get("format") != "longtopic-model-v1":
        raise IoError(f"{fname}: not a model file")
    cfg = TrainConfig(**obj["config"])
    T = obj["n_stages"]
    share = obj["share_across_stages"]
    models = [_transition_from_dict(d) for d in obj["transitions"]]
    transitions = models * T if share else models
    gen = GenerativeParams(
        beta=np.asarray(obj["beta"], dtype=np.float64),
        transitions=transitions,
        beta0_mean=np.asarray(obj["beta0_mean"], dtype=np.float64),
        delta2=obj["delta2"], a2=obj["a2"],
        eta0=np.asarray(obj["eta0"], dtype=np.float64),
        share_across_stages=share)
    stages = [StageEncoder(
        V=d["V"], P=d["P"], E=d["E"], K=d["K"], H=d["H"],
        Wh=np.asarray(d["Wh"]), bh=np.asarray(d["bh"]),
        Wm=np.asarray(d["Wm"]), bm=np.asarray(d["bm"]),
        Ws=np.asarray(d["Ws"]), bs=np.asarray(d["bs"]))
        for d in obj["encoders"]]
    enc = EncoderParams(stages=stages, n_groups=obj["n_groups"])
    beta_stage = obj.get("beta_stage")
    scale = obj.get("beta_stage_scale")
    return FittedModel(
        gen=gen, enc=enc, cfg=cfg, vocab=list(obj["vocab"]),
        n_groups=obj["n_groups"], log=obj["log"],
        converged=obj["converged"],
        beta_stage=None if beta_stage is None else np.asarray(beta_stage),
        beta_stage_scale=None if scale is None else np.asarray(scale))
