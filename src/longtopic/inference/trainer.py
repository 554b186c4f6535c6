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

A fit allocates its working memory once: one loss Workspace (see loss.py)
sized for the evaluation chunk and the training batch, whose prefix views
serve the shorter last batch and chunk, the eps buffers, and the optimizer's
scratch buffer. The loss calls and optimizer steps in between allocate
nothing of the size of a (rows * M, V) block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..corpus import read_json, write_json
from ..errors import (
    ConfigError,
    DivergedError,
    FormatError,
    IoError,
    NumericError,
    ShapeError,
    UnknownDistance,
    VocabMismatch,
    check_field_types,
    setting,
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
    Workspace,
    encoder_input,
    longitudinal_loss,
    relative_frequencies,
)
from .networks import EncoderParams, StageEncoder
from .terms import DISTANCE_KINDS

# the most float64 numbers (2 GiB) that one Monte-Carlo tensor may hold
MAX_SAMPLE_ELEMENTS = 2 ** 28


@dataclass
class TrainConfig:
    n_topics: int = setting(ge=1)
    m_samples: int = setting(5, ge=1)
    learning_rate: float = setting(1e-2, positive=True)
    t_max: int = setting(100, ge=1)
    eps_stop: float = setting(1e-5, ge=0)
    batch_size: int = setting(64, ge=1)
    dist_kind: str = "mi_jsd"
    dist_weight: float = 1.0
    seed: int = setting(0, ge=0)
    optimizer: str = setting("sgd", one_of=("sgd", "adam"))
    momentum: float = 0.9
    schedule: str = setting("constant", one_of=("constant", "cosine"))
    hidden_enc: int = setting(64, ge=1)
    hidden_trans: int = setting(0, ge=0)
    share_transitions: bool = False
    tie_encoder_init: bool = False
    init_scale: float = 0.01
    a2: float = setting(1.0, positive=True)
    delta2: float = setting(1.0, positive=True)
    dynamic_topics_var: float | None = setting(None, ge=0)

    def __post_init__(self):
        check_field_types(self)
        if self.dist_kind not in DISTANCE_KINDS:
            raise UnknownDistance(f"unknown distance kind {self.dist_kind!r}")


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
    place so the model objects always hold the live values. A step allocates
    no arrays: each update's temporaries go to a scratch buffer of the
    largest block's size, one operation at a time in the order of
        sgd:  v = momentum * v + g;  arr -= lr * v
        adam: m = 0.9 * m + 0.1 * g;  v = 0.999 * v + 0.001 * g * g;
              arr -= lr * (m / (1 - 0.9^t)) / (sqrt(v / (1 - 0.999^t)) + 1e-8)
    """

    def __init__(self, registry, cfg):
        self.registry = registry
        self.kind = cfg.optimizer
        self.momentum = cfg.momentum
        self.t = 0
        self.v = {k: np.zeros_like(a) for k, a in registry}
        if self.kind == "adam":
            self.m = {k: np.zeros_like(a) for k, a in registry}
        # each block's views of the scratch rows (s, and d for adam)
        scratch = np.empty((1 if self.kind == "sgd" else 2,
                            max(a.size for _, a in registry)))
        self.scratch = {k: [row[:a.size].reshape(a.shape) for row in scratch]
                        for k, a in registry}

    def step(self, grads, lr):
        self.t += 1
        for key, arr in self.registry:
            g = grads.get(key)
            if g is None:
                continue
            s = self.scratch[key][0]
            v = self.v[key]
            if self.kind == "sgd":
                v *= self.momentum
                v += g
                np.multiply(lr, v, out=s)
            else:
                m, d = self.m[key], self.scratch[key][1]
                m *= 0.9
                m += np.multiply(0.1, g, out=s)
                v *= 0.999
                np.multiply(0.001, g, out=s)
                v += np.multiply(s, g, out=s)
                np.divide(v, 1.0 - 0.999 ** self.t, out=d)
                np.sqrt(d, out=d)
                d += 1e-8
                np.divide(m, 1.0 - 0.9 ** self.t, out=s)
                np.multiply(lr, s, out=s)
                s /= d
            arr -= s


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


def _run_epochs(corpus, registry, cfg, batch_loss, chunk=256):
    """The epoch loop shared by every topic parametrization. batch_loss(batch,
    eps, want_grads, work) -> (loss, grads) is the objective on one batch,
    with work the fit's Workspace to pass on to longitudinal_loss; the loop
    draws the eps tensors, steps the optimizer over the registry, logs the
    full-data loss after each epoch and applies the stop rule. Returns (log,
    converged). Before it allocates anything, ConfigError when a Monte-Carlo
    tensor would hold more than MAX_SAMPLE_ELEMENTS numbers.

    Every large buffer of the fit is allocated once, here: the Workspace
    (sized for the full-data evaluation's chunk and the training batch; a
    short batch or chunk takes prefix views of it), the frozen evaluation eps
    and the training eps, drawn in place. The parameters change only in the
    optimizer step that follows a training call (want_grads=True), so an
    objective may keep what the chunks of one full-data evaluation share
    until its next training call."""
    N, T, V = corpus.n_subjects, corpus.n_stages, corpus.vocab_size
    K, M = cfg.n_topics, cfg.m_samples
    rows = min(N, max(chunk, cfg.batch_size))
    for what, size in (("(N, T, M, K) eval eps", N * T * M * K),
                       ("(rows * M, V) loss buffer", rows * M * V)):
        if size > MAX_SAMPLE_ELEMENTS:
            raise ConfigError(f"m_samples={M} needs {size} numbers in the"
                              f" {what}, above the cap {MAX_SAMPLE_ELEMENTS}")
    arrays = CorpusArrays(corpus)
    train_rows = min(N, cfg.batch_size)
    work = Workspace(rows, train_rows, T, M, V,
                     V + corpus.n_features + arrays.y_enc.shape[1] + K)
    opt = Optimizer(registry, cfg)
    eval_eps = np.random.default_rng([cfg.seed, 1]).standard_normal(
        (N, T, M, K))
    rng = np.random.default_rng([cfg.seed, 2])
    eps_buf = np.empty((train_rows, T, M, K))

    def full_loss():
        total = 0.0
        for lo in range(0, N, chunk):
            hi = min(lo + chunk, N)
            loss, _ = batch_loss(arrays.batch(np.arange(lo, hi)),
                                 eval_eps[lo:hi], False, work)
            total += loss * (hi - lo)
        return total / N

    def check(loss, epoch):
        if not math.isfinite(loss):
            raise DivergedError(f"loss became non-finite at epoch {epoch}")

    # overflow in a diverging fit reaches the finiteness checks below,
    # which name it, not as a numpy warning printed before the error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prev_loss = full_loss()
        if not math.isfinite(prev_loss):
            raise DivergedError("initial loss is not finite")
        log = [{"epoch": 0, "loss": prev_loss}]
        for epoch in range(1, cfg.t_max + 1):
            lr = cfg.learning_rate
            if cfg.schedule == "cosine":
                lr *= 0.5 * (1.0 + math.cos(math.pi * (epoch - 1)
                                            / cfg.t_max))
            perm = rng.permutation(N)
            try:
                for lo in range(0, N, cfg.batch_size):
                    idx = perm[lo:lo + cfg.batch_size]
                    eps = rng.standard_normal(out=eps_buf[:len(idx)])
                    loss, grads = batch_loss(arrays.batch(idx), eps, True,
                                             work)
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
    def batch_loss(batch, eps, want_grads, work):
        res = longitudinal_loss(batch, gen, enc, cfg, eps,
                                want_grads=want_grads, work=work)
        return res.loss, res.grads

    log, converged = _run_epochs(corpus, param_registry(gen, enc), cfg,
                                 batch_loss)
    return FittedModel(gen=gen, enc=enc, cfg=cfg, vocab=list(corpus.vocab),
                       n_groups=corpus.n_groups, log=log,
                       converged=converged)


def encode_corpus(fitted, corpus):
    """Factual posterior moments for every cell: two (T, N, K) arrays.
    Each stage's input goes into one (N, D) buffer from that stage's slice of
    the corpus's CSR counts, so no (N, T, V) array is built. The model and
    the corpus must agree on the vocabulary, stages, covariates and groups."""
    if list(corpus.vocab) != list(fitted.vocab):
        raise VocabMismatch("corpus vocabulary differs from the fitted model")
    for name, m, c in (
            ("stages", fitted.gen.n_stages, corpus.n_stages),
            ("covariates", fitted.enc.stages[0].P, corpus.n_features),
            ("groups", fitted.n_groups, corpus.n_groups)):
        if m != c:
            raise ShapeError(f"the model has {m} {name}, the corpus {c}")
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
    mu_all, _ = encode_corpus(fitted, corpus)
    return softmax(mu_all, axis=2)


# -- serialization -----------------------------------------------------------

# the dimensions model.json stores next to each parameter block's arrays
_DIMS = {TransitionModel: ("K", "in_dim", "hidden"),
         StageEncoder: ("V", "P", "E", "K", "H")}


def _block_to_dict(block):
    d = {k: getattr(block, k) for k in _DIMS[type(block)]}
    d.update((name, arr.tolist()) for name, arr in block.param_items())
    return d


def save_model(fitted, fname):
    """model.json: every parameter tensor, config echo, and training log."""
    gen, enc = fitted.gen, fitted.enc
    trans = gen.transitions[:1] if gen.share_across_stages else gen.transitions
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
        "transitions": [_block_to_dict(m) for m in trans],
        "encoders": [_block_to_dict(s) for s in enc.stages],
        "log": fitted.log,
        "converged": fitted.converged,
        "beta_stage": (None if fitted.beta_stage is None
                       else fitted.beta_stage.tolist()),
        "beta_stage_scale": (None if fitted.beta_stage_scale is None
                             else fitted.beta_stage_scale.tolist()),
    }
    write_json(obj, fname)


def _get(d, key, where, least=None):
    """d[key]; with least given, an integer >= least. FormatError when d is
    not an object, has no key or holds something else."""
    if not isinstance(d, dict) or key not in d:
        raise FormatError(f"{where}: missing key {key!r}")
    v = d[key]
    if least is not None and (isinstance(v, bool) or not isinstance(v, int)
                              or v < least):
        raise FormatError(f"{where}: {key} must be an integer >= {least};"
                          f" got {v!r}")
    return v


def _get_array(d, key, shape, where):
    """d[key] as a float64 array of the given shape, else FormatError."""
    try:
        arr = np.asarray(_get(d, key, where), dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise FormatError(f"{where}: {key} is not a numeric array") from e
    if arr.shape != shape:
        raise FormatError(
            f"{where}: {key} has shape {arr.shape}, expected {shape}")
    return arr


def _read_blocks(blocks, stored, where):
    """Fill each template block from its stored object: the dimensions must
    be the template's, and each array is read by the name and shape its
    param_items() gives."""
    if not isinstance(stored, list) or len(stored) != len(blocks):
        raise FormatError(f"{where}: expected a list of {len(blocks)}")
    for i, (block, d) in enumerate(zip(blocks, stored)):
        at = f"{where}[{i}]"
        for k in _DIMS[type(block)]:
            if _get(d, k, at) != getattr(block, k):
                raise FormatError(
                    f"{at}: {k} is {d[k]!r}, expected {getattr(block, k)}")
        for name, arr in block.param_items():
            arr[...] = _get_array(d, name, arr.shape, at)


def load_model(fname):
    """The FittedModel that save_model wrote to fname: IoError when it is not
    a model file, FormatError for a missing, unknown or malformed entry.
    Templates sized from the stored dimensions (vocabulary, n_topics, stages,
    groups, and the first stored block's covariates and widths) give every
    parameter's name and shape."""
    obj = read_json(fname)
    if not isinstance(obj, dict) or obj.get("format") != "longtopic-model-v1":
        raise IoError(f"{fname}: not a model file")
    try:
        cfg = TrainConfig(**_get(obj, "config", fname))
    except (TypeError, ConfigError, UnknownDistance) as e:
        raise FormatError(f"{fname}: bad config: {e}") from e
    vocab = _get(obj, "vocab", fname)
    if not isinstance(vocab, list) or not all(
            isinstance(w, str) for w in vocab):
        raise FormatError(f"{fname}: vocab must be a list of words")
    share = _get(obj, "share_across_stages", fname)
    if not isinstance(share, bool):
        raise FormatError(f"{fname}: share_across_stages must be a bool")
    V, K = len(vocab), cfg.n_topics
    T = _get(obj, "n_stages", fname, least=1)
    G = _get(obj, "n_groups", fname, least=2)
    trans, encs = (_get(obj, k, fname) for k in ("transitions", "encoders"))
    t0, e0 = (b[0] if isinstance(b, list) and b else {} for b in (trans, encs))
    P = _get(e0, "P", f"{fname}: encoders[0]", least=0)
    gen = GenerativeParams.init(
        V, K, T, P, G, share_across_stages=share,
        hidden=_get(t0, "hidden", f"{fname}: transitions[0]", least=0),
        a2=float(_get_array(obj, "a2", (), fname)),
        delta2=float(_get_array(obj, "delta2", (), fname)))
    enc = EncoderParams.init(
        V, P, K, T, G, hidden=_get(e0, "H", f"{fname}: encoders[0]", least=1))
    _read_blocks(gen.transitions[:1] if share else gen.transitions, trans,
                 f"{fname}: transitions")
    _read_blocks(enc.stages, encs, f"{fname}: encoders")
    for key in ("beta", "beta0_mean", "eta0"):
        arr = getattr(gen, key)
        arr[...] = _get_array(obj, key, arr.shape, fname)
    beta_stage, scale = (
        None if obj.get(k) is None else _get_array(obj, k, (T, V, K), fname)
        for k in ("beta_stage", "beta_stage_scale"))
    return FittedModel(
        gen=gen, enc=enc, cfg=cfg, vocab=vocab, n_groups=G,
        log=_get(obj, "log", fname), converged=_get(obj, "converged", fname),
        beta_stage=beta_stage, beta_stage_scale=scale)
