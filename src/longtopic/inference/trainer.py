"""Minibatch training loop, fitted-model container, and inference.

One epoch loop serves every topic parametrization: `train` (shared topics)
and `dynamic.fit_dynamic_topics` (per-stage topics) each hand it their
parameter registry and a batch objective. It runs plain SGD with momentum
(default) or Adam over all blocks, using the exact gradients of that
objective. After each epoch the full-data loss is evaluated with frozen eps
(the [seed, 1] stream, drawn chunk by chunk) and logged; training stops when
the relative change of that logged loss drops to eps_stop, or after t_max
epochs. An infinite eps_stop disables the stop rule entirely. A loss that
is not finite, or a logged loss above BLOWUP times max(|initial loss|, 1),
raises DivergedError. Refits are bit-identical.
A fit allocates its working memory once (`_run_epochs`): nothing holds a
(rows * M, V) block or the noise of the whole corpus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..corpus import ROW_CHUNK, read_entry, read_json, write_json
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
    group_encoding_dim,
    softmax,
)
from .loss import (MAX_SAMPLE_ELEMENTS, CorpusArrays, longitudinal_loss,
                   stage_heads)
from .networks import EncoderParams, StageEncoder
from .terms import DISTANCE_KINDS

# a logged loss above BLOWUP * max(|initial loss|, 1) has diverged
BLOWUP = 1e6
# numbers per slice of an optimizer step: the slices of the four flat state
# vectors that one slice's expressions read (2 MiB) stay in cache
STEP_CHUNK = 2 ** 16


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
        scale=cfg.init_scale, a2=float(cfg.a2), delta2=float(cfg.delta2))
    enc = EncoderParams.init(
        corpus.vocab_size, corpus.n_features, cfg.n_topics, corpus.n_stages,
        corpus.n_groups, hidden=cfg.hidden_enc, rng=rng, scale=cfg.init_scale)
    if cfg.tie_encoder_init:
        # start every stage encoder from the stage-1 draw: the stages still
        # train independently, but group-direction choices stay coherent
        # across stages instead of being broken by symmetry at random
        first = enc.stages[0]
        for stage in enc.stages[1:]:
            for name, arr in first.param_items():
                getattr(stage, name)[...] = arr
    return gen, enc


def param_registry(gen, enc, extra=None, include_beta=True):
    """Ordered (key, array) pairs for every trainable block; shared
    transitions appear once. include_beta=False drops the shared topic
    matrix (per-stage topic fits parametrize topics elsewhere)."""
    items = [("beta", gen.beta)] if include_beta else []
    blocks = ([("trans", gen.transitions[0])] if gen.share_across_stages
              else [(f"trans{t}", m) for t, m in enumerate(gen.transitions)])
    blocks += [(f"enc{t}", s) for t, s in enumerate(enc.stages)]
    items += [(f"{b}.{n}", a) for b, block in blocks
              for n, a in block.param_items()]
    if extra:
        items += list(extra)
    return items


class Optimizer:
    """SGD with momentum, or Adam, over a parameter registry. The state is
    flat float64 vectors in registry order: the velocity v (Adam's second
    moment), Adam's first moment m, the gradient g and the step s. A step
    copies the gradient dict into g, makes the vectorized update
        sgd:  v = momentum * v + g;  s = lr * v
        adam: m = 0.9 * m + 0.1 * g;  v = 0.999 * v + 0.001 * g * g;
              s = lr * (m / (1 - 0.9^t)) / (sqrt(v / (1 - 0.999^t)) + 1e-8)
    one STEP_CHUNK slice of the vectors at a time (g holds Adam's
    denominator once it is read for the last time), and then subtracts each
    block's view of s from that block in place, so the model objects always
    hold the live values. A step allocates no arrays. NumericError naming
    the first block whose Adam second moment overflows; no parameter moves
    in that step.
    """

    def __init__(self, registry, cfg):
        self.registry = registry
        self.kind = cfg.optimizer
        self.momentum = cfg.momentum
        self.t = 0
        n = sum(a.size for _, a in registry)
        self.v, self.g, self.s = np.zeros((3, n))
        self.m = np.zeros(n) if self.kind == "adam" else None
        self.ends = np.cumsum([a.size for _, a in registry])
        # each block's view of s, the update it subtracts
        self.updates = [part.reshape(a.shape) for (_, a), part in
                        zip(registry, np.split(self.s, self.ends[:-1]))]

    def step(self, grads, lr):
        self.t += 1
        np.concatenate([grads[key] for key, _ in self.registry], axis=None,
                       out=self.g)
        for lo in range(0, self.g.size, STEP_CHUNK):
            g, s, v = (a[lo:lo + STEP_CHUNK] for a in (self.g, self.s, self.v))
            if self.kind == "sgd":
                v *= self.momentum
                v += g
                np.multiply(lr, v, out=s)
                continue
            m = self.m[lo:lo + STEP_CHUNK]
            m *= 0.9
            m += np.multiply(0.1, g, out=s)
            v *= 0.999
            np.multiply(0.001, g, out=s)
            v += np.multiply(s, g, out=s)
            if not math.isfinite(v.max()):  # every update would be 0
                at = lo + np.argmax(~np.isfinite(v))
                key = self.registry[np.searchsorted(self.ends, at, "right")][0]
                raise NumericError(f"the second moment of {key} overflowed")
            np.divide(v, 1.0 - 0.999 ** self.t, out=g)
            np.sqrt(g, out=g)
            g += 1e-8
            np.divide(m, 1.0 - 0.9 ** self.t, out=s)
            np.multiply(lr, s, out=s)
            s /= g
        for (_, arr), update in zip(self.registry, self.updates):
            arr -= update


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
        if self.beta_stage is not None:
            return softmax(self.beta_stage, axis=1)
        b = column_softmax(self.gen.beta)
        return np.repeat(b[None, :, :], self.gen.n_stages, axis=0)


def _run_epochs(corpus, registry, cfg, batch_loss):
    """The epoch loop shared by every topic parametrization. batch_loss(batch,
    eps, want_grads, work) -> (loss, grads) is the objective on one batch,
    with work the fit's encoder-input buffer to pass on to
    longitudinal_loss; the loop draws the eps tensors, steps the optimizer
    over the registry, logs the full-data loss after each epoch and applies
    the stop rule. Returns (log, converged). Before it allocates anything,
    ConfigError when a Monte-Carlo tensor, or one padded (rows, L, M) or
    (rows, L, K) block of the loss's reconstruction (L <= V), would hold
    more than MAX_SAMPLE_ELEMENTS numbers.

    Every large buffer of the fit is allocated once, here: the encoder inputs
    (sized for the full-data evaluation's chunk and the training batch's T
    stages; a short batch or chunk takes prefix views of it) and one
    (rows, T, M, K) eps buffer. The training eps and, chunk by chunk from a
    fresh [seed, 1] generator, the frozen evaluation eps (one (N, T, M, K)
    draw's numbers) are drawn into it in place. The parameters change only
    in the optimizer step that follows a training call (want_grads=True), so
    an objective may keep what the chunks of one full-data evaluation share
    until its next training call."""
    N, T, V = corpus.n_subjects, corpus.n_stages, corpus.vocab_size
    K, M = cfg.n_topics, cfg.m_samples
    rows = min(N, max(ROW_CHUNK, cfg.batch_size))
    for what, size in (("(rows, T, M, K) eval eps", rows * T * M * K),
                       ("(rows, V, max(M, K)) padded loss block",
                        rows * V * max(M, K))):
        if size > MAX_SAMPLE_ELEMENTS:
            raise ConfigError(
                f"m_samples={M} with n_topics={K} needs {size} numbers in"
                f" the {what}, above the cap {MAX_SAMPLE_ELEMENTS}")
    arrays = CorpusArrays(corpus)
    work = np.zeros((max(rows, T * min(N, cfg.batch_size)),
                     V + corpus.n_features + arrays.y_enc.shape[1] + K))
    opt = Optimizer(registry, cfg)
    rng = np.random.default_rng([cfg.seed, 2])
    eps_buf = np.empty((rows, T, M, K))

    def full_loss():
        total = 0.0
        eval_rng = np.random.default_rng([cfg.seed, 1])
        for lo, hi, batch in arrays.chunks():
            eps = eval_rng.standard_normal(out=eps_buf[:hi - lo])
            loss, _ = batch_loss(batch, eps, False, work)
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
        limit = BLOWUP * max(abs(prev_loss), 1.0)
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
            if loss > limit:
                raise DivergedError(
                    f"loss {loss:.6g} at epoch {epoch} is above {limit:.6g},"
                    f" {BLOWUP:g} times max(|initial loss|, 1)")
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
    """Factual posterior moments for every cell, two (T, N, K) arrays: head
    0 of stage_heads, with no counterfactuals, over CorpusArrays.chunks
    through one (ROW_CHUNK, D) input buffer. The model and the corpus must
    agree on the vocabulary, stages, covariates and groups."""
    if list(corpus.vocab) != list(fitted.vocab):
        raise VocabMismatch("corpus vocabulary differs from the fitted model")
    for name, m, c in (
            ("stages", fitted.gen.n_stages, corpus.n_stages),
            ("covariates", fitted.enc.stages[0].P, corpus.n_features),
            ("groups", fitted.n_groups, corpus.n_groups)):
        if m != c:
            raise ShapeError(f"the model has {m} {name}, the corpus {c}")
    N, T, K = corpus.n_subjects, corpus.n_stages, fitted.gen.n_topics
    mu_all, sg_all = np.zeros((2, T, N, K))
    inp = np.zeros((min(N, ROW_CHUNK), fitted.enc.stages[0].in_dim))
    for lo, hi, batch in CorpusArrays(corpus).chunks():
        heads = stage_heads(batch, fitted.enc, fitted.gen.eta0,
                            batch.cf_encs[:0] - batch.y_enc, inp, keep=False)
        for t, (mu, sg, _) in enumerate(heads):
            mu_all[t, lo:hi], sg_all[t, lo:hi] = mu[0], sg[0]
    return mu_all, sg_all


def infer_proportions(fitted, corpus):
    """Posterior point estimate theta_hat[t, i] = softmax(mu_q[t, i]);
    (T, N, K) with simplex rows."""
    mu_all, _ = encode_corpus(fitted, corpus)
    return softmax(mu_all, axis=2)


# -- serialization -----------------------------------------------------------

def _block_to_dict(block):
    d = block.dims()
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


def _read_blocks(cls, obj, key, n, dims, fname):
    """The n cls blocks stored under key: each stored dimension must be the
    one dims gives, and each array is read at the shape param_shapes gives."""
    stored = read_entry(obj, key, fname, list)
    if len(stored) != n:
        raise FormatError(f"{fname}: {key!r} must be a list of {n}")
    blocks = []
    for i, d in enumerate(stored):
        at = f"{fname}: {key}[{i}]"
        for k, want in dims.items():
            got = read_entry(d, k, at, int)
            if got != want:
                raise FormatError(f"{at}: {k!r} is {got}, expected {want}")
        blocks.append(cls(**dims, **{
            name: read_entry(d, name, at, shape=shape)
            for name, shape in cls.param_shapes(**dims)}))
    return blocks


def load_model(fname):
    """The FittedModel that save_model wrote to fname: IoError when it is not
    a model file, FormatError naming the file and the key for a missing,
    unknown or malformed entry. Each block's dimensions are checked before
    its arrays are read at the shapes they give."""
    obj = read_json(fname)
    if not isinstance(obj, dict) or obj.get("format") != "longtopic-model-v1":
        raise IoError(f"{fname}: not a model file")
    try:
        cfg = TrainConfig(**read_entry(obj, "config", fname, dict))
    except (TypeError, ConfigError, UnknownDistance) as e:
        raise FormatError(f"{fname}: bad config: {e}") from e
    vocab = read_entry(obj, "vocab", fname, list)
    if not all(isinstance(w, str) for w in vocab):
        raise FormatError(f"{fname}: 'vocab' must be a list of words")
    share = read_entry(obj, "share_across_stages", fname, bool)
    T = read_entry(obj, "n_stages", fname, int, least=1)
    G = read_entry(obj, "n_groups", fname, int, least=2)
    V, K, E = len(vocab), cfg.n_topics, group_encoding_dim(G)
    first = (read_entry(obj, "encoders", fname, list) or [None])[0]
    P = read_entry(first, "P", f"{fname}: encoders[0]", int, least=0)
    # the encoders first: they check T before the shared model is repeated
    stages = _read_blocks(StageEncoder, obj, "encoders", T,
                          dict(V=V, P=P, E=E, K=K, H=cfg.hidden_enc), fname)
    models = _read_blocks(TransitionModel, obj, "transitions",
                          1 if share else T, dict(K=K, in_dim=K + P + E,
                                                  hidden=cfg.hidden_trans),
                          fname)
    try:
        gen = GenerativeParams(
            beta=read_entry(obj, "beta", fname, shape=(V, K)),
            transitions=models * T if share else models,
            beta0_mean=read_entry(obj, "beta0_mean", fname, shape=(V, K)),
            delta2=float(read_entry(obj, "delta2", fname, shape=())),
            a2=float(read_entry(obj, "a2", fname, shape=())),
            eta0=read_entry(obj, "eta0", fname, shape=(K,)),
            share_across_stages=share)
    except NumericError as e:  # a negative variance; shapes are read right
        raise FormatError(f"{fname}: {e}") from e
    beta_stage, scale = (
        None if obj.get(k) is None else read_entry(obj, k, fname,
                                                   shape=(T, V, K))
        for k in ("beta_stage", "beta_stage_scale"))
    return FittedModel(
        gen=gen, enc=EncoderParams(stages=stages, n_groups=G), cfg=cfg,
        vocab=vocab, n_groups=G, log=read_entry(obj, "log", fname, list),
        converged=read_entry(obj, "converged", fname, bool),
        beta_stage=beta_stage, beta_stage_scale=scale)
