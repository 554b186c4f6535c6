"""Generative mathematics: time-consistent topics, transition priors, and the
collapsed word likelihood.

The generative story for one subject: unnormalized topics beta (V x K) are drawn
once and shared across stages; unnormalized proportions follow a chain
eta_t ~ N(f_t(eta_{t-1}, x_t, y), a2 * I) with eta_0 given; theta_t =
softmax(eta_t); and each word is drawn from the mixture theta_t . softmax_col(beta)^T
with the per-word topic assignment summed out, so a document is a single
multinomial over that V-simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BLOCK, Corpus, _dense_blocks
from .errors import NumericError, ShapeError

PROB_FLOOR = 1e-12


def softmax(v, axis=-1):
    """Probability simplex from unbounded reals, max-subtracted for overflow
    safety. Raises NumericError on non-finite input."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericError("softmax input must be finite")
    z = v - v.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def column_softmax(beta):
    """Per-column softmax of a V x K matrix: each column becomes a topic's
    distribution over words."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 2:
        raise ShapeError(f"beta must be V x K; got shape {beta.shape}")
    return softmax(beta, axis=0)


def softmax_backward(p, g, axis):
    """Chain a gradient g on p = softmax(v, axis) back to v."""
    return p * (g - (p * g).sum(axis=axis, keepdims=True))


def group_encoding_dim(n_groups):
    """Width of the group encoding fed to transitions and encoders."""
    return 1 if n_groups == 2 else n_groups - 1


def encode_groups(groups, n_groups):
    """(N,) labels -> (N, E) encoding: +/-1 scalar for two groups, one-hot
    minus the last category otherwise."""
    groups = np.asarray(groups)
    if n_groups < 2:
        raise ShapeError("need at least two groups")
    if np.any(groups < 0) or np.any(groups >= n_groups):
        raise ShapeError("group label out of range")
    if n_groups == 2:
        return (2.0 * groups - 1.0).reshape(-1, 1)
    enc = np.zeros((groups.shape[0], n_groups - 1))
    for g in range(n_groups - 1):
        enc[groups == g, g] = 1.0
    return enc


class ParamBlock:
    """A network block whose parameters are named and shaped by its dimensions
    alone: a dataclass whose DIMS fields are the dimensions, and whose
    param_shapes(**dims) lists (name, shape) of every array in registry
    order. init, param_items and load_model all read that list."""

    def dims(self):
        return {k: getattr(self, k) for k in self.DIMS}

    def param_items(self):
        return [(n, getattr(self, n))
                for n, _ in self.param_shapes(**self.dims())]

    @classmethod
    def init(cls, *, rng, scale=0.01, **dims):
        """A block of the given dimensions: each weight matrix (a name
        starting with W) drawn scale * N(0, 1) from rng in list order, each
        bias zero."""
        return cls(**dims, **{
            n: scale * rng.standard_normal(s) if n[0] == "W" else np.zeros(s)
            for n, s in cls.param_shapes(**dims)})


@dataclass
class TransitionModel(ParamBlock):
    """Per-stage transition f_t mapping [eta_prev (K), x_t (P), y-enc (E)] to
    the next prior mean in R^K. Affine by default; optionally one tanh hidden
    layer of width `hidden`."""

    DIMS = ("K", "in_dim", "hidden")
    K: int
    in_dim: int
    hidden: int = 0
    W: np.ndarray | None = None      # (K, D) when affine
    b: np.ndarray | None = None      # (K,)
    W1: np.ndarray | None = None     # (H, D) when hidden > 0
    b1: np.ndarray | None = None     # (H,)
    W2: np.ndarray | None = None     # (K, H)
    b2: np.ndarray | None = None     # (K,)

    @staticmethod
    def param_shapes(K, in_dim, hidden=0):
        if hidden > 0:
            return [("W1", (hidden, in_dim)), ("b1", (hidden,)),
                    ("W2", (K, hidden)), ("b2", (K,))]
        return [("W", (K, in_dim)), ("b", (K,))]

    def forward(self, inp):
        """inp (B, D) -> (out (B, K), cache)."""
        inp = np.asarray(inp, dtype=np.float64)
        if inp.ndim != 2 or inp.shape[1] != self.in_dim:
            raise ShapeError(
                f"transition input must be (B, {self.in_dim});"
                f" got {inp.shape}")
        if self.hidden > 0:
            h = np.tanh(inp @ self.W1.T + self.b1)
            out = h @ self.W2.T + self.b2
            return out, (inp, h)
        return inp @ self.W.T + self.b, (inp,)

    def backward(self, cache, g):
        """Upstream g (B, K) -> (input gradient (B, D), {param: grad})."""
        if self.hidden > 0:
            inp, h = cache
            gh = (g @ self.W2) * (1.0 - h * h)
            grads = {"W1": gh.T @ inp, "b1": gh.sum(axis=0),
                     "W2": g.T @ h, "b2": g.sum(axis=0)}
            return gh @ self.W1, grads
        (inp,) = cache
        grads = {"W": g.T @ inp, "b": g.sum(axis=0)}
        return g @ self.W, grads


@dataclass
class GenerativeParams:
    """Parameters of the generative process.

    beta: unnormalized time-consistent topics (V x K); beta0_mean and delta2
    give the topic prior N(beta0, delta2 I); transitions hold f_t for each
    stage (a single shared model when share_across_stages); a2 is the
    proportion prior variance (sigma0 = sqrt(a2) is the scale used in KL
    terms); eta0 seeds the chain.
    """

    beta: np.ndarray
    transitions: list
    beta0_mean: np.ndarray | None = None
    delta2: float = 1.0
    a2: float = 1.0
    eta0: np.ndarray | None = None
    share_across_stages: bool = False

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.beta.ndim != 2:
            raise ShapeError("beta must be V x K")
        V, K = self.beta.shape
        if self.beta0_mean is None:
            self.beta0_mean = np.zeros((V, K))
        self.beta0_mean = np.asarray(self.beta0_mean, dtype=np.float64)
        if self.beta0_mean.shape != (V, K):
            raise ShapeError("beta0_mean must match beta's shape")
        if self.eta0 is None:
            self.eta0 = np.zeros(K)
        self.eta0 = np.asarray(self.eta0, dtype=np.float64)
        if self.eta0.shape != (K,):
            raise ShapeError("eta0 must have K entries")
        if self.delta2 < 0 or self.a2 < 0:
            raise NumericError(f"variances must be nonnegative; got"
                               f" a2={self.a2}, delta2={self.delta2}")

    @property
    def n_topics(self):
        return self.beta.shape[1]

    @property
    def n_stages(self):
        return len(self.transitions)

    @property
    def sigma0(self):
        return float(np.sqrt(self.a2))

    @classmethod
    def init(cls, V, K, T, P, n_groups, hidden=0, share_across_stages=False,
             *, rng, scale=0.01, a2=1.0, delta2=1.0):
        E = group_encoding_dim(n_groups)
        beta = scale * rng.standard_normal((V, K))
        n_models = 1 if share_across_stages else T
        models = [TransitionModel.init(K=K, in_dim=K + P + E, hidden=hidden,
                                       rng=rng, scale=scale)
                  for _ in range(n_models)]
        transitions = models * T if share_across_stages else models
        return cls(beta=beta, transitions=transitions, delta2=delta2, a2=a2,
                   share_across_stages=share_across_stages)


def default_vocab(V):
    width = len(str(max(V - 1, 1)))
    return [f"w{v:0{width}d}" for v in range(V)]


def sample_corpus(rng, topics, theta, count_range, covariates, groups, vocab):
    """One multinomial document per (subject, stage) of theta's (T, N, K)
    grid, drawn from rng in a fixed order: every total, uniform on the
    inclusive count_range, then the cells subject by subject, stage by stage,
    each over the words topics[t] @ theta[t, i] of the (T, V, K) topics,
    BLOCK cells at a time into one buffer that the corpus reads. The group
    count is max(2, largest label + 1), as loading the corpus gives."""
    T, N, _ = theta.shape
    lo, hi = count_range
    totals = rng.integers(lo, hi + 1, size=(N, T))
    buf = np.empty((BLOCK, topics.shape[1]), dtype=np.int64)

    def draws():
        for first in range(0, N * T, BLOCK):
            rows = buf[:min(BLOCK, N * T - first)]
            for c, row in enumerate(rows, start=first):
                i, t = divmod(c, T)
                row[...] = rng.multinomial(totals[i, t],
                                           topics[t] @ theta[t, i])
            yield first, rows

    return Corpus._from_blocks(_dense_blocks(draws(), T), covariates, groups,
                               vocab, False, None)
