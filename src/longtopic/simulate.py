"""Synthetic corpus generator with known ground truth.

Topics are banded over the word axis: topic k centers at word position
mu_k = floor(k * V / K) (1-based positions), carrying logit 1 +/- N(0,1) noise
inside the band |v - mu_k| <= V/(2K) and -4 outside, softmaxed per column and
shared across stages. With phi_drift > 0 the static construction is replaced by
a normal density on word positions whose spread grows with the stage,
sd_t = 1 + (t/T) * phi, so later stages get flatter topics.

Proportions follow a softmax recursion driven by (optionally basis-expanded)
covariates, the previous stage's proportions, and a group effect:
    f_{t,k} = gamma_main[t,k] . B(x_{i,t}) + gamma_prev[t] * theta_{t-1,i,k}
              + <group term>
with theta_0 uniform. For two groups the group term is y * gamma_group[t,k] .
B(x) with y in {-1,+1}; for G > 2 each group has its own coefficient vector,
centered so the G effects sum to zero.

Covariates start standard normal and evolve as a random walk with unit-variance
increments. Documents are single multinomials over theta . beta^T with totals
uniform on count_range. Everything is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import read_entry, read_json, write_json
from .errors import (
    ConfigError,
    FormatError,
    ShapeError,
    check_field_types,
    check_setting,
    setting,
)
from .model import default_vocab, sample_corpus, softmax

BASIS_FUNCS = {
    "x": lambda x: x,
    "x2": lambda x: x ** 2,
    "x3": lambda x: x ** 3,
    "atan": np.arctan,
    "sign": np.sign,
}
DEFAULT_BASIS = ("x", "x2", "x3", "atan", "sign")


@dataclass
class SimConfig:
    n_subjects: int = setting(ge=1)
    n_stages: int = setting(ge=1)
    vocab_size: int
    n_topics: int = setting(ge=1)
    n_covariates: int = setting(20, ge=0)
    n_groups: int = setting(2, ge=2)
    prior_kind: str = setting("linear", one_of=("linear", "nonlinear"))
    basis: tuple = DEFAULT_BASIS
    phi_drift: float = setting(0.0, ge=0)
    group_effect: bool = True
    count_range: tuple = (50, 150)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_field_types(self)
        self.basis = tuple(check_setting(b, "str", "basis")
                           for b in self.basis)
        self.count_range = tuple(int(check_setting(c, "int", "count_range"))
                                 for c in self.count_range)
        if len(self.count_range) != 2:
            raise ConfigError("count_range must be two integers")
        if self.vocab_size < self.n_topics:
            raise ConfigError("vocab_size must be >= n_topics")
        lo, hi = self.count_range
        if not 1 <= lo <= hi < 2**63:
            raise ConfigError("count_range must satisfy 1 <= lo <= hi < 2**63")
        unknown = [b for b in self.basis if b not in BASIS_FUNCS]
        if unknown or not self.basis:
            raise ConfigError(f"basis must name one or more of "
                              f"{sorted(BASIS_FUNCS)}; got {list(self.basis)}")

    @property
    def n_design_features(self):
        if self.prior_kind == "linear":
            return self.n_covariates
        return self.n_covariates * len(self.basis)


def expand_basis(cfg, x):
    """Apply the configured basis elementwise: (..., P) -> (..., F), feature
    blocks ordered by basis function. Identity in linear mode."""
    if cfg.prior_kind == "linear":
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([BASIS_FUNCS[b](x) for b in cfg.basis], axis=-1)


def topic_centers(V, K):
    """1-based band centers mu_k = floor(k * V / K), k = 1..K."""
    return np.floor(np.arange(1, K + 1) * V / K).astype(np.int64)


def sample_topics(cfg, rng):
    """(T, V, K) per-stage topic-word simplices (identical across stages when
    phi_drift = 0)."""
    V, K, T = cfg.vocab_size, cfg.n_topics, cfg.n_stages
    centers = topic_centers(V, K)
    positions = np.arange(1, V + 1, dtype=np.float64)
    if cfg.phi_drift == 0:
        band = np.abs(positions[:, None] - centers[None, :]) <= V / (2.0 * K)
        m = np.where(band, 1.0, -4.0)
        z = m + rng.standard_normal((V, K))
        beta = softmax(z, axis=0)
        return np.repeat(beta[None, :, :], T, axis=0)
    out = np.zeros((T, V, K))
    for t in range(T):
        sd = 1.0 + ((t + 1) / T) * cfg.phi_drift
        dens = np.exp(-0.5 * ((positions[:, None] - centers[None, :]) / sd) ** 2)
        out[t] = dens / dens.sum(axis=0, keepdims=True)
    return out


def sample_metadata(cfg, rng):
    """Covariates (N, T, P): a unit-variance random walk from 0, one (N, P)
    block of N(0,1) steps per stage; group labels uniform over 0..G-1."""
    N, T, P = cfg.n_subjects, cfg.n_stages, cfg.n_covariates
    x = np.cumsum(rng.standard_normal((T, N, P)), axis=0).transpose(1, 0, 2)
    groups = rng.integers(0, cfg.n_groups, size=N)
    return x, groups


def draw_gamma(cfg, rng):
    """Regression coefficients, all iid N(0,1).

    main: (T, K, F); prev: (T,) scalar weight on theta_{t-1}; group: (T, K, F)
    for two groups, else (T, K, F, G) centered to sum to zero over groups.
    group_effect off zeroes the group block.
    """
    T, K, F, G = cfg.n_stages, cfg.n_topics, cfg.n_design_features, cfg.n_groups
    gamma = {
        "main": rng.standard_normal((T, K, F)),
        "prev": rng.standard_normal(T),
    }
    if not cfg.group_effect:
        gamma["group"] = (np.zeros((T, K, F)) if G == 2
                          else np.zeros((T, K, F, G)))
    elif G == 2:
        gamma["group"] = rng.standard_normal((T, K, F))
    else:
        raw = rng.standard_normal((T, K, F, G))
        gamma["group"] = raw - raw.mean(axis=-1, keepdims=True)
    return gamma


def simulate_proportions(cfg, covariates, groups, gamma):
    """(T, N, K) proportion simplices from the softmax recursion; theta_0 is
    uniform 1/K."""
    covariates = np.asarray(covariates, dtype=np.float64)
    groups = np.asarray(groups)
    N, T, K = cfg.n_subjects, cfg.n_stages, cfg.n_topics
    if covariates.shape != (N, T, cfg.n_covariates):
        raise ShapeError(
            f"covariates must be ({N}, {T}, {cfg.n_covariates});"
            f" got {covariates.shape}")
    if groups.shape != (N,):
        raise ShapeError(f"groups must be ({N},); got {groups.shape}")
    F = cfg.n_design_features
    gm, gp, gg = gamma["main"], gamma["prev"], gamma["group"]
    gm = np.asarray(gm, dtype=np.float64)
    gp = np.asarray(gp, dtype=np.float64)
    gg = np.asarray(gg, dtype=np.float64)
    if gm.shape != (T, K, F) or gp.shape != (T,):
        raise ShapeError("gamma main/prev have unexpected shapes")
    expected_gg = (T, K, F) if cfg.n_groups == 2 else (T, K, F, cfg.n_groups)
    if gg.shape != expected_gg:
        raise ShapeError(
            f"gamma group must have shape {expected_gg}; got {gg.shape}")

    theta = np.zeros((T, N, K))
    prev = np.full((N, K), 1.0 / K)
    sign = 2.0 * groups - 1.0 if cfg.n_groups == 2 else None
    for t in range(T):
        bx = expand_basis(cfg, covariates[:, t, :])  # (N, F)
        f = bx @ gm[t].T + gp[t] * prev
        if cfg.n_groups == 2:
            f = f + sign[:, None] * (bx @ gg[t].T)
        else:
            f = f + np.einsum("kfn,nf->nk", gg[t][:, :, groups], bx)
        theta[t] = softmax(f, axis=1)
        prev = theta[t]
    return theta


def sample_documents(cfg, theta_true, beta_true, covariates, groups, rng):
    """One multinomial document per (subject, stage): total count uniform on
    count_range, word distribution theta_{t,i} . beta_t^T. Returns a Corpus
    (covariates standardized inside, G from the drawn labels, as on load)."""
    N, T, V = cfg.n_subjects, cfg.n_stages, cfg.vocab_size
    theta_true = np.asarray(theta_true, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    if theta_true.shape != (T, N, cfg.n_topics):
        raise ShapeError(f"theta_true must be ({T}, {N}, {cfg.n_topics})")
    if beta_true.shape != (T, V, cfg.n_topics):
        raise ShapeError(f"beta_true must be ({T}, {V}, {cfg.n_topics})")
    return sample_corpus(rng, beta_true, theta_true, cfg.count_range,
                         covariates, groups, default_vocab(V))


@dataclass(eq=False)
class GroundTruth:
    beta_true: np.ndarray   # (T, V, K)
    theta_true: np.ndarray  # (T, N, K)
    gamma: dict


def simulate(cfg):
    """Full generator: (Corpus, GroundTruth), fully determined by cfg (and its
    seed). Draw order: topics, metadata, coefficients, documents."""
    rng = np.random.default_rng(cfg.seed)
    beta_true = sample_topics(cfg, rng)
    covariates, groups = sample_metadata(cfg, rng)
    gamma = draw_gamma(cfg, rng)
    theta_true = simulate_proportions(cfg, covariates, groups, gamma)
    corpus = sample_documents(cfg, theta_true, beta_true, covariates, groups,
                              rng)
    return corpus, GroundTruth(beta_true=beta_true, theta_true=theta_true,
                               gamma=gamma)


def save_truth(truth, fname):
    """Ground truth as JSON (nested lists); see load_truth."""
    obj = {
        "beta_true": truth.beta_true.tolist(),
        "theta_true": truth.theta_true.tolist(),
        "gamma": {k: np.asarray(v).tolist() for k, v in truth.gamma.items()},
    }
    write_json(obj, fname)


def load_truth(fname):
    """Ground truth saved by save_truth. A missing key, a non-numeric array,
    or shapes other than beta_true (T, V, K) and theta_true (T, N, K) raise
    FormatError."""
    obj = read_json(fname)
    beta, theta = (read_entry(obj, k, fname)
                   for k in ("beta_true", "theta_true"))
    if beta.ndim != 3 or theta.ndim != 3 or \
            beta.shape[::2] != theta.shape[::2]:  # the same T and K
        raise FormatError(f"{fname}: 'beta_true' {beta.shape}, 'theta_true'"
                          f" {theta.shape} are not (T, V, K), (T, N, K)")
    # a gamma entry's messages name it gamma.<key>
    gamma = read_entry(obj, "gamma", fname, dict)
    return GroundTruth(beta_true=beta, theta_true=theta, gamma={
        k: read_entry({f"gamma.{k}": v}, f"gamma.{k}", fname)
        for k, v in gamma.items()})
