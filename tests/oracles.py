"""Per-document reference implementations of the package's batched kernels:
one document's posterior moments, its group distance, the collapsed word
distribution, its multinomial log-likelihood and one transition mean. Only
tests call them, to check the batched code against a direct computation."""

from dataclasses import dataclass

import numpy as np

from longtopic.errors import ShapeError, UnknownDistance
from longtopic.inference.terms import DISTANCE_KINDS, distance_with_grad
from longtopic.model import PROB_FLOOR, column_softmax, encode_groups


@dataclass
class PosteriorMoments:
    mu: np.ndarray     # (K,)
    sigma: np.ndarray  # (K,) strictly positive


def _encoder_input(w, x, y_enc, prev_mean):
    w = np.asarray(w, dtype=np.float64).ravel()
    total = w.sum()
    wn = w / total if total > 0 else w
    return np.concatenate(
        [wn, np.ravel(x), np.ravel(y_enc), np.ravel(prev_mean)])[None, :]


def encode(w, x, y, prev_mean, params, t):
    """Factual posterior moments for one document slice at stage t.

    w: raw counts (V,), normalized to relative frequencies internally;
    x: covariates (P,); y: the subject's group label; prev_mean: the previous
    stage's variational mean (eta0 at the first stage).
    """
    enc = params.stages[t]
    y_enc = encode_groups(np.array([y]), params.n_groups)[0]
    mu, sigma, _ = enc.forward(_encoder_input(w, x, y_enc, prev_mean))
    return PosteriorMoments(mu=mu[0], sigma=sigma[0])


def counterfactual_encode(w, x, y, prev_mean, params, t):
    """Moments under each non-factual group label (ascending), all other
    inputs unchanged. Exactly n_groups - 1 entries."""
    out = []
    for g in range(params.n_groups):
        if g == int(y):
            continue
        out.append(encode(w, x, g, prev_mean, params, t))
    return out


def group_distance(kind, factual, counterfactuals):
    """Distance between one document's factual posterior and its
    counterfactuals (PosteriorMoments each). kind 'none' returns 0 without
    touching the counterfactual list contents."""
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    if kind == "none":
        return 0.0
    if not counterfactuals:
        raise ShapeError("need at least one counterfactual")
    mu = np.asarray(factual.mu, dtype=np.float64)[None, :]
    s = np.asarray(factual.sigma, dtype=np.float64)[None, :]
    mu_cfs = [np.asarray(c.mu, dtype=np.float64)[None, :]
              for c in counterfactuals]
    s_cfs = [np.asarray(c.sigma, dtype=np.float64)[None, :]
             for c in counterfactuals]
    d, *_ = distance_with_grad(kind, mu, s, mu_cfs, s_cfs)
    return float(d[0])


def collapsed_word_distribution(theta, beta):
    """Word distribution theta . softmax_col(beta)^T with the topic assignment
    collapsed; a convex combination of simplices, so itself a V-simplex."""
    theta = np.asarray(theta, dtype=np.float64)
    b = column_softmax(beta)
    if theta.shape != (b.shape[1],):
        raise ShapeError(
            f"theta has shape {theta.shape}, expected ({b.shape[1]},)")
    return b @ theta


def multinomial_log_likelihood(counts, theta, beta):
    """Sum_v counts_v * log p_v under the collapsed word distribution,
    probabilities clipped to [1e-12, 1] before the log (never -inf, never
    positive when a mixture rounds just above 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    p = collapsed_word_distribution(theta, beta)
    if counts.shape != p.shape:
        raise ShapeError(
            f"counts has shape {counts.shape}, expected {p.shape}")
    return float(counts @ np.log(np.clip(p, PROB_FLOOR, 1.0)))


def transition_mean(t, eta_prev, x_t, y_enc, model):
    """Prior mean mu0_t = f_t(eta_prev, x_t, y_enc) for a single subject.

    t is the 1-based stage index (t=1 pairs with eta_prev = eta0); it only
    labels the call, the mapping is carried by `model`.
    """
    if t < 1:
        raise ShapeError("stage index t must be >= 1")
    inp = np.concatenate([np.ravel(eta_prev), np.ravel(x_t), np.ravel(y_enc)])
    if inp.shape[0] != model.in_dim:
        raise ShapeError(
            f"concatenated input has dim {inp.shape[0]},"
            f" expected {model.in_dim}")
    out, _ = model.forward(inp[None, :])
    return out[0]
