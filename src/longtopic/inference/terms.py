"""Closed-form loss terms and group-separation distances.

All sigma arguments are standard deviations. The kernels are batched over
rows and return the hand-derived partial derivatives used by the training
loop next to the values. A distance takes the factual posterior's (B, K)
moments and its C counterfactuals' stacked (C, B, K), the G = 1 + C members
of the encoder's heads, and is one expression per kind over that stack: its
cost is a fixed number of array operations whatever C is.

The mi_jsd distance sums the pairwise factual/counterfactual separation
    (1/2) * { log((s + s~) / (4 s s~)) + (mu - mu~)^2 / (s + s~) + 1/2 }
over dimensions; it is symmetric in its two distributions and need not
vanish at coincidence (at mu = mu~, s = s~ it is (1/2)(log(1/(2s)) + 1/2) per
dimension — only differences of this term matter in the objective, so the
offset is immaterial).

Distances over the factual posterior Q_y and its counterfactuals:
    mi_jsd         sum of that separation over counterfactuals (the default)
    info_radius    (1/G) sum_g KL(Q_g || M), M the moment-matched Gaussian of
                   the equal-weight mixture of all G members
    avg_divergence (1/(G-1)) sum_{g != y} KL(Q_y || Q_g)
    l1/l2/linf     the corresponding norm of (mu - mu~), averaged over
                   counterfactuals
    none           0
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, UnknownDistance

DISTANCE_KINDS = ("none", "mi_jsd", "info_radius", "avg_divergence",
                  "l1", "l2", "linf")


# -- batched values + gradients ---------------------------------------------


def _kl_rows(mu, s, mu2, s2):
    """Row-wise KL(N(mu, s^2) || N(mu2, s2^2)) summed over the last axis."""
    return np.sum(
        np.log(s2 / s) + (s ** 2 + (mu - mu2) ** 2) / (2.0 * s2 ** 2) - 0.5,
        axis=-1)


def _member_sum(x):
    """Sum over the leading (member) axis in member order, starting from 0,
    as a running total does: a plain reduce pairs the terms up once they are
    single numbers (B = 1) and there are eight or more."""
    return np.cumsum(x, axis=0)[-1] + 0.0


def distance_with_grad(kind, mu, s, mu_cfs, s_cfs):
    """Batched distances with hand gradients.

    mu, s: (B, K) factual moments; mu_cfs, s_cfs: the C counterfactual
    moments, a (C, B, K) array or a C-long list of (B, K). Returns (d (B,),
    gmu, gs, gmu_cfs, gs_cfs) where the gradients are the raw partial
    derivatives of d per row, gmu_cfs and gs_cfs stacked (C, B, K).
    """
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    B, K = mu.shape
    mu2 = np.asarray(mu_cfs, dtype=np.float64).reshape(-1, B, K)
    s2 = np.asarray(s_cfs, dtype=np.float64).reshape(mu2.shape)
    C = mu2.shape[0]
    if kind == "none":
        return (np.zeros(B), np.zeros((B, K)), np.zeros((B, K)),
                np.zeros(mu2.shape), np.zeros(mu2.shape))
    if C == 0:
        raise ShapeError("need at least one counterfactual")

    if kind == "info_radius":
        # members: factual + counterfactuals, equal weights 1/G
        G = C + 1
        mus = np.concatenate([mu[None], mu2])
        ss = np.concatenate([s[None], s2])
        mu_m = _member_sum(mus) / G
        var_m = np.maximum(_member_sum(ss ** 2 + mus ** 2) / G - mu_m ** 2,
                           1e-300)
        dev = mus - mu_m
        sq = ss ** 2 + dev ** 2
        d = _member_sum(np.sum(0.5 * np.log(var_m) - np.log(ss)
                               + sq / (2.0 * var_m) - 0.5, axis=2)) / G
        # direct dependence on mu_m cancels (the deviations sum to zero);
        # the mixture variance path remains
        gvar = 0.5 / var_m - (_member_sum(sq) / G) / (2.0 * var_m ** 2)
        gmu = dev / (G * var_m) + gvar * (2.0 / G) * dev
        gs = (ss / var_m - 1.0 / ss) / G + gvar * (2.0 * ss / G)
        return d, gmu[0], gs[0], gmu[1:], gs[1:]

    # pairwise kinds: per counterfactual the distance dc and its gradient gm
    # in mu (-gm in mu~); mi_jsd sums over the counterfactuals, the others
    # average. gs, gs2 are the gradients in s and s~, already so weighted.
    diff = mu - mu2
    n = 1 if kind == "mi_jsd" else C
    if kind == "mi_jsd":
        ssum = s + s2
        dc = 0.5 * np.sum(np.log(ssum / (4.0 * s * s2)) + diff ** 2 / ssum
                          + 0.5, axis=2)
        gm = diff / ssum
        common = 0.5 * (1.0 / ssum - diff ** 2 / ssum ** 2)
        gs, gs2 = _member_sum(common - 0.5 / s), common - 0.5 / s2
    elif kind == "avg_divergence":
        dc = _kl_rows(mu, s, mu2, s2)
        gm = diff / s2 ** 2
        gs = _member_sum(-1.0 / s + s / s2 ** 2) / C
        gs2 = (1.0 / s2 - (s ** 2 + diff ** 2) / s2 ** 3) / C
    else:  # the norm family: no scale dependence
        gs, gs2 = np.zeros((B, K)), np.zeros(mu2.shape)
        if kind == "l1":
            dc, gm = np.sum(np.abs(diff), axis=2), np.sign(diff)
        elif kind == "l2":
            dc = np.sqrt(np.sum(diff ** 2, axis=2))
            gm = diff / np.maximum(dc, 1e-300)[..., None]
        else:  # linf; subgradient at the first maximizing coordinate
            idx = np.argmax(np.abs(diff), axis=2)[..., None]
            dc = np.abs(np.take_along_axis(diff, idx, axis=2))[..., 0]
            gm = np.where(np.arange(K) == idx, np.sign(diff), 0.0)
    return (_member_sum(dc) / n, _member_sum(gm) / n, gs, (0.0 - gm) / n,
            gs2)
