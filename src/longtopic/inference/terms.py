"""Closed-form loss terms and group-separation distances.

All sigma arguments are standard deviations. The kernels are batched over
rows and return the hand-derived partial derivatives used by the training
loop next to the values.

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


def distance_with_grad(kind, mu, s, mu_cfs, s_cfs):
    """Batched distances with hand gradients.

    mu, s: (B, K) factual moments; mu_cfs, s_cfs: C-long lists of (B, K).
    Returns (d (B,), gmu, gs, gmu_cfs, gs_cfs) where the gradients are the raw
    partial derivatives of d per row.
    """
    if kind not in DISTANCE_KINDS:
        raise UnknownDistance(f"unknown distance kind {kind!r}")
    B, K = mu.shape
    zeros = np.zeros((B, K))
    C = len(mu_cfs)
    if kind == "none":
        return (np.zeros(B), zeros, zeros.copy(),
                [np.zeros((B, K)) for _ in range(C)],
                [np.zeros((B, K)) for _ in range(C)])
    if C == 0:
        raise ShapeError("need at least one counterfactual")

    gmu = np.zeros((B, K))
    gs = np.zeros((B, K))
    gmu_cfs = [np.zeros((B, K)) for _ in range(C)]
    gs_cfs = [np.zeros((B, K)) for _ in range(C)]
    d = np.zeros(B)

    if kind == "mi_jsd":
        for c in range(C):
            mu2, s2 = mu_cfs[c], s_cfs[c]
            ssum = s + s2
            diff = mu - mu2
            d += 0.5 * np.sum(np.log(ssum / (4.0 * s * s2))
                              + diff ** 2 / ssum + 0.5, axis=1)
            gmu += diff / ssum
            gmu_cfs[c] -= diff / ssum
            common = 0.5 * (1.0 / ssum - diff ** 2 / ssum ** 2)
            gs += common - 0.5 / s
            gs_cfs[c] += common - 0.5 / s2
        return d, gmu, gs, gmu_cfs, gs_cfs

    if kind == "info_radius":
        # members: factual + counterfactuals, equal weights 1/G
        mus = [mu] + list(mu_cfs)
        ss = [s] + list(s_cfs)
        G = len(mus)
        mu_m = sum(mus) / G
        var_m = sum(si ** 2 + mi ** 2 for mi, si in zip(mus, ss)) / G \
            - mu_m ** 2
        var_m = np.maximum(var_m, 1e-300)
        a_bar = sum(si ** 2 + (mi - mu_m) ** 2
                    for mi, si in zip(mus, ss)) / G
        for mi, si in zip(mus, ss):
            d += np.sum(0.5 * np.log(var_m) - np.log(si)
                        + (si ** 2 + (mi - mu_m) ** 2) / (2.0 * var_m)
                        - 0.5, axis=1)
        d /= G
        # direct dependence on mu_m cancels (the deviations sum to zero);
        # the mixture variance path remains
        gvar = 0.5 / var_m - a_bar / (2.0 * var_m ** 2)
        gs_all = []
        gmu_all = []
        for mi, si in zip(mus, ss):
            dev = mi - mu_m
            gmu_all.append(dev / (G * var_m) + gvar * (2.0 / G) * dev)
            gs_all.append((si / var_m - 1.0 / si) / G
                          + gvar * (2.0 * si / G))
        gmu[:] = gmu_all[0]
        gs[:] = gs_all[0]
        for c in range(C):
            gmu_cfs[c][:] = gmu_all[c + 1]
            gs_cfs[c][:] = gs_all[c + 1]
        return d, gmu, gs, gmu_cfs, gs_cfs

    if kind == "avg_divergence":
        for c in range(C):
            mu2, s2 = mu_cfs[c], s_cfs[c]
            diff = mu - mu2
            d += _kl_rows(mu, s, mu2, s2)
            gmu += diff / s2 ** 2
            gs += -1.0 / s + s / s2 ** 2
            gmu_cfs[c] -= diff / s2 ** 2
            gs_cfs[c] += 1.0 / s2 - (s ** 2 + diff ** 2) / s2 ** 3
        d /= C
        gmu /= C
        gs /= C
        for c in range(C):
            gmu_cfs[c] /= C
            gs_cfs[c] /= C
        return d, gmu, gs, gmu_cfs, gs_cfs

    # norm family: no scale dependence
    for c in range(C):
        diff = mu - mu_cfs[c]
        if kind == "l1":
            d += np.sum(np.abs(diff), axis=1)
            g = np.sign(diff)
        elif kind == "l2":
            norm = np.sqrt(np.sum(diff ** 2, axis=1))
            d += norm
            safe = np.maximum(norm, 1e-300)
            g = diff / safe[:, None]
        else:  # linf; subgradient at the first maximizing coordinate
            idx = np.argmax(np.abs(diff), axis=1)
            rows = np.arange(B)
            d += np.abs(diff[rows, idx])
            g = np.zeros_like(diff)
            g[rows, idx] = np.sign(diff[rows, idx])
        gmu += g
        gmu_cfs[c] -= g
    d /= C
    gmu /= C
    for c in range(C):
        gmu_cfs[c] /= C
    return d, gmu, gs, gmu_cfs, gs_cfs
