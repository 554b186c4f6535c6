"""Per-stage variational encoders.

Each stage t owns one network g_t mapping
    [normalized BOW (V), covariates x_t (P), group encoding (E),
     previous variational mean (K)]
through a single tanh trunk (width H) to two affine heads: the mean head gives
mu_q in R^K, the scale head gives sigma_q = max(softplus(z), SIGMA_MIN), so
scales are strictly positive everywhere and exactly softplus(bias) at zero
weights. The previous-mean input is the recurrent path carrying temporal
information; at the first stage it is the prior eta0.

Counterfactual moments reuse the *same* network with the group encoding
replaced by a non-factual group, all other inputs (including the factual
previous mean) unchanged — so for two groups a double flip returns the factual
moments exactly. Since only the group columns differ, `forward` takes the
counterfactuals as C group shifts of the factual input: one trunk product, one
head product over the stacked rows, and a matching backward. The heads always
come stacked (1 + C, B, K), factual first; the factual moments alone are the
C = 0 case, which the posterior read-out and the "none" ablation use.

All gradients here are hand-derived; `backward` returns both parameter
gradients and the input gradient so the training loop can chain stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..model import ParamBlock, group_encoding_dim

SIGMA_MIN = 1e-4


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from
    # e^-|x|, which cannot overflow
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass
class StageEncoder(ParamBlock):
    DIMS = ("V", "P", "E", "K", "H")
    V: int
    P: int
    E: int
    K: int
    H: int
    Wh: np.ndarray  # (H, D), D = V + P + E + K
    bh: np.ndarray  # (H,)
    Wm: np.ndarray  # (K, H) mean head
    bm: np.ndarray  # (K,)
    Ws: np.ndarray  # (K, H) scale head
    bs: np.ndarray  # (K,)

    @property
    def in_dim(self):
        return self.V + self.P + self.E + self.K

    @staticmethod
    def param_shapes(V, P, E, K, H):
        return [("Wh", (H, V + P + E + K)), ("bh", (H,)), ("Wm", (K, H)),
                ("bm", (K,)), ("Ws", (K, H)), ("bs", (K,))]

    def forward(self, inp, group_shifts):
        """inp (B, D) and group_shifts (C, B, E), C counterfactual group
        encodings minus the factual one (C = 0 for the factual moments
        alone) -> (mu (1 + C, B, K), sigma (1 + C, B, K), cache), the
        factual heads first. The trunk pre-activation is computed once and
        shifted through the group columns of Wh for each counterfactual."""
        inp = np.asarray(inp, dtype=np.float64)
        if inp.ndim != 2 or inp.shape[1] != self.in_dim:
            raise ShapeError(
                f"encoder input must be (B, {self.in_dim}); got {inp.shape}")
        pre = inp @ self.Wh.T + self.bh
        lo = self.V + self.P
        shifted = pre + group_shifts @ self.Wh[:, lo:lo + self.E].T
        h = np.tanh(np.concatenate([pre[None], shifted]).reshape(-1, self.H))
        mu = h @ self.Wm.T + self.bm
        z = h @ self.Ws.T + self.bs
        raw = softplus(z)
        sigma = np.maximum(raw, SIGMA_MIN)
        shape = (-1, inp.shape[0], self.K)
        return (mu.reshape(shape), sigma.reshape(shape),
                (inp, group_shifts, h, z, raw))

    def backward(self, cache, gmu, gsigma):
        """Upstream gradients on the stacked mu and sigma -> (input gradient
        (B, D), {param: grad}). The heads' trunk gradients are summed onto
        the shared input. The scale path has zero gradient where the floor
        binds."""
        inp, shifts, h, z, raw = cache
        gmu = gmu.reshape(z.shape)
        gz = gsigma.reshape(z.shape) * sigmoid(z) * (raw > SIGMA_MIN)
        gpre = (gmu @ self.Wm + gz @ self.Ws) * (1.0 - h * h)
        B = inp.shape[0]
        gtrunk = gpre.reshape(-1, B, self.H).sum(axis=0)
        grads = {"Wh": gtrunk.T @ inp, "bh": gtrunk.sum(axis=0),
                 "Wm": gmu.T @ h, "bm": gmu.sum(axis=0),
                 "Ws": gz.T @ h, "bs": gz.sum(axis=0)}
        lo = self.V + self.P
        grads["Wh"][:, lo:lo + self.E] += \
            gpre[B:].T @ shifts.reshape(-1, self.E)
        return gtrunk @ self.Wh, grads


@dataclass
class EncoderParams:
    """The full variational family: one StageEncoder per stage plus the group
    book-keeping shared by factual and counterfactual encoding."""

    stages: list
    n_groups: int

    @property
    def n_stages(self):
        return len(self.stages)

    @classmethod
    def init(cls, V, P, K, T, n_groups, hidden=64, rng=None, scale=0.01):
        rng = rng if rng is not None else np.random.default_rng(0)
        E = group_encoding_dim(n_groups)
        stages = [StageEncoder.init(V=V, P=P, E=E, K=K, H=hidden, rng=rng,
                                    scale=scale) for _ in range(T)]
        return cls(stages=stages, n_groups=n_groups)
