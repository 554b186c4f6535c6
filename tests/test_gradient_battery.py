"""Randomized finite-difference battery over combinations of the configuration
space.

tests/test_gradients.py checks one feature at a time on fixed cases; here
hypothesis draws the features together: every distance kind with a weight
that may be 0, 2-5 groups, affine or hidden transitions, shared or per-stage
transitions, missing cells, 1-3 Monte-Carlo samples, encoder scales pinned at
the floor, and shared or per-stage (dynamic) topics, on tiny shapes. For each
parameter block the analytic directional derivative along one random unit
direction must match a central difference.

The objective has kinks where a gradient jumps: the scale floor SIGMA_MIN,
|mu - mu~| = 0 for l1, and ties of the largest |mu - mu~| for linf. A draw
whose moments sit within a few steps of a kink is rejected, since a central
difference across it measures neither side. So is a draw whose loss is so
large that its rounding error swamps a central difference.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from longtopic.corpus import Corpus
from longtopic.inference.dynamic import _dynamic_batch
from longtopic.inference.loss import CorpusArrays, longitudinal_loss
from longtopic.inference.networks import SIGMA_MIN
from longtopic.inference.terms import DISTANCE_KINDS
from longtopic.inference.trainer import TrainConfig, default_init, param_registry
from longtopic.model import default_vocab

H = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-8
# rejection margin around a kink: far more than one step of H moves any
# encoder output at these shapes and scales
KINK_MARGIN = 1e-3
MAX_LOSS = 1e4


def _corpus(rng, N, T, V, G, missing):
    counts = rng.integers(0, 5, size=(N, T, V))
    counts[:, :, 0] += 1                     # no cell is empty by chance
    if missing:
        cells = rng.random((N, T)) < 0.3
        cells[0] = False                     # keep one full subject
        counts[cells] = 0
    groups = np.arange(N) % G
    return Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                             rng.permutation(groups), default_vocab(V),
                             allow_missing=missing, n_groups=G)


def _record_moments(enc):
    """Wrap each stage encoder's forward to keep (mu, scale pre-activation)
    of every call; returns the list the wrappers append to."""
    seen = []
    for stage in enc.stages:
        def forward(inp, shifts=None, _forward=stage.forward):
            mu, sigma, cache = _forward(inp, shifts)
            _, _, _, z, _ = cache
            seen.append((mu, z))
            return mu, sigma, cache
        stage.forward = forward
    return seen


def _near_kink(seen, kind, use_dist):
    z_floor = np.log(np.expm1(SIGMA_MIN))      # softplus(z_floor) = SIGMA_MIN
    for mu, z in seen:
        if np.any(np.abs(z - z_floor) < KINK_MARGIN):
            return True
        if not use_dist or kind not in ("l1", "linf"):
            continue
        diff = np.sort(np.abs(mu[0] - mu[1:]), axis=-1)    # (C, B, K)
        if kind == "l1" and diff[..., 0].min() < KINK_MARGIN:
            return True
        if kind == "linf" and diff.shape[-1] > 1 and \
                (diff[..., -1] - diff[..., -2]).min() < KINK_MARGIN:
            return True
    return False


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_configurations_match_finite_differences(data):
    kind = data.draw(st.sampled_from(DISTANCE_KINDS), label="kind")
    weight = data.draw(st.sampled_from([0.0, 0.6, 1.7]), label="weight")
    G = data.draw(st.integers(2, 5), label="G")
    hidden = data.draw(st.sampled_from([0, 3]), label="hidden_trans")
    shared = data.draw(st.booleans(), label="share_transitions")
    missing = data.draw(st.booleans(), label="missing")
    M = data.draw(st.integers(1, 3), label="M")
    dynamic = data.draw(st.booleans(), label="dynamic")
    floored = data.draw(st.booleans(), label="floored")
    N = data.draw(st.integers(G, 6), label="N")
    T = data.draw(st.integers(1, 3), label="T")
    V = data.draw(st.integers(3, 8), label="V")
    K = data.draw(st.integers(1, 3), label="K")
    seed = data.draw(st.integers(0, 2 ** 31 - 1), label="seed")

    rng = np.random.default_rng(seed)
    corpus = _corpus(rng, N, T, V, G, missing)
    cfg = TrainConfig(n_topics=K, m_samples=M, dist_kind=kind,
                      dist_weight=weight, seed=seed % 1000, init_scale=0.4,
                      hidden_enc=5, hidden_trans=hidden,
                      share_transitions=shared)
    gen, enc = default_init(corpus, cfg)
    if floored:
        # pin some scales far below the floor, where their gradient is 0
        for stage in enc.stages:
            stage.bs[rng.random(K) < 0.5] = -15.0
    batch = CorpusArrays(corpus).batch(np.arange(N))
    eps = rng.standard_normal((N, T, M, K))
    use_dist = kind != "none" and weight != 0.0

    if dynamic:
        mu_b = np.repeat(gen.beta[None], T, axis=0) \
            + 0.1 * rng.standard_normal((T, V, K))
        rho_b = np.log(np.expm1(0.1)) + 0.05 * rng.standard_normal((T, V, K))
        eps_b = rng.standard_normal((T, V, K))
        registry = param_registry(gen, enc, include_beta=False,
                                  extra=[("topics.mu", mu_b),
                                         ("topics.rho", rho_b)])

        def loss(want_grads=False):
            return _dynamic_batch(batch, gen, enc, cfg, eps, mu_b, rho_b,
                                  eps_b, 1.0 / N, 0.3, want_grads=want_grads)
    else:
        registry = param_registry(gen, enc)

        def loss(want_grads=False):
            res = longitudinal_loss(batch, gen, enc, cfg, eps,
                                    want_grads=want_grads)
            return res.loss, res.grads

    seen = _record_moments(enc)
    value, grads = loss(want_grads=True)
    assume(not _near_kink(seen, kind, use_dist))
    # avg_divergence against a floored scale reaches 1e7: the rounding of
    # such a loss, over 2H, is as large as the tolerance
    assume(abs(value) < MAX_LOSS)
    for stage in enc.stages:
        del stage.forward

    failures = []
    for key, arr in registry:
        v = rng.standard_normal(arr.shape)
        v /= np.linalg.norm(v.ravel())
        analytic = float((grads[key] * v).sum())
        arr += H * v
        plus = loss()[0]
        arr -= 2 * H * v
        minus = loss()[0]
        arr += H * v
        numeric = (plus - minus) / (2 * H)
        if abs(analytic - numeric) > \
                REL_TOL * max(abs(analytic), abs(numeric)) + ABS_TOL:
            failures.append((key, analytic, numeric))
    assert not failures, failures
