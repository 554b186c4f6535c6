import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longtopic.errors import NumericError, ShapeError
from longtopic.model import (
    GenerativeParams,
    TransitionModel,
    column_softmax,
    encode_groups,
    sample_corpus,
    softmax,
)
from oracles import (
    collapsed_word_distribution,
    forward_sample,
    multinomial_log_likelihood,
    sample_corpus_ref,
    transition_mean,
)

finite_vecs = st.lists(
    st.floats(-30, 30, allow_nan=False), min_size=1, max_size=6)


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_hand_value():
    out = softmax([np.log(1.0), np.log(3.0)])
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(finite_vecs, st.floats(-50, 50, allow_nan=False))
def test_softmax_shift_invariance(v, c):
    v = np.array(v)
    assert np.allclose(softmax(v + c), softmax(v), atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax([1.0, np.nan])
    with pytest.raises(NumericError):
        softmax([np.inf, 0.0])


def test_softmax_overflow_safe():
    out = softmax([1000.0, 999.0])
    assert np.isfinite(out).all()
    assert out.sum() == pytest.approx(1.0)


def test_collapsed_single_topic():
    beta = np.array([[0.3], [1.2], [-0.5]])
    assert np.allclose(collapsed_word_distribution(np.array([1.0]), beta),
                       column_softmax(beta)[:, 0])


def test_collapsed_hand_mixture():
    # logits large enough that each column is an indicator to within 1e-15
    beta = np.array([[40.0, -40.0], [-40.0, 40.0]])
    out = collapsed_word_distribution(np.array([0.3, 0.7]), beta)
    assert np.allclose(out, [0.3, 0.7], atol=1e-12)


def test_collapsed_shape_error():
    with pytest.raises(ShapeError):
        collapsed_word_distribution(np.array([1.0, 0.0, 0.0]), np.eye(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_collapsed_output_is_simplex(seed):
    rng = np.random.default_rng(seed)
    V, K = rng.integers(1, 8), rng.integers(1, 5)
    theta = rng.dirichlet(np.ones(K))
    beta = rng.standard_normal((V, K))
    p = collapsed_word_distribution(theta, beta)
    assert p.min() > 0
    assert abs(p.sum() - 1.0) < 1e-12


def test_multinomial_ll_hand_value():
    beta = np.zeros((2, 1))
    ll = multinomial_log_likelihood(np.array([2.0, 1.0]), np.array([1.0]), beta)
    assert ll == pytest.approx(3 * np.log(0.5), abs=1e-6)


def test_multinomial_ll_zero_counts():
    beta = np.zeros((3, 2))
    assert multinomial_log_likelihood(
        np.zeros(3), np.array([0.5, 0.5]), beta) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_multinomial_ll_nonpositive(seed):
    rng = np.random.default_rng(seed)
    V, K = rng.integers(1, 8), rng.integers(1, 4)
    counts = rng.integers(0, 5, size=V).astype(float)
    theta = rng.dirichlet(np.ones(K))
    beta = rng.standard_normal((V, K))
    assert multinomial_log_likelihood(counts, theta, beta) <= 0.0


def test_multinomial_ll_nonpositive_when_mixture_rounds_above_one():
    # V=1: every topic puts all mass on the one word, and this theta's
    # float dot product is 1 + 2.2e-16, whose log alone would be positive
    theta = np.array([0.56, 0.33, 0.11])
    beta = np.array([[0.3, -1.2, 2.0]])
    assert collapsed_word_distribution(theta, beta)[0] > 1.0
    assert multinomial_log_likelihood(np.array([4.0]), theta, beta) == 0.0


def test_multinomial_ll_maximized_at_aggregated_counts():
    # separable topics: sigma(beta) = identity blocks over V=2, K=2
    beta = np.array([[40.0, -40.0], [-40.0, 40.0]])
    counts = np.array([3.0, 7.0])
    best = max(np.linspace(0, 1, 201),
               key=lambda q: multinomial_log_likelihood(
                   counts, np.array([q, 1 - q]), beta))
    assert best == pytest.approx(0.3, abs=0.01)


def test_transition_mean_zero_map():
    m = TransitionModel.init(K=2, in_dim=5,
                             rng=np.random.default_rng(0), scale=0.0)
    out = transition_mean(1, np.ones(2), np.ones(2), np.ones(1), m)
    assert np.allclose(out, 0.0)


def test_transition_mean_identity_configuration():
    m = TransitionModel.init(K=2, in_dim=5,
                             rng=np.random.default_rng(0), scale=0.0)
    m.W[:, :2] = np.eye(2)
    eta_prev = np.array([0.4, -1.1])
    out = transition_mean(2, eta_prev, np.zeros(2), np.zeros(1), m)
    assert np.allclose(out, eta_prev)


def test_transition_mean_hand_affine():
    m = TransitionModel.init(K=2, in_dim=4,
                             rng=np.random.default_rng(0), scale=0.0)
    m.W = np.array([[1.0, 2.0, 0.5, 0.0],
                    [0.0, -1.0, 1.0, 3.0]])
    m.b = np.array([0.1, -0.2])
    out = transition_mean(1, np.array([1.0, 2.0]), np.array([3.0]),
                          np.array([-1.0]), m)
    # rows dot [1, 2, 3, -1] plus bias
    assert np.allclose(out, [1 + 4 + 1.5 + 0 + 0.1, 0 - 2 + 3 - 3 - 0.2])


def test_transition_mean_shape_error():
    m = TransitionModel.init(K=2, in_dim=4, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        transition_mean(1, np.ones(3), np.ones(1), np.ones(1), m)


def test_transition_hidden_layer_forward():
    m = TransitionModel.init(K=1, in_dim=2, hidden=3,
                             rng=np.random.default_rng(3), scale=0.5)
    inp = np.array([[0.2, -0.4]])
    out, _ = m.forward(inp)
    h = np.tanh(inp @ m.W1.T + m.b1)
    assert np.allclose(out, h @ m.W2.T + m.b2)


def test_encode_groups_two_group_sign():
    enc = encode_groups(np.array([0, 1, 1]), 2)
    assert enc.shape == (3, 1)
    assert np.allclose(enc[:, 0], [-1.0, 1.0, 1.0])


def test_encode_groups_onehot_minus_last():
    enc = encode_groups(np.array([0, 2, 3]), 4)
    assert enc.shape == (3, 3)
    assert np.allclose(enc[0], [1, 0, 0])
    assert np.allclose(enc[1], [0, 0, 1])
    assert np.allclose(enc[2], [0, 0, 0])


def degenerate_params(V=4, K=2, T=1, P=1):
    gp = GenerativeParams.init(V, K, T, P, n_groups=2,
                               rng=np.random.default_rng(0), scale=0.0,
                               a2=0.0, delta2=0.0)
    return gp


def test_forward_sample_degenerate_variances():
    gp = degenerate_params()
    cov = np.zeros((200, 1, 1))
    groups = np.zeros(200, dtype=int)
    groups[100:] = 1
    corpus = forward_sample(gp, cov, groups, (50, 150), seed=5)
    # theta uniform and beta0 = 0 -> every word equally likely
    freqs = corpus.dense_counts().sum(axis=(0, 1))
    freqs = freqs / freqs.sum()
    assert np.allclose(freqs, 0.25, atol=0.03)
    totals = corpus.total_counts()
    assert totals.min() >= 50 and totals.max() <= 150


def test_forward_sample_matches_collapsed_distribution():
    rng = np.random.default_rng(11)
    gp = degenerate_params(V=6, K=2)
    gp.beta0_mean = rng.standard_normal((6, 2))
    # identity-on-eta transitions with a fixed offset pick a nonuniform theta
    gp.transitions[0].b = np.array([0.8, -0.3])
    cov = np.zeros((10_000, 1, 1))
    groups = np.tile([0, 1], 5_000)
    corpus = forward_sample(gp, cov, groups, (50, 150), seed=6)
    theta = np.exp([0.8, -0.3]) / np.exp([0.8, -0.3]).sum()
    expected = collapsed_word_distribution(theta, gp.beta0_mean)
    freqs = corpus.dense_counts().sum(axis=(0, 1))
    freqs = freqs / freqs.sum()
    assert np.all(np.abs(freqs - expected) < 0.02)


def test_forward_sample_reproducible():
    gp = GenerativeParams.init(5, 2, 2, 1, n_groups=2, scale=0.1,
                               rng=np.random.default_rng(0))
    cov = np.random.default_rng(1).standard_normal((8, 2, 1))
    groups = np.random.default_rng(2).integers(0, 2, size=8)
    a = forward_sample(gp, cov, groups, (50, 150), seed=42)
    b = forward_sample(gp, cov, groups, (50, 150), seed=42)
    assert a == b


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_blocked_sampler_matches_the_dense_sampler(data):
    # up to 900 cells: several blocks of the sampler's buffer
    N = data.draw(st.integers(1, 300))
    T = data.draw(st.integers(1, 3))
    V = data.draw(st.integers(2, 30))
    K = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    topics = softmax(rng.standard_normal((T, V, K)), axis=1)
    theta = softmax(rng.standard_normal((T, N, K)), axis=2)
    args = (topics, theta, (1, 20), rng.standard_normal((N, T, 2)),
            rng.integers(0, 3, size=N), [f"w{v}" for v in range(V)])
    r1, r2 = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got, want = sample_corpus(r1, *args), sample_corpus_ref(r2, *args, None)
    assert got == want
    assert np.array_equal(got.covariates, want.covariates)
    assert r1.integers(2**62) == r2.integers(2**62)
