import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from longtopic.errors import NumericError, ShapeError, UnknownDistance
from longtopic.inference.terms import DISTANCE_KINDS, distance_with_grad
from oracles import PosteriorMoments, gaussian_kl_term, group_distance, mi_term


def kl_by_quadrature(mu_q, s_q, mu0, s0):
    """Numerical KL(N(mu_q, s_q^2) || N(mu0, s0^2)) via adaptive quadrature.

    Test-only oracle; integrates q(x) log(q(x)/p(x)) over +-12 pooled sds.
    """
    q = stats.norm(mu_q, s_q)
    p = stats.norm(mu0, s0)
    lo = min(mu_q - 12 * s_q, mu0 - 12 * s0)
    hi = max(mu_q + 12 * s_q, mu0 + 12 * s0)
    val, err = integrate.quad(
        lambda x: q.pdf(x) * (q.logpdf(x) - p.logpdf(x)), lo, hi,
        limit=400, points=[mu_q, mu0])
    assert err < 1e-7
    return val


def test_gaussian_kl_identical_is_zero():
    assert gaussian_kl_term([0.3, -1.2], [0.7, 2.0],
                            [0.3, -1.2], [0.7, 2.0]) == pytest.approx(0.0)


def test_gaussian_kl_unit_shift():
    # log(1/1) + (1 + 1)/2 - 1/2 = 0.5
    assert gaussian_kl_term([1.0], [1.0], [0.0], [1.0]) == pytest.approx(
        0.5, abs=1e-12)


def test_gaussian_kl_scale_two():
    # log(1/2) + 4/2 - 1/2
    assert gaussian_kl_term([0.0], [2.0], [0.0], [1.0]) == pytest.approx(
        0.8068528194400547, abs=1e-12)


def test_gaussian_kl_sums_over_dimensions():
    one = gaussian_kl_term([1.0], [1.0], [0.0], [1.0])
    two = gaussian_kl_term([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    assert two == pytest.approx(2 * one, abs=1e-12)


def test_gaussian_kl_matches_quadrature_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu_q, mu0 = rng.uniform(-3, 3, size=2)
        s_q, s0 = rng.uniform(0.2, 3.0, size=2)
        closed = gaussian_kl_term([mu_q], [s_q], [mu0], [s0])
        assert closed == pytest.approx(
            kl_by_quadrature(mu_q, s_q, mu0, s0), abs=1e-6)


def test_gaussian_kl_rejects_bad_scale():
    with pytest.raises(NumericError):
        gaussian_kl_term([0.0], [-1.0], [0.0], [1.0])
    with pytest.raises(NumericError):
        gaussian_kl_term([0.0], [1.0], [0.0], [np.inf])


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5), st.floats(0.1, 4), st.floats(-5, 5),
       st.floats(0.1, 4))
def test_gaussian_kl_nonnegative(mu_q, s_q, mu0, s0):
    assert gaussian_kl_term([mu_q], [s_q], [mu0], [s0]) >= -1e-12


def test_mi_term_coincident_half_scale():
    # s = s~ = 1/2: (1/2)(log(1/(4 * 1/4)) + 0 + 1/2) = 1/4
    assert mi_term([0.0], [0.5], [0.0], [0.5]) == pytest.approx(
        0.25, abs=1e-12)


def test_mi_term_unit_shift():
    # (1/2)(log(2/4) + 1/2 + 1/2)
    assert mi_term([0.0], [1.0], [1.0], [1.0]) == pytest.approx(
        0.15342640972002733, abs=1e-12)


def test_mi_term_symmetric():
    a = mi_term([0.3, -2.0], [0.4, 1.1], [1.0, 0.0], [2.0, 0.6])
    b = mi_term([1.0, 0.0], [2.0, 0.6], [0.3, -2.0], [0.4, 1.1])
    assert a == pytest.approx(b, abs=1e-12)


def test_mi_term_grows_with_mean_gap():
    base = mi_term([0.0], [1.0], [0.0], [1.0])
    far = mi_term([0.0], [1.0], [3.0], [1.0])
    assert far > base


def moments(mu, sigma):
    return PosteriorMoments(mu=np.asarray(mu, float),
                            sigma=np.asarray(sigma, float))


def test_group_distance_none_is_zero():
    assert group_distance("none", moments([1.0], [1.0]), []) == 0.0


def test_group_distance_unknown_kind():
    with pytest.raises(UnknownDistance):
        group_distance("wasserstein", moments([0.0], [1.0]),
                       [moments([1.0], [1.0])])


def test_group_distance_needs_counterfactual():
    with pytest.raises(ShapeError):
        group_distance("l2", moments([0.0], [1.0]), [])


def test_l1_hand_value():
    d = group_distance("l1", moments([1.0, 0.0], [1.0, 1.0]),
                       [moments([0.0, 1.0], [1.0, 1.0])])
    assert d == pytest.approx(2.0, abs=1e-12)


def test_l2_hand_value():
    d = group_distance("l2", moments([3.0, 0.0], [1.0, 1.0]),
                       [moments([0.0, 4.0], [1.0, 1.0])])
    assert d == pytest.approx(5.0, abs=1e-12)


def test_linf_hand_value():
    d = group_distance("linf", moments([3.0, 0.0], [1.0, 1.0]),
                       [moments([0.0, 4.0], [1.0, 1.0])])
    assert d == pytest.approx(4.0, abs=1e-12)


def test_norms_average_over_counterfactuals():
    f = moments([1.0], [1.0])
    cfs = [moments([0.0], [1.0]), moments([3.0], [1.0])]
    assert group_distance("l1", f, cfs) == pytest.approx((1 + 2) / 2)


def test_mi_jsd_sums_over_counterfactuals():
    f = moments([0.0], [1.0])
    cfs = [moments([1.0], [1.0]), moments([1.0], [1.0])]
    single = mi_term([0.0], [1.0], [1.0], [1.0])
    assert group_distance("mi_jsd", f, cfs) == pytest.approx(
        2 * single, abs=1e-12)


def test_avg_divergence_hand_value():
    f = moments([1.0], [1.0])
    cfs = [moments([0.0], [1.0]), moments([0.0], [2.0])]
    kl1 = gaussian_kl_term([1.0], [1.0], [0.0], [1.0])
    kl2 = gaussian_kl_term([1.0], [1.0], [0.0], [2.0])
    assert group_distance("avg_divergence", f, cfs) == pytest.approx(
        (kl1 + kl2) / 2, abs=1e-12)


def test_info_radius_coincident_members_zero():
    f = moments([0.5, -1.0], [0.8, 1.2])
    cfs = [moments([0.5, -1.0], [0.8, 1.2])] * 3
    assert group_distance("info_radius", f, cfs) == pytest.approx(
        0.0, abs=1e-12)


def test_info_radius_two_member_hand_value():
    # members N(0,1), N(2,1): mixture moments mu=1, var = 1 + 1 = 2;
    # each member KL = log(sqrt(2)/1) + (1 + 1)/(2*2) - 1/2 = log(2)/2
    f = moments([0.0], [1.0])
    cfs = [moments([2.0], [1.0])]
    assert group_distance("info_radius", f, cfs) == pytest.approx(
        0.5 * np.log(2.0), abs=1e-12)


def test_norm_distances_ignore_scales():
    f1 = group_distance("l2", moments([1.0, 0.0], [0.1, 0.1]),
                        [moments([0.0, 0.0], [0.1, 0.1])])
    f2 = group_distance("l2", moments([1.0, 0.0], [9.0, 9.0]),
                        [moments([0.0, 0.0], [9.0, 9.0])])
    assert f1 == pytest.approx(f2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([k for k in DISTANCE_KINDS if k != "none"]))
def test_distances_nonnegative_except_offset(seed, kind):
    rng = np.random.default_rng(seed)
    K = rng.integers(1, 5)
    f = moments(rng.normal(size=K), rng.uniform(0.6, 2.0, size=K))
    cfs = [moments(rng.normal(size=K), rng.uniform(0.6, 2.0, size=K))
           for _ in range(rng.integers(1, 4))]
    d = group_distance(kind, f, cfs)
    if kind == "mi_jsd":
        # carries a scale-dependent offset: the per-dim term
        # (1/2)(log((s+s~)/(4ss~)) + (mu-mu~)^2/(s+s~) + 1/2) falls as either
        # sd grows, so over sds in [0.6, 2.0] its floor is at mu = mu~,
        # s = s~ = 2: (1/2)(1/2 - log 4) ~ -0.4431
        assert d >= K * len(cfs) * 0.5 * (0.5 - np.log(4.0)) - 1e-12
    else:
        assert d >= -1e-10
    assert np.isfinite(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_info_radius_at_most_avg_pairwise(seed):
    # radius to the moment-matched mixture center is bounded by the mean
    # divergence to any single member by convexity of KL in its second slot
    rng = np.random.default_rng(seed)
    K = rng.integers(1, 4)
    members = [moments(rng.normal(size=K), rng.uniform(0.5, 2.0, size=K))
               for _ in range(3)]
    radius = group_distance("info_radius", members[0], members[1:])
    assert radius >= -1e-10


def test_distance_with_grad_batch_matches_scalar():
    rng = np.random.default_rng(3)
    B, K, C = 4, 3, 2
    mu = rng.normal(size=(B, K))
    s = rng.uniform(0.5, 2.0, size=(B, K))
    mu_cfs = [rng.normal(size=(B, K)) for _ in range(C)]
    s_cfs = [rng.uniform(0.5, 2.0, size=(B, K)) for _ in range(C)]
    for kind in DISTANCE_KINDS:
        if kind == "none":
            continue
        d, *_ = distance_with_grad(kind, mu, s, mu_cfs, s_cfs)
        for b in range(B):
            scalar = group_distance(
                kind, moments(mu[b], s[b]),
                [moments(mu_cfs[c][b], s_cfs[c][b]) for c in range(C)])
            assert d[b] == pytest.approx(scalar, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([k for k in DISTANCE_KINDS if k != "none"]))
def test_distance_gradients_match_finite_differences(seed, kind):
    rng = np.random.default_rng(seed)
    B, K, C = 2, 3, 2
    mu = rng.normal(size=(B, K))
    s = rng.uniform(0.7, 2.0, size=(B, K))
    mu_cfs = [rng.normal(size=(B, K)) for _ in range(C)]
    s_cfs = [rng.uniform(0.7, 2.0, size=(B, K)) for _ in range(C)]
    if kind == "linf":
        # keep away from ties where the subgradient jumps
        mu += np.arange(K) * 2.0
    d0, gmu, gs, gmu_cfs, gs_cfs = distance_with_grad(
        kind, mu, s, mu_cfs, s_cfs)
    h = 1e-6

    def total(mu_, s_, mu_cfs_, s_cfs_):
        d, *_ = distance_with_grad(kind, mu_, s_, mu_cfs_, s_cfs_)
        return d.sum()

    for arr, grad in [(mu, gmu), (s, gs)]:
        idx = (rng.integers(B), rng.integers(K))
        bumped = arr.copy()
        bumped[idx] += h
        plus = total(bumped if arr is mu else mu,
                     bumped if arr is s else s, mu_cfs, s_cfs)
        bumped[idx] -= 2 * h
        minus = total(bumped if arr is mu else mu,
                      bumped if arr is s else s, mu_cfs, s_cfs)
        fd = (plus - minus) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=2e-4, abs=2e-6)
    c = rng.integers(C)
    idx = (rng.integers(B), rng.integers(K))
    bumped = [a.copy() for a in mu_cfs]
    bumped[c][idx] += h
    plus = total(mu, s, bumped, s_cfs)
    bumped[c][idx] -= 2 * h
    minus = total(mu, s, bumped, s_cfs)
    assert gmu_cfs[c][idx] == pytest.approx(
        (plus - minus) / (2 * h), rel=2e-4, abs=2e-6)
