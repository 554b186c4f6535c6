import json

import numpy as np
import pytest

from longtopic.corpus import load_corpus, save_corpus
from longtopic.errors import ConfigError, FormatError, ShapeError
from longtopic.simulate import (
    SimConfig,
    draw_gamma,
    sample_documents,
    sample_metadata,
    sample_topics,
    simulate,
    simulate_proportions,
    topic_centers,
)
from oracles import sample_metadata_ref, truths_equal


def test_topic_centers_paper_setting():
    assert topic_centers(200, 3).tolist() == [66, 133, 200]


def test_topic_centers_single_topic():
    assert topic_centers(37, 1).tolist() == [37]
    cfg = SimConfig(n_subjects=1, n_stages=1, vocab_size=37, n_topics=1,
                    n_covariates=1)
    beta = sample_topics(cfg, np.random.default_rng(cfg.seed))
    assert beta.shape == (1, 37, 1)
    assert beta[0, :, 0].sum() == pytest.approx(1.0, abs=1e-9)


def test_static_topics_identical_across_stages():
    cfg = SimConfig(n_subjects=1, n_stages=5, vocab_size=30, n_topics=3,
                    n_covariates=1, seed=3)
    beta = sample_topics(cfg, np.random.default_rng(cfg.seed))
    for t in range(1, 5):
        assert np.array_equal(beta[t], beta[0])


def test_static_topics_band_dominates():
    cfg = SimConfig(n_subjects=1, n_stages=1, vocab_size=60, n_topics=3,
                    n_covariates=1, seed=0)
    beta = sample_topics(cfg, np.random.default_rng(cfg.seed))[0]
    centers = topic_centers(60, 3)
    for k in range(3):
        band = np.abs(np.arange(1, 61) - centers[k]) <= 10
        assert beta[band, k].sum() > 0.9


def test_drifting_topics_flatten_with_stage():
    cfg = SimConfig(n_subjects=1, n_stages=4, vocab_size=50, n_topics=2,
                    n_covariates=1, phi_drift=3.0)
    beta = sample_topics(cfg, np.random.default_rng(cfg.seed))
    assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-9)
    peaks = beta.max(axis=1)  # (T, K)
    assert np.all(np.diff(peaks, axis=0) < 0)


def test_metadata_random_walk_variance():
    cfg = SimConfig(n_subjects=100_000, n_stages=3, vocab_size=4, n_topics=2,
                    n_covariates=1, seed=9)
    x, _ = sample_metadata(cfg, np.random.default_rng(cfg.seed))
    assert abs(x[:, 0, 0].mean()) < 3 / np.sqrt(cfg.n_subjects)
    for t in range(3):
        v = x[:, t, 0].var()
        assert abs(v - (t + 1)) / (t + 1) < 0.05


@pytest.mark.parametrize("N, T, P", [(5, 3, 2), (7, 4, 1), (4, 1, 3),
                                     (6, 3, 0), (1, 1, 0)])
def test_metadata_walk_matches_the_loop_form(N, T, P):
    cfg = SimConfig(n_subjects=N, n_stages=T, vocab_size=4, n_topics=2,
                    n_covariates=P, n_groups=3, seed=N + T + P)
    r1, r2 = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    x, groups = sample_metadata(cfg, r1)
    want_x, want_groups = sample_metadata_ref(cfg, r2)
    assert x.shape == (N, T, P)
    assert x.tobytes() == want_x.tobytes()
    assert np.array_equal(groups, want_groups)
    # the same number of draws: the generator is left in the same state
    assert r1.bit_generator.state == r2.bit_generator.state


def test_metadata_group_shares():
    cfg = SimConfig(n_subjects=100_000, n_stages=1, vocab_size=4, n_topics=2,
                    n_covariates=0, n_groups=2, seed=10)
    _, groups = sample_metadata(cfg, np.random.default_rng(cfg.seed))
    share = (groups == 0).mean()
    assert abs(share - 0.5) <= 0.01


def test_zero_gamma_gives_uniform_theta():
    cfg = SimConfig(n_subjects=4, n_stages=3, vocab_size=6, n_topics=3,
                    n_covariates=2, seed=1)
    gamma = {"main": np.zeros((3, 3, 2)), "prev": np.zeros(3),
             "group": np.zeros((3, 3, 2))}
    x, groups = sample_metadata(cfg, np.random.default_rng(cfg.seed))
    theta = simulate_proportions(cfg, x, groups, gamma)
    assert np.allclose(theta, 1.0 / 3.0)


def test_proportions_hand_softmax_case():
    cfg = SimConfig(n_subjects=1, n_stages=1, vocab_size=4, n_topics=2,
                    n_covariates=1, prior_kind="linear")
    gamma = {"main": np.array([[[1.0], [0.0]]]), "prev": np.zeros(1),
             "group": np.zeros((1, 2, 1))}
    theta = simulate_proportions(
        cfg, np.ones((1, 1, 1)), np.zeros(1, dtype=int), gamma)
    assert np.allclose(theta[0, 0], [0.73105857863, 0.26894142137], atol=1e-9)


def test_group_term_sign_symmetry():
    cfg = SimConfig(n_subjects=2, n_stages=1, vocab_size=4, n_topics=3,
                    n_covariates=2, prior_kind="linear", seed=4)
    rng = np.random.default_rng(0)
    gamma = {"main": np.zeros((1, 3, 2)), "prev": np.zeros(1),
             "group": rng.standard_normal((1, 3, 2))}
    x = np.tile(rng.standard_normal((1, 1, 2)), (2, 1, 1))
    groups = np.array([0, 1])
    theta = simulate_proportions(cfg, x, groups, gamma)
    f1 = np.log(theta[0, 1]) - np.log(theta[0, 1]).mean()
    f0 = np.log(theta[0, 0]) - np.log(theta[0, 0]).mean()
    assert np.allclose(f0, -f1, atol=1e-9)


def test_proportions_shape_error():
    cfg = SimConfig(n_subjects=2, n_stages=1, vocab_size=4, n_topics=2,
                    n_covariates=2)
    gamma = draw_gamma(cfg, np.random.default_rng(cfg.seed))
    with pytest.raises(ShapeError):
        simulate_proportions(cfg, np.zeros((2, 1, 3)), np.zeros(2, dtype=int),
                             gamma)


def test_multigroup_effects_sum_to_zero():
    cfg = SimConfig(n_subjects=2, n_stages=2, vocab_size=4, n_topics=2,
                    n_covariates=1, n_groups=4, seed=8)
    gamma = draw_gamma(cfg, np.random.default_rng(cfg.seed))
    assert gamma["group"].shape == (2, 2, 1, 4)
    assert np.allclose(gamma["group"].sum(axis=-1), 0.0, atol=1e-12)


def test_document_totals_in_range():
    cfg = SimConfig(n_subjects=30, n_stages=2, vocab_size=12, n_topics=2,
                    n_covariates=1, seed=2)
    corpus, _ = simulate(cfg)
    totals = corpus.total_counts()
    assert totals.min() >= 50 and totals.max() <= 150


def test_single_uniform_topic_word_frequencies():
    cfg = SimConfig(n_subjects=10_000, n_stages=1, vocab_size=4, n_topics=1,
                    n_covariates=1, seed=12)
    beta = np.full((1, 4, 1), 0.25)
    theta = np.ones((1, 10_000, 1))
    x, groups = sample_metadata(cfg, np.random.default_rng(cfg.seed))
    corpus = sample_documents(cfg, theta, beta, x, groups,
                              np.random.default_rng(cfg.seed))
    freqs = corpus.dense_counts().sum(axis=(0, 1))
    freqs = freqs / freqs.sum()
    assert np.all(np.abs(freqs - 0.25) < 0.02 * 0.25 + 0.005)


def test_simulation_deterministic():
    cfg = SimConfig(n_subjects=12, n_stages=2, vocab_size=20, n_topics=2,
                    n_covariates=2, prior_kind="nonlinear", seed=99)
    c1, t1 = simulate(cfg)
    c2, t2 = simulate(cfg)
    assert c1 == c2
    assert truths_equal(t1, t2)


@pytest.mark.parametrize("seed", [2, 9])
def test_a_group_that_drew_no_subject_round_trips(tmp_path, seed):
    # five groups configured, four drawn: the corpus's group count comes
    # from the labels, as loading it back gives
    cfg = SimConfig(n_subjects=6, n_groups=5, n_stages=2, vocab_size=20,
                    n_topics=2, seed=seed)
    corpus, _ = simulate(cfg)
    assert corpus.groups.max() + 1 < cfg.n_groups
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded == corpus
    assert loaded.n_groups == corpus.n_groups == corpus.groups.max() + 1


def test_simplices_valid():
    cfg = SimConfig(n_subjects=15, n_stages=3, vocab_size=25, n_topics=4,
                    n_covariates=2, prior_kind="nonlinear", n_groups=3,
                    seed=21)
    _, truth = simulate(cfg)
    assert np.allclose(truth.beta_true.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(truth.theta_true.sum(axis=2), 1.0, atol=1e-9)


def test_group_effect_separates_theta():
    # the even basis terms (x^2) give the group effect a nonzero mean shift;
    # with a purely linear design the shift shows up only in the spread
    cfg = SimConfig(n_subjects=1000, n_stages=3, vocab_size=6, n_topics=2,
                    n_covariates=1, prior_kind="nonlinear", seed=0)
    rng = np.random.default_rng(100)
    x, groups = sample_metadata(cfg, np.random.default_rng(cfg.seed))
    gamma = draw_gamma(cfg, rng)
    theta = simulate_proportions(cfg, x, groups, gamma)
    a = theta[:, groups == 0, 0].ravel()
    b = theta[:, groups == 1, 0].ravel()
    z = abs(a.mean() - b.mean()) / np.sqrt(
        a.var() / a.size + b.var() / b.size)
    assert z > 2.58  # two-sample mean difference, alpha = 0.01


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_subjects=1, n_stages=1, vocab_size=2, n_topics=3,
                  n_covariates=1)
    with pytest.raises(ConfigError):
        SimConfig(n_subjects=1, n_stages=1, vocab_size=4, n_topics=2,
                  n_covariates=1, count_range=(0, 5))
    with pytest.raises(ConfigError):
        SimConfig(n_subjects=1, n_stages=1, vocab_size=4, n_topics=2,
                  n_covariates=1, basis=("x", "cos"))
    base = dict(n_subjects=1, n_stages=1, vocab_size=4, n_topics=2)
    for bad in (dict(n_subjects=1.5), dict(n_stages=True),
                dict(n_topics="2"), dict(phi_drift="0"), dict(seed=None),
                dict(count_range=5), dict(count_range=(1.5, 3)),
                dict(count_range=(1, 2, 3)), dict(basis=[1])):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SimConfig(**{**base, **bad})
    assert SimConfig(**base, phi_drift=1).phi_drift == 1


def test_truth_roundtrip(tmp_path):
    from longtopic.simulate import load_truth, save_truth

    cfg = SimConfig(n_subjects=5, n_stages=2, vocab_size=10, n_topics=2,
                    n_covariates=1, n_groups=3, seed=1)
    _, truth = simulate(cfg)
    save_truth(truth, tmp_path / "truth.json")
    assert truths_equal(load_truth(tmp_path / "truth.json"), truth)


def _truth_file(tmp_path, **change):
    from longtopic.simulate import save_truth

    cfg = SimConfig(n_subjects=4, n_stages=2, vocab_size=6, n_topics=2,
                    n_covariates=1, n_groups=3, seed=2)
    _, truth = simulate(cfg)
    fname = tmp_path / "truth.json"
    save_truth(truth, fname)
    obj = json.loads(fname.read_text())
    for key, value in change.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    fname.write_text(json.dumps(obj))
    return fname


@pytest.mark.parametrize("change, named", [
    (dict(gamma=None), "'gamma'"),
    (dict(beta_true=None), "'beta_true'"),
    (dict(theta_true=None), "'theta_true'"),
    (dict(beta_true="abc"), "'beta_true'"),
    (dict(beta_true=[[[1.0, "x"]]]), "'beta_true'"),
    (dict(theta_true=[[[0.5, 0.5]], [[0.5]]]), "'theta_true'"),
    (dict(theta_true=[[0.5, 0.5]]), "'theta_true'"),
    (dict(beta_true=[[[0.5, 0.5]]]), "'beta_true'"),
    (dict(theta_true=[[[0.2, 0.3, 0.5]], [[0.2, 0.3, 0.5]]]),
     "'theta_true'"),
    (dict(gamma=[1.0]), "'gamma'"),
    (dict(gamma={"main": [[1.0], "x"]}), "'gamma.main'"),
    (dict(gamma={"prev": None}), "'gamma.prev'"),
])
def test_load_truth_names_the_bad_key(tmp_path, change, named):
    from longtopic.simulate import load_truth

    fname = _truth_file(tmp_path, **change)
    with pytest.raises(FormatError) as err:
        load_truth(fname)
    assert str(fname) in str(err.value) and named in str(err.value)


def test_load_truth_rejects_a_non_object(tmp_path):
    from longtopic.simulate import load_truth

    fname = tmp_path / "truth.json"
    fname.write_text("[1, 2]\n")
    with pytest.raises(FormatError, match="missing key"):
        load_truth(fname)
