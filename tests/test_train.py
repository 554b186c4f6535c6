import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from longtopic.corpus import Corpus, write_json
from longtopic.errors import (
    ConfigError,
    DivergedError,
    FormatError,
    IoError,
    NumericError,
    UnknownDistance,
    VocabMismatch,
)
from longtopic.inference import trainer
from longtopic.inference.dynamic import fit_dynamic_topics
from longtopic.inference.loss import MAX_SAMPLE_ELEMENTS, longitudinal_loss
from longtopic.inference.trainer import (
    Optimizer,
    TrainConfig,
    default_init,
    encode_corpus,
    infer_proportions,
    load_model,
    param_registry,
    save_model,
    train,
)
from longtopic.model import default_vocab
from conftest import CAN_FORK, no_child_left, no_fork
from oracles import OptimizerRef


def two_topic_corpus(N=40, T=1, seed=0, n_groups=2):
    """Documents draw from one of two disjoint word pairs; the first half of
    the subjects use words {0,1}, the rest {2,3}. Subject i is in group
    i % n_groups."""
    rng = np.random.default_rng(seed)
    V = 4
    counts = np.zeros((N, T, V))
    for i in range(N):
        lo = 0 if i < N // 2 else 2
        for t in range(T):
            draws = rng.integers(lo, lo + 2, size=60)
            for v in draws:
                counts[i, t, v] += 1
    cov = rng.standard_normal((N, T, 2))
    groups = np.arange(N) % n_groups
    return Corpus.from_dense(counts, cov, groups, default_vocab(V),
                             n_groups=n_groups)


def fast_cfg(**kw):
    base = dict(n_topics=2, m_samples=2, learning_rate=0.02,
                t_max=30, batch_size=16, dist_kind="none", dist_weight=0.0,
                hidden_enc=8, seed=0, optimizer="adam")
    base.update(kw)
    return TrainConfig(**base)


def fit(corpus, cfg):
    gen, enc = default_init(corpus, cfg)
    return train(corpus, gen, enc, cfg)


def test_loss_decreases_on_toy_corpus():
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg())
    losses = [e["loss"] for e in fitted.log]
    assert losses[-1] < losses[0]
    # substantial progress, not a numerical wiggle
    assert losses[0] - losses[-1] > 1.0


def test_refit_is_bit_identical():
    corpus = two_topic_corpus()
    a = fit(corpus, fast_cfg(t_max=8))
    b = fit(corpus, fast_cfg(t_max=8))
    assert a.log == b.log
    assert np.array_equal(a.gen.beta, b.gen.beta)
    for sa, sb in zip(a.enc.stages, b.enc.stages):
        for (n, pa), (_, pb) in zip(sa.param_items(), sb.param_items()):
            assert np.array_equal(pa, pb), n


def test_seed_changes_trajectory():
    corpus = two_topic_corpus()
    a = fit(corpus, fast_cfg(t_max=5, seed=0))
    b = fit(corpus, fast_cfg(t_max=5, seed=1))
    assert not np.array_equal(a.gen.beta, b.gen.beta)


def test_infinite_eps_stop_runs_every_epoch():
    corpus = two_topic_corpus(N=16)
    fitted = fit(corpus, fast_cfg(t_max=7, eps_stop=float("inf")))
    assert [e["epoch"] for e in fitted.log] == list(range(8))
    assert not fitted.converged


def test_tight_eps_stop_converges_early():
    corpus = two_topic_corpus(N=16)
    fitted = fit(corpus, fast_cfg(t_max=200, eps_stop=0.5,
                                  learning_rate=1e-4))
    assert fitted.converged
    assert fitted.log[-1]["epoch"] < 200


def test_inferred_proportions_are_simplices():
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg(t_max=10))
    theta = infer_proportions(fitted, corpus)
    assert theta.shape == (1, 40, 2)
    assert np.all(theta > 0)
    assert np.allclose(theta.sum(axis=2), 1.0, atol=1e-12)


def test_single_topic_proportions_are_one():
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg(n_topics=1, t_max=3))
    theta = infer_proportions(fitted, corpus)
    assert np.allclose(theta, 1.0)


def test_toy_corpus_recovers_dominant_structure():
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg(t_max=40))
    theta = infer_proportions(fitted, corpus)[0]
    # the two document families must land on opposite dominant topics
    fam1 = theta[:20].argmax(axis=1)
    fam2 = theta[20:].argmax(axis=1)
    lead1 = np.bincount(fam1, minlength=2).argmax()
    lead2 = np.bincount(fam2, minlength=2).argmax()
    assert lead1 != lead2
    agree = (fam1 == lead1).mean() + (fam2 == lead2).mean()
    assert agree / 2 >= 0.9


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_raises():
    corpus = two_topic_corpus(N=16)
    with pytest.raises(DivergedError):
        fit(corpus, fast_cfg(t_max=50, optimizer="sgd",
                             learning_rate=1e9))


def test_model_roundtrip(tmp_path):
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg(t_max=6, dist_kind="l2", dist_weight=0.2))
    path = tmp_path / "model.json"
    save_model(fitted, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.gen.beta, fitted.gen.beta)
    assert loaded.cfg == fitted.cfg
    assert loaded.n_groups == fitted.n_groups
    assert np.array_equal(infer_proportions(loaded, corpus),
                          infer_proportions(fitted, corpus))


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(IoError):
        load_model(path)
    with pytest.raises(IoError):
        load_model(tmp_path / "absent.json")


def test_infer_checks_vocabulary():
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg(t_max=2))
    other = two_topic_corpus()
    object.__setattr__(other, "vocab", ["a", "b", "c", "d"])
    with pytest.raises(VocabMismatch):
        infer_proportions(fitted, other)


def test_encode_corpus_shapes():
    corpus = two_topic_corpus()
    fitted = fit(corpus, fast_cfg(t_max=2))
    mu, sg = encode_corpus(fitted, corpus)
    assert mu.shape == (1, 40, 2) and sg.shape == (1, 40, 2)
    assert np.all(sg >= 1e-4)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(n_topics=0)
    with pytest.raises(ConfigError):
        TrainConfig(n_topics=2, m_samples=0)
    with pytest.raises(ConfigError):
        TrainConfig(n_topics=2, learning_rate=-0.1)
    with pytest.raises(UnknownDistance):
        TrainConfig(n_topics=2, dist_kind="cosine")
    with pytest.raises(ConfigError):
        TrainConfig(n_topics=2, optimizer="rmsprop")
    with pytest.raises(ConfigError):
        TrainConfig(n_topics=2, dynamic_topics_var=-1.0)
    # types are checked before ranges: an int field takes no bool, float or
    # str, a float field takes an int
    for bad in (dict(t_max=2.5), dict(batch_size=True), dict(n_topics="3"),
                dict(learning_rate="0.1"), dict(dynamic_topics_var=True)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**{"n_topics": 2, **bad})
    assert TrainConfig(n_topics=2, learning_rate=1, a2=2).a2 == 2


def test_monte_carlo_tensors_beyond_the_cap_are_config_errors():
    corpus = two_topic_corpus(N=10)  # (N, T, V) = (10, 1, 4), K = 2
    # a (rows, V, max(M, K)) padded loss block holds 4e8 numbers, the eval
    # eps 2e8
    with pytest.raises(ConfigError,
                       match="m_samples=10000000 .* padded loss block"):
        fit(corpus, fast_cfg(m_samples=10 ** 7))
    # the (N, T, M, K) eval eps holds 2e9, in the per-stage topic fit too
    with pytest.raises(ConfigError, match="m_samples=100000000 .* eval eps"):
        fit_dynamic_topics(corpus, fast_cfg(m_samples=10 ** 8,
                                            dynamic_topics_var=0.5))


def test_a_model_beyond_the_cap_is_a_config_error_before_any_draw():
    # a V = 1e6 corpus's dimensions alone: default_init reads nothing else
    # before its check. 2 V K + T (H (V + 1 + K) + H + 2 K H + 2 K) + T (K
    # (K + 1) + K) + K numbers are 1.02e8, under the cap; the dynamic fit's
    # two (T, V, K) topic moments add 2e8 more
    corpus = SimpleNamespace(vocab_size=10 ** 6, n_stages=2, n_features=0,
                             n_groups=2)
    cfg = fast_cfg(n_topics=50, hidden_enc=1, dynamic_topics_var=0.1)
    V, T, K, H = 10 ** 6, 2, 50, 1
    size = (2 * V * K + T * (H * (V + 1 + K) + H + 2 * K * H + 2 * K)
            + T * (K * (K + 1) + K) + K)
    assert size <= MAX_SAMPLE_ELEMENTS < size + 2 * T * V * K
    with pytest.raises(ConfigError, match=(
            f"n_topics=50, hidden_enc=1 and hidden_trans=0 make a model of"
            f" {size + 2 * T * V * K} numbers")):
        default_init(corpus, cfg)


def test_shared_transitions_train():
    corpus = two_topic_corpus(N=16, T=3, seed=2)
    fitted = fit(corpus, fast_cfg(t_max=4, share_transitions=True))
    assert len({id(m) for m in fitted.gen.transitions}) == 1
    assert fitted.log[-1]["loss"] < fitted.log[0]["loss"]


def test_cosine_schedule_trains():
    corpus = two_topic_corpus(N=16)
    fitted = fit(corpus, fast_cfg(t_max=6, schedule="cosine"))
    assert fitted.log[-1]["loss"] < fitted.log[0]["loss"]


def test_tied_encoder_init_copies_stage_one():
    corpus = two_topic_corpus(N=16, T=3)
    _, enc = default_init(corpus, fast_cfg(tie_encoder_init=True))
    for stage in enc.stages[1:]:
        assert stage is not enc.stages[0]
        for (_, a), (_, b) in zip(stage.param_items(),
                                  enc.stages[0].param_items()):
            assert np.array_equal(a, b)
    _, untied = default_init(corpus, fast_cfg())
    assert not np.array_equal(untied.stages[1].Wh, untied.stages[0].Wh)
    # the stage copies are independent buffers, so training decouples them
    fitted = fit(corpus, fast_cfg(t_max=2, tie_encoder_init=True))
    assert not np.array_equal(fitted.enc.stages[1].Wh,
                              fitted.enc.stages[0].Wh)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    corpus = two_topic_corpus(N=16, T=2)
    fitted = fit(corpus, fast_cfg(t_max=2, share_transitions=True,
                                  hidden_trans=3))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(fitted, path)
    return path


def test_load_then_save_gives_the_same_bytes(saved_model, tmp_path):
    again = tmp_path / "again.json"
    save_model(load_model(saved_model), again)
    assert again.read_bytes() == saved_model.read_bytes()


@pytest.mark.parametrize("n_groups, fit_kw", [
    (2, dict()),
    (4, dict(hidden_trans=3)),
    (2, dict(dynamic_topics_var=0.5)),
    (2, dict(a2=2, delta2=3)),
], ids=["affine-per-stage-transitions", "four-groups", "dynamic-topics",
        "integer-variances"])
def test_load_then_save_gives_the_same_bytes_for_every_block_variety(
        tmp_path, n_groups, fit_kw):
    corpus = two_topic_corpus(N=16, T=2, n_groups=n_groups)
    cfg = fast_cfg(t_max=2, **fit_kw)
    fitted = (fit_dynamic_topics(corpus, cfg) if "dynamic_topics_var" in fit_kw
              else fit(corpus, cfg))
    assert (fitted.beta_stage is not None) == ("dynamic_topics_var" in fit_kw)
    saved, again = tmp_path / "model.json", tmp_path / "again.json"
    save_model(fitted, saved)
    save_model(load_model(saved), again)
    assert again.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("corrupt, error, needle", [
    (lambda o: o.pop("beta"), FormatError, "'beta'"),
    (lambda o: o["encoders"][0].pop("bs"), FormatError, "'bs'"),
    (lambda o: o["config"].update(bogus=1), FormatError, "bogus"),
    (lambda o: o["config"].update(n_topics="3"), FormatError,
     "json: bad config: n_topics"),
    (lambda o: o["encoders"][1]["Wh"].pop(), FormatError, "'Wh' has shape"),
    (lambda o: o["transitions"][0].update(W1="abc"), FormatError, "'W1' is"),
    (lambda o: o["encoders"][0].update(K=5), FormatError, "'K' is 5"),
    (lambda o: o.update(n_stages=3), FormatError, "list of 3"),
    (lambda o: o.update(n_groups=1), FormatError, "n_groups"),
    (lambda o: o.update(vocab=4), FormatError, "vocab"),
    (lambda o: o.update(eta0=[0.0]), FormatError, "'eta0' has shape"),
    (lambda o: o.update(beta_stage=[[1.0]]), FormatError, "beta_stage"),
    (lambda o: o.update(a2="big"), FormatError, "a2"),
    # wrong JSON kinds that a float64 cast would let through
    pytest.param(lambda o: o.update(a2="2"), FormatError,
                 "model.json: 'a2' is not a numeric array", id="a2-string"),
    pytest.param(lambda o: o.update(a2=True), FormatError,
                 "model.json: 'a2' is not a numeric array", id="a2-bool"),
    pytest.param(lambda o: o["beta"][0].__setitem__(0, "0.5"), FormatError,
                 "model.json: 'beta' is not a numeric array",
                 id="beta-string-cell"),
    pytest.param(lambda o: o.update(eta0=[True, False]), FormatError,
                 "model.json: 'eta0' is not a numeric array", id="eta0-bools"),
    pytest.param(lambda o: o["encoders"][0]["Wh"][0].__setitem__(0, "1e3"),
                 FormatError,
                 r"model.json: encoders\[0\]: 'Wh' is not a numeric array",
                 id="Wh-string-cell"),
    pytest.param(lambda o: o.update(log="x"), FormatError,
                 "model.json: 'log' must be a list", id="log-string"),
    pytest.param(lambda o: o.update(converged="yes"), FormatError,
                 "model.json: 'converged' must be true or false",
                 id="converged-string"),
    pytest.param(lambda o: o["encoders"][0].update(K=2.0), FormatError,
                 r"model.json: encoders\[0\]: 'K' must be an integer;"
                 " got 2.0", id="K-float"),
    pytest.param(lambda o: o.update(a2=-1), FormatError,
                 "model.json: variances must be nonnegative; got a2=-1",
                 id="a2-negative"),
    # dimensions no array could have; nothing may be allocated by them
    pytest.param(lambda o: o["encoders"][0].update(H=10 ** 12), FormatError,
                 r"model.json: encoders\[0\]: 'H' is 1000000000000,"
                 " expected 8", id="H-huge"),
    pytest.param(lambda o: o["transitions"][0].update(hidden=10 ** 12),
                 FormatError,
                 r"model.json: transitions\[0\]: 'hidden' is 1000000000000,"
                 " expected 3", id="hidden-huge"),
    pytest.param(lambda o: o["encoders"][0].update(P=10 ** 12), FormatError,
                 r"model.json: encoders\[0\]: 'Wh' has shape \(8, 9\),"
                 r" expected \(8, 1000000000007\)", id="P-huge"),
])
def test_load_model_names_malformed_entries(saved_model, tmp_path, corrupt,
                                            error, needle):
    obj = json.loads(saved_model.read_text())
    corrupt(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(error, match=needle):
        load_model(path)


def optimizer_pair(kind, topics):
    """Two equal registries, one for Optimizer and one for OptimizerRef:
    shared transitions with a hidden layer, or per-stage transitions with
    the per-stage topic blocks in place of beta."""
    corpus = two_topic_corpus(N=8, T=3)
    cfg = fast_cfg(optimizer=kind, hidden_trans=3,
                   share_transitions=not topics)
    registries = []
    for _ in range(2):
        gen, enc = default_init(corpus, cfg)
        extra = None
        if topics:
            rng = np.random.default_rng(5)
            extra = [("topics.mu", rng.standard_normal((3, 4, 2))),
                     ("topics.rho", rng.standard_normal((3, 4, 2)))]
        registries.append(param_registry(gen, enc, include_beta=not topics,
                                         extra=extra))
    return cfg, registries


def random_grads(registry, rng):
    # signed zeros and tiny values as well as ordinary ones
    grads = {}
    for key, arr in registry:
        g = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-3, 3)
        g[rng.random(arr.shape) < 0.2] = -0.0
        g[rng.random(arr.shape) < 0.1] = 0.0
        g[rng.random(arr.shape) < 0.1] *= 1e-300
        grads[key] = g
    return grads


@pytest.mark.parametrize("topics", [False, True])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_flat_optimizer_matches_the_per_block_reference(kind, topics):
    cfg, (flat, ref) = optimizer_pair(kind, topics)
    opt, opt_ref = Optimizer(flat, cfg), OptimizerRef(ref, cfg)
    rng = np.random.default_rng(1)
    for lr in (0.02, 0.5, 1e-3, 0.02, 0.3):
        grads = random_grads(flat, rng)
        opt.step(grads, lr)
        opt_ref.step({k: g.copy() for k, g in grads.items()}, lr)
    assert [k for k, _ in flat] == [k for k, _ in ref]
    for (key, a), (_, b) in zip(flat, ref):
        assert np.array_equal(a, b), key
        assert np.array_equal(np.signbit(a), np.signbit(b)), key


def test_flat_optimizer_names_the_overflowing_block_like_the_reference():
    cfg, (flat, ref) = optimizer_pair("adam", False)
    grads = random_grads(flat, np.random.default_rng(2))
    keys = [k for k, _ in flat]
    for key in (keys[4], keys[-2]):
        grads[key].flat[0] = 1e200
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for opt in (Optimizer(flat, cfg), OptimizerRef(ref, cfg)):
            with pytest.raises(NumericError) as e:
                opt.step(grads, 0.01)
            errors.append(str(e.value))
    assert errors[0] == errors[1] == \
        f"the second moment of {keys[4]} overflowed"


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_chunked_optimizer_step_matches_one_pass(kind, monkeypatch):
    # 155,022 numbers: the step's slices split blocks, three slices in all
    shapes = [(300, 250), (7,), (200, 400), (3, 5)]
    assert 2 * trainer.STEP_CHUNK < sum(np.prod(s) for s in shapes)
    rng = np.random.default_rng(4)
    start = [rng.standard_normal(s) for s in shapes]
    cfg = fast_cfg(optimizer=kind)
    registries = [[(f"b{i}", a.copy()) for i, a in enumerate(start)]
                  for _ in range(2)]
    sizes = [sum(a.size for _, a in registries[0]), trainer.STEP_CHUNK]
    opts = []
    for registry, chunk in zip(registries, sizes):
        monkeypatch.setattr(trainer, "STEP_CHUNK", chunk)
        opts.append(Optimizer(registry, cfg))
    for lr in (0.02, 0.5, 1e-3):
        grads = random_grads(registries[0], rng)
        for opt, chunk in zip(opts, sizes):
            monkeypatch.setattr(trainer, "STEP_CHUNK", chunk)
            opt.step(grads, lr)
    for (key, a), (_, b) in zip(*registries):
        assert np.array_equal(a, b), key
        assert np.array_equal(np.signbit(a), np.signbit(b)), key
    if kind == "adam":
        # an overflow in the last slice names its block; nothing moves
        before = [a.copy() for _, a in registries[1]]
        grads = random_grads(registries[1], rng)
        grads["b2"].flat[-1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="moment of b2 overflowed"):
            opts[1].step(grads, 0.01)
        assert all(np.array_equal(a, b)
                   for (_, a), b in zip(registries[1], before))


FOUR_FITS = {
    "static": fast_cfg(t_max=4, eps_stop=float("inf")),
    "dynamic": fast_cfg(t_max=4, eps_stop=float("inf"),
                        dynamic_topics_var=0.05),
    "stop at epoch 2": fast_cfg(t_max=30, eps_stop=1.2e-3, seed=1),
    "blow-up": fast_cfg(t_max=50, optimizer="sgd", learning_rate=1e9),
}


def _fit_files(name, out):
    """model.json and train_log.json as `fit` writes them, or the
    DivergedError message, of FOUR_FITS[name]."""
    corpus, cfg = two_topic_corpus(T=2), FOUR_FITS[name]
    try:
        fitted = (fit_dynamic_topics(corpus, cfg) if cfg.dynamic_topics_var
                  else fit(corpus, cfg))
    except DivergedError as e:
        return str(e)
    out.mkdir()
    save_model(fitted, out / "model.json")
    write_json({"log": fitted.log, "converged": fitted.converged},
               out / "train_log.json", indent=2)
    return [(out / f).read_bytes() for f in ("model.json", "train_log.json")]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("name", FOUR_FITS)
def test_forked_and_in_process_evaluations_write_the_same_bytes(
        name, forks, monkeypatch, tmp_path):
    forked = _fit_files(name, tmp_path / "forked")
    assert len(forks) == CAN_FORK
    if name == "stop at epoch 2":
        assert json.loads(forked[1])["log"][-1]["epoch"] == 2
    if name == "blow-up":
        assert forked == "loss became non-finite at epoch 1"
    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        assert _fit_files(name, tmp_path / "no fork") == forked
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _fit_files(name, tmp_path / "one cpu") == forked
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert _fit_files(name, tmp_path / "a thread") == forked
    finally:
        done.set()
        thread.join()
    assert len(forks) == CAN_FORK
    no_child_left()


def _failing_objective(gen, enc, cfg, want_grads, call, result):
    """train's objective, except that its call-th call with want_grads
    gives result() instead (an evaluation's calls count in the process that
    evaluates)."""
    calls = [0]

    def batch_loss(batch, eps, wants, work):
        if wants == want_grads:
            calls[0] += 1
            if calls[0] == call:
                return result(), None
        res = longitudinal_loss(batch, gen, enc, cfg, eps, want_grads=wants,
                                work=work)
        return res.loss, res.grads
    return batch_loss


def _raise(error):
    def result():
        raise error
    return result


@pytest.mark.parametrize("want_grads, call, result, error, message", [
    (True, 4, lambda: float("nan"), DivergedError,
     "loss became non-finite at epoch 2"),
    (False, 3, lambda: float("nan"), DivergedError,
     "loss became non-finite at epoch 2"),
    (True, 4, _raise(RuntimeError("a training batch failed")), RuntimeError,
     "a training batch failed"),
    (False, 3, _raise(ValueError("an evaluation failed")), ValueError,
     "an evaluation failed"),
    (False, 2, _raise(NumericError("sigma went negative")), DivergedError,
     "parameters diverged: sigma went negative"),
])
def test_an_error_on_either_side_reaches_the_caller_and_ends_the_helper(
        want_grads, call, result, error, message, forks):
    corpus = two_topic_corpus(N=48)  # three training batches per epoch
    cfg = fast_cfg(t_max=5, eps_stop=float("inf"))
    gen, enc = default_init(corpus, cfg)
    batch_loss = _failing_objective(gen, enc, cfg, want_grads, call, result)
    with pytest.raises(error) as info:
        trainer._run_epochs(corpus, param_registry(gen, enc), cfg,
                            batch_loss)
    assert str(info.value) == message
    assert len(forks) == CAN_FORK
    no_child_left()


@pytest.mark.parametrize("cfg, epochs", [
    (fast_cfg(t_max=3, eps_stop=float("inf")), 3),
    (FOUR_FITS["stop at epoch 2"], 2)])
def test_a_returning_fit_ends_its_helper(cfg, epochs, forks):
    fitted = fit(two_topic_corpus(T=2), cfg)
    assert fitted.log[-1]["epoch"] == epochs and len(forks) == CAN_FORK
    no_child_left()


def test_a_stop_rule_return_keeps_the_parameters_it_logged(forks):
    """The parent trains one epoch past the stop, then puts back the
    parameters of the epoch that stopped, as a serial fit returns them."""
    corpus, cfg = two_topic_corpus(T=2), FOUR_FITS["stop at epoch 2"]
    stopped = fit(corpus, cfg)
    two = fit(corpus, fast_cfg(t_max=2, eps_stop=float("inf"), seed=1))
    assert stopped.converged and stopped.log == two.log
    for (key, a), (_, b) in zip(param_registry(stopped.gen, stopped.enc),
                                param_registry(two.gen, two.enc)):
        assert np.array_equal(a, b), key


@pytest.mark.skipif(not CAN_FORK or not os.path.isdir("/proc/self"),
                    reason="needs a forked evaluator and /proc")
def test_a_killed_fit_leaves_no_helper_behind():
    script = (
        "import os\n"
        "real = os.fork\n"
        "def fork():\n"
        "    pid = real()\n"
        "    if pid:\n"
        "        print(pid, flush=True)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "from longtopic.simulate import SimConfig, simulate\n"
        "from longtopic.inference.trainer import TrainConfig, default_init,"
        " train\n"
        "corpus, _ = simulate(SimConfig(n_subjects=300, n_stages=3,"
        " vocab_size=80, n_topics=3, seed=0))\n"
        "cfg = TrainConfig(n_topics=3, t_max=100000,"
        " eps_stop=float('inf'))\n"
        "train(corpus, *default_init(corpus, cfg), cfg)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    # one BLAS thread, so that the fit forks its evaluator
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        # the fit never ends by itself: wait for the helper's pid a bounded
        # time, in case it evaluates in its own process here
        assert select.select([proc.stdout], [], [], 60)[0], "no fork"
        helper = int(proc.stdout.readline())
        time.sleep(0.5)  # some epochs into the fit
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()

    def running():
        try:
            with open(f"/proc/{helper}/stat") as f:
                # the state follows the parenthesized command name
                return f.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    deadline = time.monotonic() + 5.0
    while running() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running()
