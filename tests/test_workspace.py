"""The workspace contract of longitudinal_loss and the epoch loop.

A fit allocates one encoder-input buffer and every loss call reuses it
through prefix views. A call with that buffer must give the same bits as one
that allocates its own, whatever the buffer held before, and must leave its
word columns all zeros. A chunk
batch (the full-data evaluation's CSR slices) must give the bits of the
gathered batch of the same rows. A fit must not depend on what earlier fits
in the same process did, even one that ended in DivergedError.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longtopic
from longtopic.cli import main
from longtopic.corpus import Corpus
from longtopic.inference.dynamic import _dynamic_batch
from longtopic.inference import loss
from longtopic.inference.loss import CorpusArrays, longitudinal_loss
from longtopic.inference.trainer import TrainConfig, default_init
from longtopic.model import default_vocab

SRC = str(Path(longtopic.__file__).resolve().parents[1])


def _corpus(N=9, T=3, V=7, G=3, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(N, T, V))
    counts[:, :, 0] += 1
    counts[1, 1] = 0            # missing cells
    counts[4, 2] = 0
    return Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                             np.arange(N) % G, default_vocab(V),
                             allow_missing=True, n_groups=G)


def _assert_same(a, b):
    loss_a, grads_a = a
    loss_b, grads_b = b
    assert loss_a == loss_b
    assert (grads_a is None) == (grads_b is None)
    if grads_a is not None:
        assert grads_a.keys() == grads_b.keys()
        for key in grads_a:
            assert np.array_equal(grads_a[key], grads_b[key]), key


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_workspace_calls_match_fresh_allocation(dynamic, monkeypatch):
    corpus = _corpus()
    N, T, V = corpus.n_subjects, corpus.n_stages, corpus.vocab_size
    K, M = 3, 2
    cfg = TrainConfig(n_topics=K, m_samples=M, dist_kind="mi_jsd",
                      dist_weight=0.7, init_scale=0.3, hidden_enc=5)
    gen, enc = default_init(corpus, cfg)
    arrays = CorpusArrays(corpus)
    rng = np.random.default_rng(1)
    mu_b = np.repeat(gen.beta[None], T, axis=0) \
        + 0.1 * rng.standard_normal((T, V, K))
    rho_b = np.full((T, V, K), -2.0)
    eps_b = rng.standard_normal((T, V, K))

    # the evaluations take chunk batches of 6 rows, as a fit's full-data
    # pass does
    monkeypatch.setattr(loss, "ROW_CHUNK", 6)
    chunks = {lo: batch for lo, _, batch in arrays.chunks()}

    def call(batch, eps, want_grads, work):
        if dynamic:
            return _dynamic_batch(batch, gen, enc, cfg, eps, mu_b, rho_b,
                                  eps_b, 1.0 / N, 0.2, want_grads, work=work)
        res = longitudinal_loss(batch, gen, enc, cfg, eps,
                                want_grads=want_grads, work=work)
        return res.loss, res.grads

    # sized for 6-row evaluations and 4-row training batches; garbage
    # everywhere but the word columns, which the contract keeps at zero
    work = np.zeros((max(6, T * 4), enc.stages[0].in_dim))
    work[:, V:] = np.nan
    for idx, want_grads in [(np.arange(6), False), ([5, 1, 7, 2], True),
                            ([8, 3, 0], True), (np.arange(6, 9), False),
                            ([4, 1], True), (np.arange(6), False)]:
        eps = rng.standard_normal((len(idx), T, M, K))
        batch = arrays.batch(idx) if want_grads else chunks[idx[0]]
        _assert_same(call(batch, eps, want_grads, work),
                     call(arrays.batch(idx), eps, want_grads, None))
        assert not work[:, :V].any()


def _fit_args(corpus, out, *extra):
    return ["fit", "--out", str(out), "--set", f'paths.corpus="{corpus}"',
            "--set", "train.n_topics=2", "--set", "train.t_max=2",
            "--set", "train.hidden_enc=5", "--set", "train.eps_stop=0.0",
            *extra]


def test_fits_in_one_process_match_fresh_processes(tmp_path, capsys):
    shapes = {"small": ["--set", "sim.vocab_size=12"],
              "large": ["--set", "sim.vocab_size=30"]}
    for name, sim in shapes.items():
        assert main(["simulate", "--out", str(tmp_path / name), "--seed", "2",
                     "--set", "sim.n_subjects=30", "--set", "sim.n_stages=2",
                     "--set", "sim.n_topics=2", *sim]) == 0
    fits = {"small": ["--set", "train.batch_size=8",
                      "--set", "train.m_samples=2"],
            "large": ["--set", "train.batch_size=13",
                      "--set", "train.m_samples=3",
                      "--set", 'train.optimizer="adam"',
                      "--set", "train.dynamic_topics_var=0.1"]}

    # in one process: a fit that diverges, then two fits of other shapes
    capsys.readouterr()
    assert main(_fit_args(tmp_path / "large" / "corpus", tmp_path / "boom",
                          "--set", "train.learning_rate=1e9",
                          "--set", "train.t_max=50")) == 1
    assert capsys.readouterr().err.startswith("error: DivergedError:")
    for name, extra in fits.items():
        assert main(_fit_args(tmp_path / name / "corpus",
                              tmp_path / "same" / name, *extra)) == 0

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    for name, extra in fits.items():
        proc = subprocess.run(
            [sys.executable, "-m", "longtopic",
             *_fit_args(tmp_path / name / "corpus",
                        tmp_path / "fresh" / name, *extra)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for artifact in ("model.json", "train_log.json"):
            assert (tmp_path / "same" / name / artifact).read_bytes() == \
                (tmp_path / "fresh" / name / artifact).read_bytes()
