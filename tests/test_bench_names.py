"""The names the benchmark reads exist in the package.

The benchmark's tracer (bench/spans.py) replaces each (module, class,
attribute) of its LAYERS table with a timing wrapper, and its
loss.arrays_bytes hook reads CorpusArrays attributes. Its runner
(bench/run.py) builds a SimConfig and a TrainConfig from each workload's
settings and calls the package's public functions. A rename under src/ would
otherwise show only in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import longtopic
from longtopic.corpus import Corpus
from longtopic.inference.loss import CorpusArrays, longitudinal_loss
from longtopic.model import default_vocab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_MODULE = _bench_module("spans")


@pytest.mark.parametrize("module, cls, attr",
                         [layer[:3] for layer in SPAN_MODULE.LAYERS],
                         ids=lambda part: part or "-")
def test_every_wrapped_name_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def test_loss_span_reads_want_grads_as_the_sixth_argument():
    # the tracer tells a training call from an evaluation by args[5] when
    # want_grads is passed by position
    params = list(inspect.signature(longitudinal_loss).parameters)
    assert params[5] == "want_grads"


def test_arrays_bytes_hook_reads_a_corpus_arrays():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 3, size=(4, 2, 5))
    counts[:, :, 0] += 1
    corpus = Corpus.from_dense(counts, rng.standard_normal((4, 2, 1)),
                               np.arange(4) % 3, default_vocab(5), n_groups=3)
    arrays = CorpusArrays(corpus)
    tracer = SPAN_MODULE.Tracer()
    SPAN_MODULE._arrays_bytes(tracer, (arrays,), {}, None)
    assert tracer.counts["loss.arrays_bytes"] >= \
        arrays.counts.nbytes + arrays.wn.nbytes


def test_relative_frequencies_the_hook_reads_are_the_eager_formula():
    # wn is built from the batch builder on each read; its bits are those
    # of every count over its cell total, missing cells included
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 40, size=(30, 3, 17)) * (
        rng.random((30, 3, 17)) < 0.4)
    counts[:, :, 0] += 1
    counts[rng.random((30, 3)) < 0.2] = 0
    corpus = Corpus.from_dense(counts, rng.standard_normal((30, 3, 1)),
                               np.arange(30) % 3, default_vocab(17),
                               allow_missing=True, n_groups=3)
    assert not corpus.present.all()
    indptr, _, nz, _ = corpus.csr()
    eager = nz / np.repeat(corpus.total_counts().T, np.diff(indptr))
    assert np.array_equal(CorpusArrays(corpus).wn, eager)


def test_every_workload_builds_and_every_called_name_exists(monkeypatch):
    # run.py sets the BLAS thread variables when it is imported; set here
    # first, they are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = _bench_module("run")
    assert run.WORKLOADS
    for sim, train in run.WORKLOADS.values():
        longtopic.SimConfig(seed=0, **sim)
        longtopic.TrainConfig(seed=0, **train)
    # the pipeline stages and the checks reach the package as lt.<name>
    called = set(re.findall(r"\blt\.(\w+)", (BENCH / "run.py").read_text()))
    assert {"simulate", "train", "full_report", "perplexity"} <= called
    assert [name for name in sorted(called)
            if not hasattr(longtopic, name)] == []
