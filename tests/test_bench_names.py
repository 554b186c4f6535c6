"""The names bench/spans.py wraps exist in the package.

The benchmark's tracer replaces each (module, class, attribute) of its
LAYERS table with a timing wrapper, and its loss.arrays_bytes hook reads
CorpusArrays attributes. A rename under src/ would otherwise show only in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from longtopic.corpus import Corpus
from longtopic.inference.loss import CorpusArrays
from longtopic.model import default_vocab

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_MODULE = _spans()


@pytest.mark.parametrize("module, cls, attr",
                         [layer[:3] for layer in SPAN_MODULE.LAYERS],
                         ids=lambda part: part or "-")
def test_every_wrapped_name_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


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
