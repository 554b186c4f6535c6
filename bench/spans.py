"""Span tracing of longtopic's layers from outside the package.

`Tracer.install()` replaces the public callables listed in `LAYERS` with
timing wrappers, each put in the namespace where its caller looks the name
up: the package namespace for the calls the benchmark makes itself, the
module globals for names that `trainer`, `dynamic`, `loss` and `evaluate`
import by name, and the class for methods. `uninstall()` puts the originals
back. Spans are kept in memory; `summary()` turns them into per-layer
totals, self times and counts when a pass ends.

A wrapper does nothing but call through while the tracer is off, so the
benchmark's own checks never add spans or counts.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict


def _loss_span(args, kwargs):
    # longitudinal_loss(batch, gen, enc, cfg, eps, want_grads=True, ...)
    want = kwargs.get("want_grads", args[5] if len(args) > 5 else True)
    return "loss.train" if want else "loss.eval"


def _encoder_rows(tracer, args, kwargs, result):
    tracer.add("networks.encoder_forward_rows", args[1].shape[0])


def _permutations(tracer, args, kwargs, result):
    T, _, K = args[0].shape
    tracer.add("evaluate.permutations_scored", T * math.factorial(K))


def _arrays_bytes(tracer, args, kwargs, result):
    arrays = args[0]
    held = [arrays.counts, arrays.wn, arrays.x, arrays.present,
            arrays.y_enc, arrays.cf_groups, *arrays.cf_encs]
    tracer.peak("loss.arrays_bytes", sum(a.nbytes for a in held))


def _corpus_on_disk(tracer, args, kwargs, result):
    corpus, path = args[0], args[1]
    tracer.peak("corpus.disk_bytes", sum(
        os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)))
    tracer.peak("corpus.nnz", sum(
        len(cell) for row in corpus.docs for cell in row if cell))


def _model_bytes(tracer, args, kwargs, result):
    tracer.peak("trainer.model_bytes", os.path.getsize(args[1]))


# (module, class or "" for the module itself, attribute, span name, count
# hook). The span name may be a function of the call's arguments.
LAYERS = [
    ("longtopic", "", "save_corpus", "corpus.save", _corpus_on_disk),
    ("longtopic", "", "load_corpus", "corpus.load", None),
    ("longtopic", "", "train", "trainer.loop", None),
    ("longtopic", "", "fit_dynamic_topics", "dynamic.loop", None),
    ("longtopic", "", "save_model", "trainer.save_model", _model_bytes),
    ("longtopic", "", "load_model", "trainer.load_model", None),
    ("longtopic.simulate", "", "sample_documents",
     "simulate.sample_documents", None),
    ("longtopic.corpus", "Corpus", "build", "corpus.build", None),
    ("longtopic.corpus", "Corpus", "dense_counts", "corpus.dense_counts",
     None),
    ("longtopic.inference.loss", "CorpusArrays", "__init__", "loss.arrays",
     _arrays_bytes),
    ("longtopic.inference.trainer", "", "longitudinal_loss", _loss_span,
     None),
    ("longtopic.inference.dynamic", "", "longitudinal_loss", _loss_span,
     None),
    ("longtopic.inference.networks", "StageEncoder", "forward",
     "networks.encoder_forward", _encoder_rows),
    ("longtopic.inference.networks", "StageEncoder", "backward",
     "networks.encoder_backward", None),
    ("longtopic.model", "TransitionModel", "forward",
     "model.transition_forward", None),
    ("longtopic.model", "TransitionModel", "backward",
     "model.transition_backward", None),
    ("longtopic.inference.loss", "", "distance_with_grad", "terms.distance",
     None),
    ("longtopic.inference.trainer", "Optimizer", "step",
     "trainer.optimizer_step", None),
    ("longtopic.inference.trainer", "", "infer_proportions",
     "trainer.infer_proportions", None),
    ("longtopic.evaluate", "", "align_topics", "evaluate.align_topics",
     _permutations),
    ("longtopic.evaluate", "", "group_accuracy", "evaluate.group_accuracy",
     None),
    ("longtopic.evaluate", "", "umass_coherence", "evaluate.umass_coherence",
     None),
    ("longtopic.evaluate", "", "perplexity", "evaluate.perplexity", None),
]


class Tracer:
    """Nested spans (name, parent, start, end) plus integer counters."""

    def __init__(self):
        self.on = False
        self.spans = []      # [name, parent index, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []
        self.hook_s = 0.0    # time spent in count hooks, outside any span

    def add(self, name, n):
        self.counts[name] += int(n)

    def peak(self, name, n):
        self.counts[name] = max(self.counts[name], int(n))

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.hook_s = 0.0

    def wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [label, parent, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                start = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer.hook_s += time.perf_counter() - start
            return result

        return traced

    def install(self):
        for module, cls, attr, name, hook in LAYERS:
            owner = sys.modules[module]
            if cls:
                owner = getattr(owner, cls)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, hook))
            else:
                wrapped = self.wrap(original, name, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_cost(self):
        """Seconds a traced call adds to a direct one: the median over
        seven batches of 20,000 calls of a no-op, wrapped and not."""
        calls, batches = 20000, 7

        def noop():
            return None

        traced = self.wrap(noop, "span_cost", None)
        on, self.on = self.on, True
        costs = []
        try:
            for _ in range(batches):
                start = time.perf_counter()
                for _ in range(calls):
                    noop()
                direct = time.perf_counter() - start
                start = time.perf_counter()
                for _ in range(calls):
                    traced()
                costs.append((time.perf_counter() - start - direct) / calls)
                del self.spans[len(self.spans) - calls:]
        finally:
            self.on = on
        return statistics.median(costs)

    def summary(self):
        """{span name: (total s, self s, calls)} over the spans so far."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, _, start, end), inner in zip(self.spans, child):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - inner
            row[2] += 1
        return {k: tuple(v) for k, v in out.items()}
