import copy
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from longtopic import corpus as corpus_module
from longtopic.corpus import Corpus, load_corpus, save_corpus, write_json
from longtopic.errors import (
    DuplicateDocument,
    FormatError,
    IoError,
    LongtopicError,
    MissingDocument,
    MissingLabel,
    VocabMismatch,
)
from longtopic.evaluate import full_report
from longtopic.inference.dynamic import fit_dynamic_topics
from longtopic.inference.trainer import (
    TrainConfig,
    default_init,
    infer_proportions,
    load_model,
    save_model,
    train,
)
from longtopic.simulate import (
    SimConfig,
    load_truth,
    save_truth,
    simulate,
)
from oracles import csr_ref, dense_counts_ref, load_corpus_ref


def write_corpus_dir(path, vocab, doc_lines, meta_lines, group_lines):
    (path / "vocab.txt").write_text("\n".join(vocab) + "\n")
    (path / "docs.jsonl").write_text("\n".join(doc_lines) + "\n")
    (path / "meta.csv").write_text("\n".join(meta_lines) + "\n")
    (path / "groups.csv").write_text("\n".join(group_lines) + "\n")


def minimal_dir(tmp_path, doc_lines=None):
    doc_lines = doc_lines if doc_lines is not None else [
        json.dumps({"subject": 0, "stage": 0, "counts": {"0": 2, "1": 1}})]
    write_corpus_dir(
        tmp_path,
        vocab=["apple", "banana"],
        doc_lines=doc_lines,
        meta_lines=["subject,stage,x0", "0,0,0.5"],
        group_lines=["subject,group", "0,1"],
    )
    return tmp_path


def test_load_minimal_corpus(tmp_path):
    c = load_corpus(minimal_dir(tmp_path))
    assert c.n_subjects == 1
    assert c.n_stages == 1
    assert c.vocab_size == 2
    assert c.total_counts()[0, 0] == 3
    assert c.docs[0][0] == {0: 2, 1: 1}


def test_duplicate_document_rejected(tmp_path):
    line = json.dumps({"subject": 0, "stage": 0, "counts": {"0": 2}})
    with pytest.raises(DuplicateDocument):
        load_corpus(minimal_dir(tmp_path, doc_lines=[line, line]))


def test_word_index_out_of_vocab(tmp_path):
    line = json.dumps({"subject": 0, "stage": 0, "counts": {"5": 1}})
    with pytest.raises(VocabMismatch):
        load_corpus(minimal_dir(tmp_path, doc_lines=[line]))


def test_unknown_subject_is_missing_label(tmp_path):
    lines = [
        json.dumps({"subject": 0, "stage": 0, "counts": {"0": 1}}),
        json.dumps({"subject": 7, "stage": 0, "counts": {"0": 1}}),
    ]
    with pytest.raises(MissingLabel):
        load_corpus(minimal_dir(tmp_path, doc_lines=lines))


def test_group_label_beyond_int64_is_a_format_error(tmp_path):
    d = minimal_dir(tmp_path)
    (d / "groups.csv").write_text("subject,group\n0,99999999999999999999\n")
    with pytest.raises(FormatError, match="groups.csv line 2"):
        load_corpus(d)


def test_builders_refuse_a_label_the_loader_refuses(tmp_path):
    # N = 3 takes labels up to max(2, 3): a 4 is refused before anything
    # is saved, as load_corpus would refuse it in groups.csv
    counts = np.ones((3, 1, 2))
    x, vocab = np.zeros((3, 1, 1)), ["a", "b"]
    with pytest.raises(FormatError, match=r"group label 4 above max\(2, 3\)"):
        Corpus.from_dense(counts, x, [0, 4, 1], vocab)
    records = [(i, 0, {0: 1}) for i in range(3)]
    with pytest.raises(FormatError, match=r"group label 4 above max\(2, 3\)"):
        Corpus.build(records, x, [0, 4, 1], vocab)
    c = Corpus.from_dense(counts, x, [0, 3, 1], vocab)
    save_corpus(c, tmp_path / "c")
    assert load_corpus(tmp_path / "c") == c


def test_unparsable_line_reports_line_number(tmp_path):
    lines = [
        json.dumps({"subject": 0, "stage": 0, "counts": {"0": 1}}),
        "{not json",
    ]
    with pytest.raises(FormatError, match="line 2"):
        load_corpus(minimal_dir(tmp_path, doc_lines=lines))


def test_zero_total_document_rejected(tmp_path):
    line = json.dumps({"subject": 0, "stage": 0, "counts": {}})
    with pytest.raises(FormatError):
        load_corpus(minimal_dir(tmp_path, doc_lines=[line]))


def test_nonfinite_covariate_rejected(tmp_path):
    d = minimal_dir(tmp_path)
    (d / "meta.csv").write_text("subject,stage,x0\n0,0,nan\n")
    with pytest.raises(FormatError):
        load_corpus(d)


def test_missing_cell_needs_flag(tmp_path):
    d = minimal_dir(tmp_path)
    (d / "meta.csv").write_text(
        "subject,stage,x0\n0,0,0.5\n0,1,1.5\n")
    with pytest.raises(MissingDocument):
        load_corpus(d)
    c = load_corpus(d, allow_missing=True)
    assert c.n_stages == 2
    assert c.present[0, 0] and not c.present[0, 1]
    assert c.total_counts()[0, 1] == 0


def test_roundtrip_minimal(tmp_path):
    (tmp_path / "a").mkdir()
    c = load_corpus(minimal_dir(tmp_path / "a"))
    save_corpus(c, tmp_path / "b")
    assert load_corpus(tmp_path / "b") == c


def test_roundtrip_simulated(tmp_path):
    from longtopic.simulate import SimConfig, simulate

    cfg = SimConfig(n_subjects=10, n_stages=3, vocab_size=50, n_topics=2,
                    n_covariates=3, seed=7)
    corpus, _ = simulate(cfg)
    save_corpus(corpus, tmp_path)
    reloaded = load_corpus(tmp_path)
    assert reloaded == corpus
    assert np.array_equal(reloaded.dense_counts(), corpus.dense_counts())
    # == compares the arrays, which an edit through docs writes
    moved = load_corpus(tmp_path)
    moved.counts[0] += 1
    assert moved != corpus
    cell = reloaded.docs[0][0]
    cell[next(iter(cell))] += 1
    assert reloaded != corpus


def test_empty_corpus_refused(tmp_path):
    c = load_corpus(minimal_dir(tmp_path))
    c.n_subjects = 0
    with pytest.raises(IoError):
        save_corpus(c, tmp_path / "out")


def test_standardization_recorded_and_applied():
    rng = np.random.default_rng(0)
    x = 3.0 + 2.0 * rng.standard_normal((20, 4, 3))
    records = [(i, t, {0: 1}) for i in range(20) for t in range(4)]
    c = Corpus.build(records, x, np.zeros(20, dtype=int), ["w"])
    flat = c.covariates.reshape(-1, 3)
    assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(flat.std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(c.cov_center, 3.0, atol=0.5)
    # constant feature keeps scale 1 instead of dividing by zero
    x[:, :, 1] = 4.0
    c2 = Corpus.build(records, x, np.zeros(20, dtype=int), ["w"])
    assert np.allclose(c2.covariates[:, :, 1], 0.0)
    assert c2.cov_scale[1] == 1.0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_roundtrip_property(tmp_path_factory, data):
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    N = data.draw(st.integers(1, 5))
    T = data.draw(st.integers(1, 3))
    V = data.draw(st.integers(1, 6))
    P = data.draw(st.integers(0, 2))
    counts = rng.integers(0, 4, size=(N, T, V))
    # every cell needs at least one word
    counts[:, :, 0] = np.maximum(counts[:, :, 0], 1)
    x = rng.standard_normal((N, T, P)) * 10
    groups = rng.integers(0, 3, size=N)
    vocab = [f"word{v}" for v in range(V)]
    c = Corpus.from_dense(counts, x, groups, vocab)
    path = tmp_path_factory.mktemp("rt")
    save_corpus(c, path)
    assert load_corpus(path) == c


@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
def test_from_dense_rejects_non_integer_counts(bad):
    counts = np.ones((2, 1, 3))
    counts[1, 0, 2] = bad
    with pytest.raises(FormatError, match="word 2 is not an integer"):
        Corpus.from_dense(counts, np.zeros((2, 1, 1)), [0, 1], ["a", "b", "c"])


def test_from_dense_rejects_string_array():
    counts = np.full((1, 1, 2), "1")
    with pytest.raises(FormatError, match="numeric"):
        Corpus.from_dense(counts, np.zeros((1, 1, 1)), [0], ["a", "b"])


def reference_docs(records, N, T, V):
    """Record-by-record, word-by-word construction: the oracle for the
    cells (keys ascending, as the corpus holds them) and for the first
    error raised."""
    docs = [[None] * T for _ in range(N)]
    for subject, stage, counts in records:
        if not 0 <= subject < N:
            raise MissingLabel(f"subject {subject} has no group label")
        if not 0 <= stage < T:
            raise FormatError(f"stage {stage} outside 0..{T - 1}")
        if docs[subject][stage] is not None:
            raise DuplicateDocument(
                f"duplicate document for subject {subject}, stage {stage}")
        cell = {}
        for k, c in counts.items():
            try:
                v = int(k)
            except (TypeError, ValueError):
                raise FormatError(f"bad word index {k!r}")
            if not 0 <= v < V:
                raise VocabMismatch(
                    f"word index {v} outside vocabulary of size {V}")
            try:
                ok = not isinstance(c, bool) and c == int(c)
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise FormatError(f"count for word {v} is not an integer")
            if c < 0:
                raise FormatError(f"negative count for word {v}")
            if c > 0:
                cell[v] = cell.get(v, 0) + int(c)
        if not cell:
            raise FormatError(
                f"document (subject {subject}, stage {stage}) has zero total"
                " count")
        docs[subject][stage] = dict(sorted(cell.items()))
    if all(cell is None for row in docs for cell in row):
        raise FormatError("corpus has no documents")
    return docs


def outcome(fn):
    try:
        return fn()
    except (FormatError, MissingLabel, DuplicateDocument, VocabMismatch) as e:
        return type(e).__name__, str(e)


def cell_items(docs):
    return [[None if c is None else list(c.items()) for c in row]
            for row in docs]


def csr_items(arrays):
    """CSR arrays as comparable lists, each with its dtype."""
    return [(a.dtype.str, a.tolist()) for a in arrays]


@st.composite
def record_sets(draw):
    """Records over an N x T x V grid: cells may be missing, counts may be
    zero, and one record may name a word both as "1" and as 1. Up to three
    entries or records are then broken in the ways Corpus.build names."""
    N, T, V = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
               draw(st.integers(2, 6)))
    cells = draw(st.lists(st.tuples(st.integers(0, N - 1),
                                    st.integers(0, T - 1)),
                          min_size=1, max_size=N * T, unique=True))
    records = []
    for i, t in cells:
        counts = {}
        for v in draw(st.lists(st.integers(0, V - 1), max_size=V)):
            key = draw(st.sampled_from([v, str(v), f" {v}"]))
            counts[key] = draw(st.integers(0, 5))
        if draw(st.booleans()):
            counts["1"], counts[1] = draw(st.integers(1, 3)), draw(
                st.integers(0, 3))
        if not any(counts.values()):
            counts[draw(st.integers(0, V - 1))] = 1
        records.append([i, t, counts])
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(records) - 1))
        kind = draw(st.sampled_from(
            ["subject", "stage", "duplicate", "key", "vocab", "count",
             "negative", "zero"]))
        if kind == "subject":
            records[r][0] = draw(st.sampled_from([-1, N]))
        elif kind == "stage":
            records[r][1] = draw(st.sampled_from([-1, T]))
        elif kind == "duplicate":
            records.insert(r + 1, [records[r][0], records[r][1], {0: 1}])
        elif kind == "zero":
            records[r][2] = {k: 0 for k in records[r][2]
                             if draw(st.booleans())}
        else:
            word = draw(st.integers(0, V - 1))
            key, value = {
                "key": (draw(st.sampled_from(["x", None, "1.5"])), 1),
                "vocab": (draw(st.sampled_from([V, -1, str(V)])), 1),
                "count": (word, draw(st.sampled_from(
                    [2.5, "3", True, None, float("nan"), float("inf")]))),
                "negative": (word, draw(st.sampled_from([-1, -2.0]))),
            }[kind]
            if draw(st.booleans()):
                counts = list(records[r][2].items())
            else:  # the fault, among zero counts, is all the record holds
                counts = [(w, 0) for w in draw(
                    st.lists(st.integers(0, V - 1), max_size=2))]
            counts.insert(draw(st.integers(0, len(counts))), (key, value))
            records[r][2] = dict(counts)
    return N, T, V, [tuple(rec) for rec in records]


@settings(max_examples=300, deadline=None)
@given(record_sets())
@example((1, 1, 4, [(0, 0, {0: 0, 3: -1})]))
@example((1, 2, 4, [(0, 1, {"3": 0, 2: 1, 3: 2, " 2": 1})]))
@example((2, 1, 3, [(0, 0, {5: 1}), (1, 0, {"x": 1})]))
def test_build_matches_per_record_reference(case):
    N, T, V, records = case

    def reference():
        docs = reference_docs(records, N, T, V)
        return cell_items(docs), csr_items(csr_ref(docs, N, T))

    def built():
        c = Corpus.build(records, np.zeros((N, T, 1)), np.arange(N) % 2,
                         [f"w{v}" for v in range(V)], allow_missing=True)
        return cell_items(c.docs), csr_items(c.csr())

    want = outcome(reference)
    for block in (1, 2, corpus_module.BLOCK):  # records split across blocks
        with mock.patch.object(corpus_module, "BLOCK", block):
            assert outcome(built) == want


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_from_dense_matches_per_cell_reference(tmp_path_factory, data):
    N, T, V = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
               data.draw(st.integers(1, 6)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(N, T, V)) * (rng.random((N, T, V)) < 0.5)
    counts[0, 0, rng.integers(V)] = 1  # at least one document
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.float64]))
    block = data.draw(st.sampled_from([1, 2, corpus_module.BLOCK]))
    with mock.patch.object(corpus_module, "BLOCK", block):
        c = Corpus.from_dense(
            counts.astype(dtype), rng.standard_normal((N, T, 2)),
            np.arange(N) % 3, [f"w{v}" for v in range(V)], allow_missing=True)
    want = [[{v: int(n) for v, n in enumerate(counts[i, t]) if n} or None
             for t in range(T)] for i in range(N)]
    assert cell_items(c.docs) == cell_items(want)
    assert csr_items(c.csr()) == csr_items(csr_ref(want, N, T))
    assert {type(x) for row in c.docs for cell in row if cell
            for kv in cell.items() for x in kv} == {int}
    assert np.array_equal(c.present, counts.sum(axis=2) > 0)

    path = tmp_path_factory.mktemp("dense")
    save_corpus(c, path)
    lines = (path / "docs.jsonl").read_text().splitlines()
    assert lines == [
        json.dumps({"subject": i, "stage": t,
                    "counts": {str(v): cell[v] for v in sorted(cell)}})
        for i, row in enumerate(c.docs) for t, cell in enumerate(row)
        if cell is not None]
    assert load_corpus(path, allow_missing=True) == c


@pytest.mark.parametrize("meta, message", [
    ("", "meta.csv: empty file"),
    ("a,b,x0\n0,0,1\n1,0,1\n", "header must start with 'subject,stage'"),
    ("subject,stage,x0\n", "meta.csv: no rows"),
    ("subject,stage,x0\n\n \n", "meta.csv: no rows"),
    ("subject,stage,x0\n0,0,1\n1,0\n", "line 3: expected 3 fields"),
    ("subject,stage,x0\n0,0,1\n1,x,1\n",
     "line 3: invalid literal for int() with base 10: 'x'"),
    ("subject,stage,x0\n0,0,1\n1,0,abc\n",
     "line 3: could not convert string to float: 'abc'"),
    ("subject,stage,x0\n0,0,inf\n1,0,1\n", "line 2: non-finite covariate"),
    ("subject,stage,x0\n0,0,1\n0,0,2\n1,0,1\n",
     "line 3: duplicate (subject, stage) (0, 0)"),
    ("subject,stage,x0\n0,0,1\n", "missing covariate row for subject 1,"
     " stage 0"),
    ("subject,stage,x0\n0,0,1\n1,0,1\n2,0,1\n", "row for unknown subject 2"),
    ("subject,stage,x0\n0,0,1\n1,0,1\n1,-1,1\n", "row for unknown subject 1"),
    ("subject,stage,x0\n0,0,1\n1,0,1\n-1,0,1\n", "row for unknown subject -1"),
    # the first offending line wins, whatever its fault
    ("subject,stage,x0\n0,0,1\n0,0,2\n1,0\n",
     "line 3: duplicate (subject, stage) (0, 0)"),
    ("subject,stage,x0\n0,0,1\n1,0\n1,0,nan\n", "line 3: expected 3 fields"),
    ("subject,stage,x0\nx,0,1\n0,0,1\n0,0,1\n",
     "line 2: invalid literal for int() with base 10: 'x'"),
    ("subject,stage,x0\n0,0,1\n0,0,2\n1,0,nan\n",
     "line 3: duplicate (subject, stage) (0, 0)"),
    ("subject,stage,x0\n0,0,1\n0,0,nan\n1,0,1\n",
     "line 3: non-finite covariate"),
    ("subject,stage,x0\n\n0,0,1\n\n1,0\n", "line 5: expected 3 fields"),
    ("subject,stage,x0\n0,0,1\n2,0,1\n", "missing covariate row for subject"
     " 1, stage 0"),
    # a stage far past the rows, named without a grid that wide
    ("subject,stage,x0\n0,0,1\n1,0,1\n0,1000000000000,1\n",
     "missing covariate row for subject 0, stage 1"),
])
def test_meta_errors_name_the_first_fault(tmp_path, meta, message):
    d = minimal_dir(tmp_path)
    (d / "groups.csv").write_text("subject,group\n0,1\n1,0\n")
    (d / "docs.jsonl").write_text("".join(
        json.dumps({"subject": i, "stage": 0, "counts": {"0": 1}}) + "\n"
        for i in range(2)))
    (d / "meta.csv").write_text(meta)
    with pytest.raises(FormatError) as err:
        load_corpus(d)
    assert str(err.value).endswith(message)


def test_meta_rows_in_any_order_fill_the_grid(tmp_path):
    d = minimal_dir(tmp_path)
    (d / "groups.csv").write_text("subject,group\n0,1\n1,0\n")
    (d / "docs.jsonl").write_text("".join(
        json.dumps({"subject": i, "stage": t, "counts": {"0": 1}}) + "\n"
        for i in range(2) for t in range(2)))
    (d / "meta.csv").write_text(
        "subject,stage,x0,x1\n1,1,4,8\n0,0,1,5\n\n1,0,3,7\n0,1,2,6\n")
    c = load_corpus(d)
    raw = c.covariates * c.cov_scale + c.cov_center
    np.testing.assert_allclose(raw, [[[1, 5], [2, 6]], [[3, 7], [4, 8]]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_csr_views_match_the_records(data):
    # missing cells, keys in any order, "k" and k naming one word
    N = data.draw(st.integers(1, 4))
    T = data.draw(st.integers(1, 3))
    V = data.draw(st.integers(1, 6))
    records = []
    for i in range(N):
        for t in range(T):
            if records and data.draw(st.booleans()):
                continue
            cell = {}
            words = data.draw(st.lists(st.integers(0, V - 1), min_size=1,
                                       max_size=2 * V))
            for j, w in enumerate(words):
                key = data.draw(st.sampled_from([w, str(w)]))
                cell[key] = cell.get(key, 0) + data.draw(
                    st.integers(1 if j == 0 else 0, 5))
            records.append((i, t, cell))
    order = data.draw(st.permutations(range(len(records))))
    c = Corpus.build([records[r] for r in order], np.zeros((N, T, 1)),
                     np.zeros(N, dtype=int), [f"w{v}" for v in range(V)],
                     allow_missing=True)
    W = dense_counts_ref(c)
    assert np.array_equal(c.dense_counts(), W)
    assert np.array_equal(c.total_counts(), W.sum(axis=2))
    indptr, words, counts, rows = c.csr()
    assert indptr[0] == 0 and indptr[-1] == words.size == counts.size
    for t in range(T):
        for i in range(N):
            cell = c.docs[i][t] or {}
            e = slice(indptr[t * N + i], indptr[t * N + i + 1])
            assert words[e].tolist() == sorted(cell)
            assert counts[e].tolist() == [cell[w] for w in sorted(cell)]
            assert rows[e].tolist() == [i] * len(cell)


def test_total_counts_skip_missing_cells_at_both_ends():
    # missing cells first, inside, and last in the CSR order (the last
    # subjects of the last stage), where a sum from each cell's start to
    # the next would read the next cell's counts or past the end
    counts = np.arange(4 * 3 * 5).reshape(4, 3, 5) % 4
    counts[0, 0] = counts[1, 1] = counts[2, 1] = 0
    counts[2:, 2] = 0
    c = Corpus.from_dense(counts, np.zeros((4, 3, 1)), np.arange(4) % 2,
                          [f"w{v}" for v in range(5)], allow_missing=True)
    totals = c.total_counts()
    assert totals.dtype == np.float64
    assert np.array_equal(totals, counts.sum(axis=2))
    assert totals[2, 2] == totals[3, 2] == totals[0, 0] == 0


CORPUS_FILES =("vocab.txt", "docs.jsonl", "meta.csv", "groups.csv")
BIG = 12345678901234567890  # 20 digits, beyond int64


def rewrite_line(line, kind, draw):
    """One saved docs.jsonl line rewritten: a valid variant in another form
    than saving writes, or an invalid one."""
    obj = json.loads(line)
    items = list(obj["counts"].items())
    e = draw(st.integers(0, len(items) - 1))
    if kind == "reorder":
        return json.dumps({"counts": obj["counts"], "stage": obj["stage"],
                           "subject": obj["subject"]})
    if kind == "descending":
        return json.dumps(dict(obj, counts=dict(reversed(items))))
    if kind == "duplicate":
        items.insert(draw(st.integers(0, len(items))),
                     (items[e][0], draw(st.integers(0, 3))))
        return line.split('"counts": ')[0] + '"counts": {%s}}' % ", ".join(
            '"%s": %d' % kv for kv in items)
    if kind == "zero_pad":  # "01" is a key, 01 is not JSON
        if draw(st.booleans()):
            at = draw(st.sampled_from([m.end() for m in
                                       re.finditer(": ", line)]))
            return line[:at] + "0" + line[at:]
        items[e] = ("0" + items[e][0], items[e][1])
    elif kind == "spaces":
        return draw(st.sampled_from([" " + line, line.replace(": ", ":  "),
                                     line.replace(", ", " , ")]))
    elif kind == "count":
        items[e] = (items[e][0], draw(st.sampled_from(
            [0, -3, 2.5, 2.0, True, "3", None, BIG])))
    elif kind == "big_key":
        items[e] = (draw(st.sampled_from([str(BIG), str(2**63 - 1),
                                          "1000000000000000000"])),
                    items[e][1])
    elif kind == "big_subject":
        obj[draw(st.sampled_from(["subject", "stage"]))] = draw(
            st.sampled_from([BIG, 2**63, 2**63 - 1]))
    elif kind == "blank":
        return draw(st.sampled_from(["", "   "]))
    elif kind == "truncate":
        return line[:draw(st.integers(1, len(line) - 1))]
    elif kind == "not_object":
        return draw(st.sampled_from(["[1, 2]", "3", '"doc"', "null"]))
    return json.dumps(dict(obj, counts=dict(items)))


def loaded(load, arrays=Corpus.csr):
    """A loaded corpus's fields, its cells with their key order and
    arrays(corpus), or the class and message of the error it raised."""
    try:
        c = load()
    except LongtopicError as e:
        return type(e).__name__, str(e)
    return (c.vocab, c.groups.tolist(), c.present.tolist(),
            c.covariates.tolist(), cell_items(c.docs), csr_items(arrays(c)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_matches_json_reference(tmp_path_factory, data):
    N, T, V = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
               data.draw(st.integers(1, 12)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    counts = rng.integers(0, 300, size=(N, T, V)) * (
        rng.random((N, T, V)) < 0.5)
    counts[0, 0, rng.integers(V)] = 1  # at least one document
    c = Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                          np.arange(N) % 2, [f"w{v}" for v in range(V)],
                          allow_missing=True)
    path = tmp_path_factory.mktemp("docs")
    save_corpus(c, path)
    docs = path / "docs.jsonl"
    lines = docs.read_text().splitlines()
    for r in data.draw(st.lists(st.integers(0, len(lines) - 1), max_size=3,
                                unique=True)):
        lines[r] = rewrite_line(lines[r], data.draw(st.sampled_from(
            ["reorder", "descending", "duplicate", "zero_pad", "spaces",
             "count", "big_key", "big_subject", "blank", "truncate",
             "not_object"])), data.draw)
    docs.write_text("".join(line + "\n" for line in lines))
    allow = data.draw(st.booleans())
    with mock.patch.object(corpus_module, "BLOCK",
                           data.draw(st.sampled_from([1, 2, 3, 256]))):
        want = loaded(lambda: load_corpus_ref(path, allow),
                      lambda c: csr_ref(c.docs, c.n_subjects, c.n_stages))
        assert loaded(lambda: load_corpus(path, allow)) == want


def with_counts(line, body):
    """A saved docs.jsonl line with its counts object's text replaced."""
    return line.split('"counts": ')[0] + '"counts": {%s}}' % body


@pytest.mark.parametrize("edits, error", [
    ({}, None),
    # a parse fault on the first line of the second group
    ({16: lambda line: line[:-3]}, "FormatError"),
    ({5: lambda line: with_counts(line, '"12": 1, "3": 2')},
     "VocabMismatch"),
    ({35: lambda line: with_counts(line, '"4": 1, "2": 3, "4": -1')},
     "FormatError"),
    # the first line of the third group names the cell of the first line
    ({32: lambda line: '{"subject": 0, "stage": 0, "counts": {"1": 1}}'},
     "DuplicateDocument"),
    # a parse fault in the last group comes before a record fault in the
    # first
    ({39: lambda line: "{", 5: lambda line: with_counts(line, '"12": 1')},
     "FormatError"),
])
def test_load_across_group_boundaries(tmp_path, edits, error):
    # with BLOCK = 1 a group is 16 records and these 40 make three: the
    # second opens with a line in another form than saving writes, the
    # first holds a record with descending keys, the third one with a
    # repeated key; each error case then breaks one line more
    N, T, V = 20, 2, 12
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 4, size=(N, T, V))
    counts[:, :, 0] += 1  # every cell present
    c = Corpus.from_dense(counts, rng.standard_normal((N, T, 2)),
                          np.arange(N) % 2, [f"w{v}" for v in range(V)])
    save_corpus(c, tmp_path)
    docs = tmp_path / "docs.jsonl"
    lines = docs.read_text().splitlines()
    assert len(lines) == 40
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        assert load_corpus(tmp_path) == c
    assert not lexsort.called  # ascending words need no sort
    obj = json.loads(lines[16])
    lines[16] = json.dumps({"counts": obj["counts"], "stage": obj["stage"],
                            "subject": obj["subject"]})
    assert corpus_module._DOC_LINE.fullmatch(lines[16]) is None
    lines[5] = json.dumps(dict(json.loads(lines[5]), counts=dict(
        reversed(json.loads(lines[5])["counts"].items()))))
    lines[35] = with_counts(lines[35], '"4": 1, "2": 3, "4": 2')
    for r, edit in edits.items():
        lines[r] = edit(lines[r])
    docs.write_text("".join(line + "\n" for line in lines))
    with mock.patch.object(corpus_module, "BLOCK", 1), \
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        want = loaded(lambda: load_corpus_ref(tmp_path),
                      lambda c: csr_ref(c.docs, c.n_subjects, c.n_stages))
        lexsort.reset_mock()
        got = loaded(lambda: load_corpus(tmp_path))
    assert got == want
    if error is None:
        assert lexsort.called  # the fallback sorted the out-of-order cells
        assert got[4][17][1] == [(2, 3), (4, 2)]  # line 35's cell
    else:
        assert got[0] == error
    if edits.keys() & {16, 39}:
        line = max(edits.keys() & {16, 39}) + 1
        assert got[1].startswith(f"{docs} line {line}: ")


@pytest.mark.parametrize("source", ["simulate", "load_corpus"])
def test_cells_share_one_int_per_word_index(tmp_path, source):
    cfg = SimConfig(n_subjects=30, n_stages=2, vocab_size=1000, n_topics=3,
                    n_covariates=2, seed=5)
    c, _ = simulate(cfg)
    if source == "load_corpus":
        save_corpus(c, tmp_path)
        c = load_corpus(tmp_path)
    keys = [w for row in c.docs for cell in row for w in cell]
    assert max(keys) > 256  # not all in CPython's small-int cache
    assert len({id(w) for w in keys}) == len(set(keys)) <= c.vocab_size


def test_save_of_a_loaded_corpus_rewrites_its_files(tmp_path):
    c, _ = simulate(SimConfig(n_subjects=20, n_stages=3, vocab_size=300,
                              n_topics=2, n_covariates=3, seed=2))
    save_corpus(c, tmp_path / "a")
    save_corpus(load_corpus(tmp_path / "a"), tmp_path / "b")
    for name in ("vocab.txt", "docs.jsonl", "groups.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    # loading standardizes the covariates again, which moves their last bits
    a, b = (np.loadtxt(tmp_path / d / "meta.csv", delimiter=",", skiprows=1)
            for d in "ab")
    assert np.array_equal(a[:, :2], b[:, :2])
    np.testing.assert_allclose(a[:, 2:], b[:, 2:], rtol=0, atol=1e-12)


class Interrupted(BaseException):
    pass


def test_failed_writes_leave_the_previous_file(tmp_path, monkeypatch):
    fname = tmp_path / "obj.json"
    write_json({"a": 1}, fname)
    with pytest.raises(TypeError):
        write_json({"a": object()}, fname)
    assert fname.read_text() == '{"a": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["obj.json"]

    out = tmp_path / "corpus"
    c = load_corpus(minimal_dir(tmp_path))
    save_corpus(c, out)
    before = {name: (out / name).read_bytes() for name in CORPUS_FILES}

    def interrupted(corpus):
        yield '{"subject": 0, '
        raise Interrupted

    monkeypatch.setattr(corpus_module, "_doc_lines", interrupted)
    with pytest.raises(Interrupted):
        save_corpus(c, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_no_package_path_reads_docs(tmp_path):
    # the stored arrays are the corpus; docs, and csr() with the entries'
    # rows, are built for tests and inspection
    reads = []

    def unread(corpus):
        reads.append(corpus)
        raise AssertionError("Corpus.docs or Corpus.csr read")

    with mock.patch.object(Corpus, "docs", property(unread)), \
            mock.patch.object(Corpus, "csr", unread):
        c, truth = simulate(SimConfig(n_subjects=12, n_stages=2,
                                      vocab_size=20, n_topics=2,
                                      n_covariates=2, seed=1))
        save_corpus(c, tmp_path / "corpus")
        save_truth(truth, tmp_path / "truth.json")
        c = load_corpus(tmp_path / "corpus")
        truth = load_truth(tmp_path / "truth.json")
        cfg = TrainConfig(n_topics=2, t_max=2, m_samples=2, hidden_enc=6,
                          optimizer="adam", eps_stop=0.0, seed=1)
        save_model(train(c, *default_init(c, cfg), cfg),
                   tmp_path / "model.json")
        model = load_model(tmp_path / "model.json")
        report = full_report(model, c, truth)
        theta = infer_proportions(model, c)
        dynamic = fit_dynamic_topics(c, cfg)
    assert reads == []
    assert np.isfinite(report.perplexity) and np.isfinite(theta).all()
    assert np.isfinite(dynamic.log[-1]["loss"])


def small_corpus(seed=2):
    c, _ = simulate(SimConfig(n_subjects=6, n_stages=2, vocab_size=40,
                              n_topics=2, n_covariates=2, seed=seed))
    return c


def test_a_count_set_through_docs_is_written_to_the_arrays(tmp_path):
    c = small_corpus()
    before = copy.deepcopy(c)
    save_corpus(before, tmp_path / "before")
    cell = c.docs[4][1]
    w = list(cell)[2]
    cell[w] += 7
    assert c.docs[4][1][w] == before.docs[4][1][w] + 7
    indptr, words, counts, _ = c.csr()
    e = indptr[1 * c.n_subjects + 4] + 2
    assert words[e] == w
    assert counts[e] == before.counts[e] + 7
    assert c != before
    save_corpus(c, tmp_path / "after")
    a, b = ((tmp_path / d / "docs.jsonl").read_text().splitlines()
            for d in ("before", "after"))
    changed = [r for r in range(len(a)) if a[r] != b[r]]
    assert len(changed) == 1
    want = json.loads(a[changed[0]])
    want["counts"][str(w)] += 7
    assert json.loads(b[changed[0]]) == want
    assert want["subject"] == 4 and want["stage"] == 1
    assert load_corpus(tmp_path / "after") == c


def test_an_absent_word_or_a_bad_count_cannot_be_set():
    c = small_corpus()
    held = [a.copy() for a in (c.indptr, c.words, c.counts)]
    cell = c.docs[0][0]
    absent = next(v for v in range(c.vocab_size) if v not in cell)
    for key in (absent, c.vocab_size, -1, 2**70, str(next(iter(cell))),
                None):
        with pytest.raises(KeyError):
            cell[key] = 1
        with pytest.raises(KeyError):
            cell[key]
        assert key not in cell
    for count in (0, -1, 2.0, True, "3", 2**63):
        with pytest.raises(FormatError, match="must be a positive int"):
            cell[next(iter(cell))] = count
    assert all(np.array_equal(a, b)
               for a, b in zip(held, (c.indptr, c.words, c.counts)))
    assert dict(cell) == dict(zip(c.words[:len(cell)].tolist(),
                                  c.counts[:len(cell)].tolist()))


def test_a_row_of_docs_cannot_be_edited_or_sliced():
    c = small_corpus()
    before = copy.deepcopy(c)
    row = c.docs[1]
    assert isinstance(row, tuple) and len(row) == c.n_stages
    for value in (None, {0: 1}):
        with pytest.raises(TypeError):
            row[0] = value
    with pytest.raises(TypeError, match="one subject at a time"):
        c.docs[1:3]
    assert c == before
    assert c.docs[-1] == c.docs[c.n_subjects - 1]
    with pytest.raises(IndexError):
        c.docs[c.n_subjects]


def test_a_cell_finds_each_of_its_words_and_no_other():
    c = small_corpus()
    for row in c.docs:
        for cell in row:
            if cell is None:
                continue
            want = dict(cell.items())
            assert {w: cell[w] for w in cell} == want
            assert [v for v in range(c.vocab_size) if v in cell] == list(want)
            assert all(cell.get(np.int64(w)) == n for w, n in want.items())


def test_an_edit_to_a_copys_docs_leaves_the_original():
    c = small_corpus()
    before = copy.deepcopy(c)
    d = copy.deepcopy(c)
    cell = d.docs[2][0]
    cell[next(iter(cell))] += 1
    assert d != c
    assert c == before
    assert all(np.array_equal(a, b) for a, b in zip(c.csr(), before.csr()))


def test_a_pass_over_docs_holds_no_copy_of_the_counts():
    c, _ = simulate(SimConfig(n_subjects=1200, n_stages=3, vocab_size=500,
                              n_topics=3, n_covariates=2, seed=3))
    totals = c.total_counts()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = [sum(cell.values()) if cell else 0
               for row in c.docs for cell in row]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == totals.ravel().tolist()
    assert peak < 2**20, peak


def test_no_stored_array_but_words_and_counts_is_entry_long():
    c = small_corpus()
    nnz = c.words.size
    assert nnz not in {c.n_subjects, c.n_stages, c.vocab_size}
    assert sorted(name for name, v in vars(c).items()
                  if isinstance(v, np.ndarray) and nnz in v.shape) == [
        "counts", "words"]


def built(records, N, T, V):
    """Corpus.build of records, and whether it sorted its entries."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        c = Corpus.build(records, np.zeros((N, T, 1)), np.arange(N) % 2,
                         [f"w{v}" for v in range(V)], allow_missing=True)
    return c, lexsort.called


@pytest.mark.parametrize("records, sorts", [
    # words step down or repeat only across a cell boundary, missing cells
    # (subject 1 at stage 0, subject 2 at stage 1) included
    ([(0, 0, {3: 1, 4: 2}), (2, 0, {0: 5, 4: 1}), (0, 1, {4: 2}),
      (1, 1, {4: 1, 5: 3})], False),
    # a word given as "1" and as 1 in one record: one entry, counts summed
    ([(0, 0, {3: 1, 4: 2}), (2, 0, {1: 2, "1": 3, 0: 1}),
      (1, 1, {4: 1, 5: 3})], True),
])
def test_only_words_out_of_order_in_a_cell_are_sorted(records, sorts):
    N, T, V = 3, 2, 6
    c, sorted_ = built(records, N, T, V)
    assert sorted_ == sorts
    want = reference_docs(records, N, T, V)
    assert csr_items(c.csr()) == csr_items(csr_ref(want, N, T))
    assert cell_items(c.docs) == cell_items(want)
