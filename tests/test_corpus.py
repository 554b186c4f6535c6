import json
import re
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
from longtopic.simulate import SimConfig, simulate
from oracles import dense_counts_ref, load_corpus_ref


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
    cells (with their key order) and for the first error raised."""
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
        docs[subject][stage] = cell
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
    want = outcome(lambda: cell_items(reference_docs(records, N, T, V)))
    for block in (1, 2, corpus_module.BLOCK):  # records split across blocks
        with mock.patch.object(corpus_module, "BLOCK", block):
            got = outcome(lambda: cell_items(Corpus.build(
                records, np.zeros((N, T, 1)), np.arange(N) % 2,
                [f"w{v}" for v in range(V)], allow_missing=True).docs))
        assert got == want


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


def loaded(load):
    """A loaded corpus's fields, its cells with their key order, or the
    class and message of the error it raised."""
    try:
        c = load()
    except LongtopicError as e:
        return type(e).__name__, str(e)
    return (c.vocab, c.groups.tolist(), c.present.tolist(),
            c.covariates.tolist(), cell_items(c.docs))


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
        want = loaded(lambda: load_corpus_ref(path, allow))
        assert loaded(lambda: load_corpus(path, allow)) == want


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
