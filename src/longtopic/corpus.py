"""Document/metadata data model, file formats, and validation.

A corpus is a balanced panel: N subjects observed over T stages, each (subject,
stage) cell holding one bag-of-words document over a fixed vocabulary of V words,
per-stage covariates (P features), and one group label per subject. Counts are
records (word index -> count) in `docs`; numeric code reads them through the
CSR view `csr()`, cells stage-major, and builds no (N, T, V) tensor. Every
cell of a corpus takes its keys from one array of the V int objects 0..V-1,
so a word index above CPython's small-int cache is one object per corpus, not
one per cell that holds it.

On-disk layout (one directory):
    vocab.txt   one word per line; line index = word index
    docs.jsonl  one JSON object per line:
                {"subject": i, "stage": t, "counts": {"<word_index>": count, ...}}
    meta.csv    header subject,stage,x0,...,x{P-1}; one row per (subject, stage)
    groups.csv  header subject,group; one row per subject

Loading parses each docs.jsonl line in the exact form saving writes with one
regular expression and all their counts with one np.fromstring, into flat
int64 arrays that go to the corpus BLOCK records at a time; any other line
goes through json.loads and the per-line checks, so a malformed file raises
the same error, at the same line, either way.

Covariates are standardized (per-feature zero mean, unit variance pooled over all
(i, t)) during construction, and the transform is recorded on the corpus. Saving
writes the standardized values, so re-standardizing on reload is a no-op and
load(save(c)) == c holds. Every file is written under a temporary name and
renamed over the target, so a failed write leaves the previous file intact.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import re
import reprlib
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import (
    DuplicateDocument,
    FormatError,
    IoError,
    MissingDocument,
    MissingLabel,
    ShapeError,
    VocabMismatch,
)

VOCAB_FILE = "vocab.txt"
DOCS_FILE = "docs.jsonl"
META_FILE = "meta.csv"
GROUPS_FILE = "groups.csv"
BAD_KEY = -2**63  # word index standing for a key that int() refused
BLOCK = 256  # records checked and assembled together
# subjects per block of a pass over the whole corpus (the fit's full-data
# evaluation, inference and the metrics), so that no pass holds an (N, V)
# array
ROW_CHUNK = 256
_INT = r"(?:0|[1-9][0-9]{0,17})"  # below 10**18, no sign, no leading 0
_PAIR = rf'"{_INT}": -?{_INT}'
# a docs.jsonl line as _doc_lines writes it: subject, stage, counts body
_DOC_LINE = re.compile(rf'\{{"subject": ({_INT}), "stage": ({_INT}), '
                       rf'"counts": \{{((?:{_PAIR}(?:, {_PAIR})*)?)\}}\}}')
_SPACES = bytes.maketrans(b'":,', b"   ")


@dataclass
class Corpus:
    n_subjects: int
    n_stages: int
    vocab_size: int
    n_groups: int
    n_features: int
    # docs[i][t] is a {word_index: count} map, or None for a missing cell;
    # every key is the corpus's one int object for that word index
    docs: list
    covariates: np.ndarray  # (N, T, P) standardized
    groups: np.ndarray  # (N,) int labels in 0..G-1
    vocab: list
    present: np.ndarray  # (N, T) bool
    cov_center: np.ndarray  # (P,) recorded standardization offset
    cov_scale: np.ndarray  # (P,) recorded standardization scale
    _csr: tuple | None = field(default=None, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, records, covariates, groups, vocab, allow_missing=False,
              n_groups=None):
        """Validate and assemble a corpus.

        records: iterable of (subject, stage, {word_index: count}). Keys go
        through int(), so "1" and 1 name one word and their counts add up;
        zero counts are dropped.
        covariates: (N, T, P) array-like; groups: (N,) labels; vocab: V words.
        Validation is total: malformed input raises a named error, never returns
        a partially built corpus.
        """
        return cls._from_blocks(_record_blocks(records), covariates, groups,
                                vocab, allow_missing, n_groups)

    @classmethod
    def from_dense(cls, counts, covariates, groups, vocab, allow_missing=False,
                   n_groups=None):
        """Build from a dense (N, T, V) count tensor; zero-total cells are
        treated as missing."""
        counts = np.asarray(counts)
        if counts.ndim != 3:
            raise ShapeError(f"counts must be (N, T, V); got {counts.shape}")
        if counts.dtype.kind not in "biuf":
            raise FormatError(f"counts must be numeric, not {counts.dtype}")
        N, T, V = counts.shape
        flat = counts.reshape(N * T, V)
        blocks = ((first, flat[first:first + BLOCK])
                  for first in range(0, N * T, BLOCK))
        return cls._from_blocks(_dense_blocks(blocks, T), covariates, groups,
                                vocab, allow_missing, n_groups)

    @classmethod
    def _from_blocks(cls, blocks, covariates, groups, vocab, allow_missing,
                     n_groups):
        """The one construction path, a block of records at a time so that
        the flat arrays stay small next to the cells they fill. Record r puts
        the next lens[r] (word, count) entries into cell (subj[r], stage[r]).
        keys, the word keys as given or None, only names a key int()
        refused. The cells take their keys from one object array of the V
        ints 0..V-1, built once here."""
        vocab = list(vocab)
        if not vocab:
            raise FormatError("vocabulary is empty")
        seen = set()
        for w in vocab:
            if not isinstance(w, str) or w == "" or "\n" in w or "\r" in w:
                raise FormatError(f"invalid vocabulary entry {w!r}")
            if w in seen:
                raise FormatError(f"duplicate vocabulary entry {w!r}")
            seen.add(w)
        V = len(vocab)

        groups = np.asarray(groups)
        if groups.ndim != 1 or groups.shape[0] < 1:
            raise ShapeError("groups must be a nonempty 1-d array")
        if not np.issubdtype(groups.dtype, np.integer):
            if np.any(groups != np.floor(groups)):
                raise FormatError("group labels must be integers")
            groups = groups.astype(np.int64)
        if np.any(groups < 0):
            raise FormatError("group labels must be nonnegative")
        N = groups.shape[0]
        G = max(2, int(groups.max()) + 1)
        if n_groups is not None:
            if n_groups < G:
                raise FormatError(
                    f"n_groups={n_groups} smaller than max label {groups.max()}")
            G = int(n_groups)

        covariates = np.asarray(covariates, dtype=np.float64)
        if covariates.ndim != 3 or covariates.shape[0] != N:
            raise ShapeError(
                f"covariates must be (N, T, P); got {covariates.shape}")
        _, T, P = covariates.shape
        if T < 1:
            raise ShapeError("need at least one stage")
        if not np.all(np.isfinite(covariates)):
            raise FormatError("covariates contain non-finite values")

        docs = [[None] * T for _ in range(N)]
        present = np.zeros((N, T), dtype=bool)
        word_ints = np.arange(V).astype(object)
        for subj, stage, lens, words, counts, keys in blocks:
            rec = np.repeat(np.arange(lens.size), lens)
            _check_entries(subj, stage, lens, rec, words, counts, present, V,
                           keys)
            keep = counts > 0
            ends = np.cumsum(np.bincount(rec[keep], minlength=lens.size))
            keys = word_ints[words[keep]].tolist()
            values = counts[keep].astype(np.int64, copy=False).tolist()
            start = 0
            for i, t, end in zip(subj.tolist(), stage.tolist(), ends.tolist()):
                cell = dict(zip(keys[start:end], values[start:end]))
                if len(cell) < end - start:  # keys int() maps to one word
                    cell = dict.fromkeys(cell, 0)
                    for w, c in zip(keys[start:end], values[start:end]):
                        cell[w] += c
                docs[i][t] = cell
                start = end
            present[subj, stage] = True
        if not present.any():
            raise FormatError("corpus has no documents")
        if not allow_missing and not present.all():
            i, t = np.argwhere(~present)[0]
            raise MissingDocument(
                f"no document for subject {i}, stage {t}"
                " (pass allow_missing to accept an unbalanced panel)")

        covariates, center, scale = _standardize(covariates)
        return cls(
            n_subjects=N, n_stages=T, vocab_size=V, n_groups=G, n_features=P,
            docs=docs, covariates=covariates, groups=groups, vocab=vocab,
            present=present, cov_center=center, cov_scale=scale)

    # -- accessors ---------------------------------------------------------

    def csr(self):
        """(indptr, words, counts, rows): the counts in CSR form, read from
        docs once. Cell c = t*N + i (subject i, stage t) holds entries
        indptr[c] to indptr[c + 1], word ids ascending, so stage t is one
        slice; rows holds each entry's subject i."""
        if self._csr is None:
            N, T = self.n_subjects, self.n_stages
            cells = [self.docs[i][t] or {} for t in range(T) for i in range(N)]
            cell = np.repeat(np.arange(N * T), list(map(len, cells)))
            words = np.fromiter(chain.from_iterable(cells), np.int64)
            counts = np.fromiter(chain.from_iterable(
                c.values() for c in cells), np.int64)
            if np.any((np.diff(words) <= 0) & (np.diff(cell) == 0)):
                order = np.lexsort((words, cell))
                words, counts = words[order], counts[order]
            self._csr = (np.searchsorted(cell, np.arange(N * T + 1)), words,
                         counts, cell % N)
        return self._csr

    def stage_block(self, t, lo, hi):
        """(rows, words, counts) of stage t's entries for subjects lo to
        hi - 1, with rows counted from lo: one slice of csr()."""
        indptr, words, counts, rows = self.csr()
        N = self.n_subjects
        sl = slice(indptr[t * N + lo], indptr[t * N + hi])
        return rows[sl] - lo, words[sl], counts[sl]

    def dense_counts(self):
        """(N, T, V) float64 count tensor. Missing cells are all-zero rows."""
        (indptr, words, counts, rows), N = self.csr(), self.n_subjects
        W = np.zeros((N, self.n_stages, self.vocab_size))
        W[rows, np.repeat(np.arange(self.n_stages), np.diff(indptr[::N])),
          words] = counts
        return W

    def total_counts(self):
        """(N, T) float64 total words per cell (0 where missing)."""
        indptr, _, counts, _ = self.csr()
        totals = np.zeros(len(indptr) - 1)
        # reduceat sums from each start to the next: the empty cells are
        # left out, as it would read past them (or past the end)
        full = indptr[:-1] < indptr[1:]
        totals[full] = np.add.reduceat(counts, indptr[:-1][full])
        return totals.reshape(self.n_stages, -1).T

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.n_subjects == other.n_subjects
            and self.n_stages == other.n_stages
            and self.vocab_size == other.vocab_size
            and self.n_groups == other.n_groups
            and self.vocab == other.vocab
            and np.array_equal(self.groups, other.groups)
            and np.array_equal(self.present, other.present)
            and self.docs == other.docs
            and np.allclose(self.covariates, other.covariates,
                            rtol=1e-12, atol=1e-12)
        )


def _standardize(covariates):
    """Per-feature zero mean / unit variance pooled over all (i, t).

    Zero-variance features keep scale 1 so the transform stays invertible;
    applying the transform twice is a no-op up to float rounding.
    """
    N, T, P = covariates.shape
    flat = covariates.reshape(N * T, P)
    center = flat.mean(axis=0) if flat.size else np.zeros(P)
    scale = flat.std(axis=0) if flat.size else np.ones(P)
    scale = np.where(scale > 0, scale, 1.0)
    out = (covariates - center) / scale
    return out, center, scale


def _record_blocks(records):
    """The records, BLOCK at a time, as _from_blocks takes them."""
    records = iter(records)
    while block := list(islice(records, BLOCK)):
        subjects, stages, cells = [], [], []
        for subject, stage, counts in block:
            subjects.append(subject)
            stages.append(stage)
            cells.append(counts)
        ids = np.asarray([subjects, stages])
        if ids.size and ids.dtype.kind not in "iu":
            raise FormatError("subject/stage must be ints")
        keys = list(chain.from_iterable(cells))
        values = list(chain.from_iterable(c.values() for c in cells))
        yield (ids[0].astype(np.int64), ids[1].astype(np.int64),
               np.fromiter(map(len, cells), np.int64, len(cells)),
               _word_array(keys), _count_array(values), keys)


def _dense_blocks(blocks, T):
    """The nonzero cells of dense count rows, as _from_blocks takes them.
    blocks yields (first, rows): the (n, V) counts of cells first to
    first + n - 1 of the subject-major (N, T) grid."""
    for first, rows in blocks:
        cell, words = np.nonzero(rows)
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        cells = first + cell[starts]
        yield (cells // T, cells % T, np.diff(starts, append=cell.size),
               words, rows[cell, words], None)


def _word_array(keys):
    """int() of each key as int64, BAD_KEY where _word_index says so."""
    try:
        return np.fromiter(map(int, keys), np.int64, len(keys))
    except (TypeError, ValueError, OverflowError):
        return np.fromiter(map(_word_index, keys), np.int64, len(keys))


def _count_array(values):
    """Counts as int64 when all are ints int64 can hold, else as float64
    through _count_value."""
    counts = np.array(values) if set(map(type, values)) <= {int} else None
    if counts is None or counts.dtype.kind != "i":
        counts = np.fromiter(map(_count_value, values), np.float64,
                             len(values))
    return counts


def _word_index(key):
    """int(key), or BAD_KEY when int() refuses it or int64 cannot hold it."""
    try:
        w = int(key)
    except (TypeError, ValueError, OverflowError):
        return BAD_KEY
    return w if BAD_KEY < w < 2**63 else BAD_KEY


def _count_value(c):
    """A count as a float; NaN, which reads as not an integer, for a bool
    or anything that is not a real number."""
    if isinstance(c, numbers.Real) and not isinstance(c, bool):
        return float(c)
    return math.nan


def _check_entries(subj, stage, lens, rec, words, counts, present, V, keys):
    """Raise the named error of the first fault in record order, as checking
    one record after another would: a record's subject, stage and cell (not
    one present already), then each entry's word index, vocabulary range,
    integrality and sign, then the record's total. Slots order them: record
    r's own checks take starts[r] + 2r, its entry e takes e + 2r + 1, its
    total the slot after its last entry; ties go to the check listed first."""
    (N, T), R = present.shape, lens.size
    slot = np.cumsum(lens) - lens + 2 * np.arange(R)
    at = np.arange(words.size) + 2 * rec + 1
    in_s = (subj >= 0) & (subj < N)
    in_t = (stage >= 0) & (stage < T)
    ok = in_s & in_t
    dup = np.ones(R, dtype=bool)
    dup[np.unique(np.where(ok, subj * T + stage, -1 - np.arange(R)),
                  return_index=True)[1]] = False
    dup[ok] |= present[subj[ok], stage[ok]]
    whole = (np.isfinite(counts) & (np.trunc(counts) == counts)
             & (np.abs(counts) < 2.0**63))
    empty = np.bincount(rec[counts > 0], minlength=R) == 0
    faults = []
    for rank, (slots, mask, fault) in enumerate([
        (slot, ~in_s, lambda r: MissingLabel(
            f"subject {subj[r]} has no group label")),
        (slot, ~in_t, lambda r: FormatError(
            f"stage {stage[r]} outside 0..{T - 1}")),
        (slot, dup, lambda r: DuplicateDocument(
            f"duplicate document for subject {subj[r]}, stage {stage[r]}")),
        (at, words == BAD_KEY, lambda e: FormatError(
            f"bad word index {keys[e]!r}")),
        (at, (words < 0) | (words >= V), lambda e: VocabMismatch(
            f"word index {words[e]} outside vocabulary of size {V}")),
        (at, ~whole, lambda e: FormatError(
            f"count for word {words[e]} is not an integer")),
        (at, counts < 0, lambda e: FormatError(
            f"negative count for word {words[e]}")),
        (slot + lens + 1, empty, lambda r: FormatError(
            f"document (subject {subj[r]}, stage {stage[r]}) has zero total"
            " count")),
    ]):
        if mask.any():
            i = int(np.argmax(mask))
            faults.append((slots[i], rank, fault(i)))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]


# -- file I/O ---------------------------------------------------------------


def load_corpus(path, allow_missing=False):
    """Read the four corpus files from a directory and validate.

    Dimensions are inferred: N from groups.csv, T and P from meta.csv, V from
    vocab.txt. meta.csv must cover the full N x T grid; only documents may be
    missing (and only with allow_missing).
    """
    vocab = _read_vocab(os.path.join(path, VOCAB_FILE))
    groups = _read_groups(os.path.join(path, GROUPS_FILE))
    covariates = _read_meta(os.path.join(path, META_FILE), len(groups))
    blocks = _read_docs(os.path.join(path, DOCS_FILE))
    return Corpus._from_blocks(blocks, covariates, groups, vocab,
                               allow_missing, None)


def save_corpus(corpus, path):
    """Write the four corpus files; load_corpus(save_corpus(c)) == c.

    Counts round-trip exactly; covariates to better than 12 significant digits
    (written with repr-faithful precision). Refuses an empty corpus.
    """
    if corpus.n_subjects < 1:
        raise IoError("refusing to save a corpus with no subjects")
    N, T, P = corpus.n_subjects, corpus.n_stages, corpus.n_features
    row = "%d,%d" + ",%.17g" * P + "\n"
    try:
        os.makedirs(path, exist_ok=True)
        _write_text(os.path.join(path, VOCAB_FILE),
                    ["\n".join(corpus.vocab) + "\n"])
        _write_text(os.path.join(path, DOCS_FILE), _doc_lines(corpus))
        _write_text(os.path.join(path, META_FILE), chain(
            [",".join(["subject", "stage"] + [f"x{p}" for p in range(P)])
             + "\n"],
            (row % (n // T, n % T, *x) for n, x in enumerate(
                corpus.covariates.reshape(N * T, P).tolist()))))
        _write_text(os.path.join(path, GROUPS_FILE), chain(
            ["subject,group\n"],
            ("%d,%d\n" % ig for ig in enumerate(corpus.groups.tolist()))))
    except OSError as e:
        raise IoError(f"cannot write corpus to {path}: {e}") from e


def _write_text(fname, chunks):
    """Write the strings chunks yields to a new file next to fname, then
    rename it over fname: a write that fails or is interrupted leaves fname
    as it was and no file of its own behind."""
    tmp = f"{os.fspath(fname)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, fname)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _doc_lines(corpus):
    """docs.jsonl lines: per present cell, what json.dumps writes for
    {"subject": i, "stage": t, "counts": {"<word>": count, ...}} with the
    word indices in ascending order."""
    for i, row in enumerate(corpus.docs):
        for t, cell in enumerate(row):
            if cell is not None:
                words = sorted(cell)
                pairs = ('"%d": %d, ' * len(words))[:-2]
                yield ('{"subject": %d, "stage": %d, "counts": {' + pairs
                       + "}}\n") % (i, t, *chain.from_iterable(
                           zip(words, map(cell.__getitem__, words))))


def read_json(fname):
    """A JSON file's object; IoError when it cannot be read or parsed."""
    try:
        with open(fname, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise IoError(f"cannot read {fname}: {e}") from e
    except json.JSONDecodeError as e:
        raise IoError(f"{fname}: invalid JSON: {e}") from e


_KINDS = {dict: "an object", list: "a list", bool: "true or false",
          int: "an integer"}


def read_entry(obj, key, where, kind=np.ndarray, least=None, shape=None):
    """obj[key] checked against kind, else FormatError naming where and key.
    kind is dict, list, bool, int (not a bool; >= least when given), or
    np.ndarray: a number or regular nested list of numbers (no string, bool
    or null), returned as float64, of the given shape when one is given."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is not np.ndarray:
        if isinstance(value, kind) and (kind is bool or not isinstance(
                value, bool)) and (least is None or value >= least):
            return value
        bound = "" if least is None else f" >= {least}"
        raise FormatError(f"{where}: {key!r} must be {_KINDS[kind]}{bound};"
                          f" got {reprlib.repr(value)}")
    try:
        arr = np.array(value)
    except ValueError:  # a ragged list
        arr = np.array(None)
    if arr.dtype.kind not in "iuf":
        raise FormatError(f"{where}: {key!r} is not a numeric array")
    if shape is not None and arr.shape != shape:
        raise FormatError(f"{where}: {key!r} has shape {arr.shape},"
                          f" expected {shape}")
    return arr.astype(np.float64, copy=False)


def write_json(obj, fname, indent=None):
    """obj as sorted-key JSON plus a newline, written as _write_text does;
    IoError when it cannot be written."""
    try:
        _write_text(fname, [json.dumps(obj, sort_keys=True, indent=indent)
                            + "\n"])
    except OSError as e:
        raise IoError(f"cannot write {fname}: {e}") from e


def _read_lines(fname):
    try:
        with open(fname, encoding="utf-8") as f:
            return f.read().splitlines()
    except OSError as e:
        raise IoError(f"cannot read {fname}: {e}") from e


def _read_vocab(fname):
    words = _read_lines(fname)
    while words and words[-1] == "":
        words.pop()
    return words


def _read_groups(fname):
    lines = _read_lines(fname)
    if not lines or lines[0].strip() != "subject,group":
        raise FormatError(f"{fname}: expected header 'subject,group'")
    rows = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{fname} line {ln}: expected 2 fields")
        try:
            subject, group = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise FormatError(f"{fname} line {ln}: {e}") from e
        if subject in rows:
            raise FormatError(f"{fname} line {ln}: duplicate subject {subject}")
        rows[subject] = group
    if not rows:
        raise FormatError(f"{fname}: no subjects")
    N = len(rows)
    if sorted(rows) != list(range(N)):
        raise FormatError(f"{fname}: subject ids must be 0..{N - 1}")
    return np.array([rows[i] for i in range(N)], dtype=np.int64)


def _read_meta(fname, n_subjects):
    """(N, T, P) covariates from meta.csv: the rows parsed in one pass and
    placed by index, a fault reported at the first offending line."""
    lines = _read_lines(fname)
    if not lines:
        raise FormatError(f"{fname}: empty file")
    header = lines[0].split(",")
    if header[:2] != ["subject", "stage"]:
        raise FormatError(f"{fname}: header must start with 'subject,stage'")
    P = len(header) - 2
    ids, xs, lns, fault = [], [], [], None
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != P + 2:
                raise ValueError(f"expected {P + 2} fields")
            subject, stage = int(parts[0]), int(parts[1])
            xs.append(list(map(float, parts[2:])))
        except ValueError as e:
            fault = FormatError(f"{fname} line {ln}: {e}")
            break
        ids.append((subject, stage))
        lns.append(ln)
    try:
        pairs = np.array(ids, dtype=np.int64).reshape(-1, 2)
    except OverflowError as e:
        raise FormatError(f"{fname}: subject or stage out of range") from e
    x = np.array(xs, dtype=np.float64).reshape(len(ids), P)
    bad = np.ones(len(ids), dtype=bool)     # repeats an earlier row
    bad[np.unique(pairs, axis=0, return_index=True)[1]] = False
    bad |= ~np.isfinite(x).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise FormatError(f"{fname} line {lns[r]}: " + (
            "non-finite covariate" if not np.isfinite(x[r]).all() else
            f"duplicate (subject, stage) ({pairs[r, 0]}, {pairs[r, 1]})"))
    if fault is not None or not ids:
        raise fault or FormatError(f"{fname}: no rows")
    subj, stage = pairs.T
    known = (subj >= 0) & (subj < n_subjects) & (stage >= 0)
    grid = np.zeros((n_subjects, max(int(stage.max()) + 1, 0)), dtype=bool)
    grid[subj[known], stage[known]] = True
    if not grid.all():
        i, t = np.argwhere(~grid)[0]
        raise FormatError(f"{fname}: missing covariate row for subject {i},"
                          f" stage {t}")
    if not known.all():
        raise FormatError(f"{fname}: row for unknown subject"
                          f" {subj[np.argmin(known)]}")
    covariates = np.zeros(grid.shape + (P,))
    covariates[subj, stage] = x
    return covariates


def _read_docs(fname):
    """docs.jsonl as _from_blocks takes it, BLOCK records at a time in line
    order, every line parsed before the first block: a parse fault comes
    before any fault of the records. A line in _doc_lines' form goes into
    flat arrays, all such lines in one pass; any other line goes through
    _parse_doc_line. A block goes to _from_blocks as slices of the arrays
    when each of its lines is in that form with its word keys ascending,
    else as records through _record_blocks, as Corpus.build takes them."""
    heads, bodies, other = [], [], {}
    for ln, line in enumerate(_read_lines(fname), start=1):
        if not line.strip():
            continue
        m = _DOC_LINE.fullmatch(line)
        if m is None:
            other[len(bodies)] = _parse_doc_line(fname, ln, line)
            heads += "0", "0"  # unused: its block takes the parsed record
            bodies.append("")
        else:
            heads += m[1], m[2]
            bodies.append(m[3])
    subj, stage = np.fromstring(" ".join(heads), np.int64, sep=" ").reshape(
        -1, 2).T
    lens = np.array([b.count(":") for b in bodies], dtype=np.int64)
    words, counts = np.fromstring(
        " ".join(filter(None, bodies)).encode("ascii").translate(_SPACES),
        np.int64, sep=" ").reshape(-1, 2).T
    del heads, bodies
    starts = np.concatenate([[0], np.cumsum(lens)])
    rec = np.repeat(np.arange(lens.size), lens)
    flat = np.ones(lens.size, dtype=bool)
    flat[list(other)] = False
    # keys out of order may repeat: a record's dict keeps the last count
    # of a key, as json.loads's does
    flat[rec[1:][(np.diff(words) <= 0) & (np.diff(rec) == 0)]] = False

    def blocks():
        for first in range(0, lens.size, BLOCK):
            last = min(first + BLOCK, lens.size)
            if flat[first:last].all():
                a, b = starts[first], starts[last]
                yield (subj[first:last], stage[first:last], lens[first:last],
                       words[a:b], counts[a:b], None)
                continue
            yield from _record_blocks(
                other.get(r) or (int(subj[r]), int(stage[r]), dict(zip(
                    words[starts[r]:starts[r + 1]].tolist(),
                    counts[starts[r]:starts[r + 1]].tolist())))
                for r in range(first, last))

    return blocks()


def _parse_doc_line(fname, ln, line):
    """One docs.jsonl line through json.loads: (subject, stage, {int(key):
    count}), or the FormatError of its first fault."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"{fname} line {ln}: {e}") from e
    if not isinstance(obj, dict) or not {"subject", "stage", "counts"} <= set(obj):
        raise FormatError(
            f"{fname} line {ln}: need subject/stage/counts fields")
    subject, stage, counts = obj["subject"], obj["stage"], obj["counts"]
    if (isinstance(subject, bool) or not isinstance(subject, int)
            or isinstance(stage, bool) or not isinstance(stage, int)):
        raise FormatError(f"{fname} line {ln}: subject/stage must be ints")
    if not isinstance(counts, dict):
        raise FormatError(f"{fname} line {ln}: counts must be an object")
    try:
        parsed = dict(zip(map(int, counts), counts.values()))
    except ValueError:
        parsed = None
    if parsed is None or not set(map(type, counts.values())) <= {int}:
        for k, v in counts.items():
            try:
                int(k)
            except ValueError as e:
                raise FormatError(
                    f"{fname} line {ln}: bad word index {k!r}") from e
            if type(v) is not int:
                raise FormatError(f"{fname} line {ln}: count for word"
                                  f" {k} must be an int")
    return subject, stage, parsed
