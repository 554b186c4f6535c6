"""Property tests over the six files `eval` reads: one random edit of a
saved model.json or truth.json (a key dropped, a list truncated, or a value
replaced by a string, a bool, null, a list or an int from a small set), or of
one of the four corpus files (a line deleted, duplicated, swapped or
inserted, a number replaced by a bad or odd value, the file truncated or
emptied), either leaves `eval` working, or ends it with exit 1, one
`error: <Type>: ...` line and no output directory. A numpy warning fails the
test too (the suite turns RuntimeWarning into an error), since a user would
see it on stderr next to the error line."""

import copy
import json
import os
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from longtopic.cli import main

SIM = ["--set", "sim.n_subjects=20", "--set", "sim.n_stages=2",
       "--set", "sim.vocab_size=8", "--set", "sim.n_topics=2",
       "--set", "sim.n_covariates=2", "--set", "sim.n_groups=3"]
TRAIN = ["--set", "train.n_topics=2", "--set", "train.t_max=1",
         "--set", "train.m_samples=1", "--set", "train.hidden_enc=3",
         "--set", "train.hidden_trans=2", "--set", "train.eps_stop=0.0"]
# what a replaced value becomes; "drop" deletes the entry, "truncate" drops
# the last item of a list
EDITS = ["drop", "truncate", "x", True, False, None, [], [0.5],
         -1, 0, 2, 10 ** 12]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    with redirect_stdout(StringIO()):
        assert main(["simulate", "--out", str(out), "--seed", "5",
                     *SIM]) == 0
        assert main(["fit", "--out", str(out), "--seed", "5", *TRAIN,
                     "--set", f'paths.corpus="{out / "corpus"}"']) == 0
    return out, {name: json.loads((out / name).read_text())
                 for name in ("model.json", "truth.json")}


def apply_edit(obj, data, edit):
    """Walk down from the top-level object, one drawn key or index at a
    time, and apply edit to the entry where the walk stops."""
    parent = obj
    key = data.draw(st.sampled_from(sorted(parent)))
    while isinstance(parent[key], (dict, list)) and parent[key] \
            and data.draw(st.booleans()):
        parent = parent[key]
        key = data.draw(st.sampled_from(
            sorted(parent) if isinstance(parent, dict)
            else range(len(parent))))
    if edit == "drop":
        del parent[key]
    elif edit == "truncate":
        if isinstance(parent[key], list) and parent[key]:
            parent[key].pop()
    else:
        parent[key] = copy.deepcopy(edit)


def check_eval(work, corpus, model, truth, *flags):
    """eval either writes metrics.json, or exits 1 with one error line and
    no output directory."""
    target, err = os.path.join(work, "evalout"), StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        code = main(["eval", "--out", target,
                     "--set", f'paths.corpus="{corpus}"',
                     "--set", f'paths.model="{model}"',
                     "--set", f'paths.truth="{truth}"', *flags])
    if code == 0:
        assert os.path.isfile(os.path.join(target, "metrics.json"))
    else:
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and re.match(r"error: \w+: ", lines[0]), lines
        assert not os.path.exists(target)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["model.json", "truth.json"]), st.sampled_from(EDITS),
       st.data())
def test_an_edited_model_or_truth_is_evaluated_or_one_named_error(
        run, name, edit, data):
    out, saved = run
    obj = copy.deepcopy(saved[name])
    apply_edit(obj, data, edit)
    with tempfile.TemporaryDirectory() as work:
        paths = {n: str(out / n) for n in saved}
        paths[name] = os.path.join(work, name)
        with open(paths[name], "w", encoding="utf-8") as f:
            json.dump(obj, f)
        check_eval(work, out / "corpus", paths["model.json"],
                   paths["truth.json"])


CORPUS_FILES = ["docs.jsonl", "meta.csv", "groups.csv", "vocab.txt"]
LINE_EDITS = ["delete", "duplicate", "swap", "insert", "number", "truncate",
              "empty"]
# what a number becomes, and what an inserted line is
NUMBERS = ["x", "-1", "1e400", "nan", "2.5", "99999999999999999999", "",
           "1000000000000"]
LINES = ["\n", "x\n", "0,0\n", "0,1,2,3,4\n", "{}\n",
         '{"subject": 0, "stage": 0, "counts": {"0": 1}}\n']
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def edit_lines(text, edit, data):
    """text with one edit: a line deleted, duplicated, swapped with another
    or inserted, one number in a line replaced, the text truncated at a
    drawn place, or emptied."""
    if edit == "empty":
        return ""
    if edit == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "insert":
        lines.insert(i, data.draw(st.sampled_from(LINES)))
    else:
        spans = [m.span() for m in NUMBER.finditer(lines[i])]
        if spans:
            a, b = data.draw(st.sampled_from(spans))
            lines[i] = (lines[i][:a] + data.draw(st.sampled_from(NUMBERS))
                        + lines[i][b:])
    return "".join(lines)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(LINE_EDITS),
       st.booleans(), st.data())
def test_an_edited_corpus_file_is_evaluated_or_one_named_error(
        run, name, edit, allow_missing, data):
    out, _ = run
    with tempfile.TemporaryDirectory() as work:
        corpus = os.path.join(work, "corpus")
        shutil.copytree(out / "corpus", corpus)
        path = os.path.join(corpus, name)
        with open(path, encoding="utf-8") as f:
            text = edit_lines(f.read(), edit, data)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        check_eval(work, corpus, out / "model.json", out / "truth.json",
                   *(["--allow-missing"] if allow_missing else []))
