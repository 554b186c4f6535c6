"""Property test over the two JSON files `eval` reads besides the corpus:
one random edit of a saved model.json or truth.json (a key dropped, a list
truncated, or a value replaced by a string, a bool, null, a list or an int
from a small set) either leaves `eval` working, or ends it with exit 1, one
`error: <Type>: ...` line and no output directory. A numpy warning fails the
test too (the suite turns RuntimeWarning into an error), since a user would
see it on stderr next to the error line."""

import copy
import json
import os
import re
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
        target, err = os.path.join(work, "evalout"), StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = main(["eval", "--out", target,
                         "--set", f'paths.corpus="{out / "corpus"}"',
                         "--set", f'paths.model="{paths["model.json"]}"',
                         "--set", f'paths.truth="{paths["truth.json"]}"'])
        if code == 0:
            assert os.path.isfile(os.path.join(target, "metrics.json"))
        else:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and re.match(r"error: \w+: ", lines[0]), \
                lines
            assert not os.path.exists(target)
