"""Property test over the config schema: a setting of the wrong type, or one
just past its field's bound, given in the config file or by --set to any
command that reads it, ends in exit 1 with one named error line and writes
nothing. The bad values come from the tables below, written from the
documented rules, not from the bounds the package declares."""

import json
import os
import tempfile
from contextlib import redirect_stderr
from io import StringIO

from hypothesis import given, settings, strategies as st

from longtopic.cli import main

# (block, field, its JSON type, values just past its bound); block None is
# the top level. The values of the base config below are all valid.
FIELDS = [
    ("sim", "n_subjects", "int", [0]),
    ("sim", "n_stages", "int", [0]),
    ("sim", "vocab_size", "int", [1]),  # below n_topics = 2
    ("sim", "n_topics", "int", [0, 7]),  # 7 is above vocab_size = 6
    ("sim", "n_covariates", "int", [-1]),
    ("sim", "n_groups", "int", [1]),
    ("sim", "prior_kind", "str", ["quadratic"]),
    ("sim", "basis", "list", [["x", "cos"], [1], []]),
    ("sim", "phi_drift", "float", [-1e-9, float("nan")]),
    ("sim", "group_effect", "bool", []),
    ("sim", "count_range", "list", [[0, 5], [5, 4], [1], [1.5, 3],
                                     [1, 10**19]]),
    ("sim", "seed", "int", [-1]),
    ("train", "n_topics", "int", [0]),
    ("train", "m_samples", "int", [0]),
    ("train", "learning_rate", "float", [0.0, -1e-3, float("nan")]),
    ("train", "t_max", "int", [0]),
    ("train", "eps_stop", "float", [-1e-12, float("nan")]),
    ("train", "batch_size", "int", [0]),
    ("train", "dist_kind", "str", ["cosine"]),
    ("train", "dist_weight", "float", []),
    ("train", "seed", "int", [-1]),
    ("train", "optimizer", "str", ["rmsprop"]),
    ("train", "momentum", "float", []),
    ("train", "schedule", "str", ["linear"]),
    ("train", "hidden_enc", "int", [0]),
    ("train", "hidden_trans", "int", [-1]),
    ("train", "share_transitions", "bool", []),
    ("train", "tie_encoder_init", "bool", []),
    ("train", "init_scale", "float", []),
    ("train", "a2", "float", [0.0]),
    ("train", "delta2", "float", [-1.0]),
    ("train", "dynamic_topics_var", "float?", [-1e-9, float("nan")]),
    ("paths", "corpus", "str?", []),
    ("paths", "model", "str?", []),
    ("paths", "truth", "str?", []),
    ("paths", "out", "str", []),
    (None, "repeats", "int", [0, -2]),
    (None, "allow_missing", "bool", []),
]
# values of another JSON type; a type ending in "?" also takes null
WRONG_TYPE = {
    "int": ["3", 2.5, True, None, [1]],
    "float": ["0.5", True, None, {}],
    "str": [3, True, None, ["x"]],
    "bool": [1, 0, "true", None],
    "list": [5, "x", None],
}
BASE = {
    "sim": {"n_subjects": 4, "n_stages": 2, "vocab_size": 6, "n_topics": 2,
            "n_covariates": 1},
    "train": {"n_topics": 2, "t_max": 1, "m_samples": 1, "hidden_enc": 3},
    "paths": {"corpus": "no_corpus", "out": "out"},
}
MODES = ["simulate", "fit", "eval", "infer", "pipeline"]


def bad_values(entry):
    _, _, kind, past_bound = entry
    wrong = WRONG_TYPE[kind.rstrip("?")]
    return past_bound + [v for v in wrong
                         if not (v is None and kind.endswith("?"))]


@st.composite
def faults(draw):
    """(command, block, field, bad value, whether the file or --set gives
    it); a sim field goes to simulate, a train field to fit, a path or
    scalar to any command."""
    entry = draw(st.sampled_from(FIELDS))
    block, name = entry[:2]
    if block in ("sim", "train"):
        mode = {"sim": "simulate", "train": "fit"}[block]
    else:
        mode = draw(st.sampled_from(MODES))
    value = draw(st.sampled_from(bad_values(entry)))
    return mode, block, name, value, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(faults())
def test_a_bad_setting_is_one_named_error_and_writes_nothing(fault):
    mode, block, name, value, in_file = fault
    cfg = json.loads(json.dumps(BASE))
    argv = [mode]
    if in_file:
        (cfg[block] if block else cfg)[name] = value
    else:
        key = f"{block}.{name}" if block else name
        argv += ["--set", f"{key}={json.dumps(value)}"]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cfg.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        here, err = os.getcwd(), StringIO()
        os.chdir(work)
        try:
            with redirect_stderr(err):
                code = main([*argv, "--config", path])
        finally:
            os.chdir(here)
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            ("error: ConfigError:", "error: UnknownDistance:")), lines
        assert os.listdir(work) == ["cfg.json"]
