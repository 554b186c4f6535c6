import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longtopic
from longtopic.cli import main
from longtopic.corpus import Corpus, load_corpus, save_corpus
from longtopic.errors import FormatError
from longtopic.model import default_vocab

# the package root, for subprocesses that run outside the checkout
SRC = str(Path(longtopic.__file__).resolve().parents[1])

SIM = ["--set", "sim.n_subjects=40", "--set", "sim.n_stages=2",
       "--set", "sim.vocab_size=12", "--set", "sim.n_topics=2",
       "--set", "sim.n_covariates=3"]
TRAIN = ["--set", "train.n_topics=2", "--set", "train.t_max=2",
         "--set", "train.m_samples=2", "--set", "train.hidden_enc=6",
         "--set", 'train.optimizer="adam"', "--set", "train.eps_stop=0.0"]


def run_pipeline(out, extra=()):
    return main(["pipeline", "--out", str(out), "--seed", "7",
                 *SIM, *TRAIN, *extra])


def test_pipeline_writes_all_artifacts(tmp_path):
    assert run_pipeline(tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["per_seed"]) == 1
    row = summary["per_seed"][0]
    assert row["seed"] == 7
    for k in ("kl_topics", "coherence", "perplexity", "dominant_acc",
              "group_acc"):
        assert row[k] is not None
        assert summary["mean"][k] == pytest.approx(row[k])
        assert summary["se"][k] == 0.0
    seed_dir = tmp_path / "seed_7"
    for name in ("truth.json", "model.json", "metrics.json",
                 "topics_top_words.json"):
        assert (seed_dir / name).is_file()
    assert (seed_dir / "corpus").is_dir()


def test_pipeline_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_pipeline(a) == 0
    assert run_pipeline(b) == 0
    for rel in ("summary.json", "seed_7/metrics.json", "seed_7/model.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_pipeline_aggregates_repeats(tmp_path):
    assert run_pipeline(tmp_path, extra=["--repeats", "2"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    rows = summary["per_seed"]
    assert [r["seed"] for r in rows] == [7, 8]
    vals = [r["perplexity"] for r in rows]
    assert summary["mean"]["perplexity"] == pytest.approx(np.mean(vals))
    assert summary["se"]["perplexity"] == pytest.approx(
        np.std(vals, ddof=1) / np.sqrt(2))
    assert (tmp_path / "seed_8" / "metrics.json").is_file()


def test_stagewise_commands_chain(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM]) == 0
    corpus = str(out / "corpus")
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", f'paths.corpus="{corpus}"',
                 "--dist", "l2", "--dist-weight", "0.5"]) == 0
    model = str(out / "model.json")
    saved = json.loads((out / "model.json").read_text())
    assert saved["config"]["dist_kind"] == "l2"
    assert saved["config"]["dist_weight"] == 0.5
    assert (out / "train_log.json").is_file()

    assert main(["eval", "--out", str(out),
                 "--set", f'paths.corpus="{corpus}"',
                 "--set", f'paths.model="{model}"',
                 "--set", f'paths.truth="{out / "truth.json"}"']) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["kl_topics"] is not None

    capsys.readouterr()
    assert main(["infer", "--out", str(out),
                 "--set", f'paths.corpus="{corpus}"',
                 "--set", f'paths.model="{model}"']) == 0
    theta = np.asarray(json.loads(
        (out / "proportions.json").read_text())["theta"])
    assert theta.shape == (2, 40, 2)
    assert np.allclose(theta.sum(axis=2), 1.0, atol=1e-9)


def test_eval_without_truth_leaves_recovery_metrics_null(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM]) == 0
    corpus = str(out / "corpus")
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", f'paths.corpus="{corpus}"']) == 0
    assert main(["eval", "--out", str(out),
                 "--set", f'paths.corpus="{corpus}"',
                 "--set", f'paths.model="{out / "model.json"}"']) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["kl_topics"] is None
    assert metrics["dominant_acc"] is None
    assert metrics["group_acc"] is not None


def test_eval_of_a_corpus_with_an_empty_stage_writes_strict_json(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM,
                 "--set", "sim.n_subjects=20", "--set", "sim.n_stages=3"]) == 0
    docs = out / "corpus" / "docs.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    docs.write_text("".join(ln for ln in lines if '"stage": 1,' not in ln))
    corpus = f'paths.corpus="{out / "corpus"}"'
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", corpus, "--allow-missing"]) == 0
    assert main(["eval", "--out", str(out), "--set", corpus,
                 "--set", f'paths.model="{out / "model.json"}"',
                 "--set", f'paths.truth="{out / "truth.json"}"',
                 "--allow-missing"]) == 0

    def reject(name):
        raise ValueError(f"metrics.json holds {name}")

    metrics = json.loads((out / "metrics.json").read_text(),
                         parse_constant=reject)
    assert metrics["perplexity"] > 1.0


def test_config_file_with_flag_overrides(tmp_path):
    cfg = {"sim": {"n_subjects": 40, "n_stages": 2, "vocab_size": 12,
                   "n_topics": 2, "n_covariates": 3},
           "train": {"n_topics": 2, "t_max": 5, "m_samples": 2,
                     "hidden_enc": 6, "eps_stop": 0.0},
           "repeats": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--out", str(out),
                 "--seed", "2", "--set", "train.t_max=1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["train"]["t_max"] == 1
    assert summary["config"]["sim"]["seed"] == 2


def test_fit_prints_a_short_line_for_a_huge_finite_loss(tmp_path, capsys,
                                                        monkeypatch):
    # plain SGD at these learning rates takes this fit's logged loss from
    # 747 to 8.8e105, 3.7e51 and 1.2e30 in three epochs, all finite: the
    # fit stops at the first logged loss above 1e6 times the initial one
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "run",
                 "--set", "sim.n_subjects=30", "--set", "sim.n_stages=2",
                 "--set", "sim.vocab_size=50", "--set", "sim.n_topics=3"]) == 0
    for lr, epoch in ((1000, 2), (100, 2), (30, 3)):
        capsys.readouterr()
        out = f"fit{lr}"
        assert main(["fit", "--out", out,
                     "--set", 'paths.corpus="run/corpus"',
                     "--set", "train.n_topics=3",
                     "--set", 'train.optimizer="sgd"',
                     "--set", f"train.learning_rate={lr}",
                     "--set", "train.t_max=3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 120, lines
        assert lines[0].startswith("error: DivergedError: loss ")
        assert f" at epoch {epoch} is above " in lines[0]
        assert not (tmp_path / out).exists()


def error_code(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


def test_bad_inputs_exit_one(tmp_path, capsys):
    code, err = error_code(["simulate", "--out", str(tmp_path)], capsys)
    assert code == 1 and "ConfigError" in err

    code, err = error_code(
        ["pipeline", "--out", str(tmp_path), *SIM, *TRAIN,
         "--dist", "mahalanobis"], capsys)
    assert code == 1 and "UnknownDistance" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, err = error_code(
        ["simulate", "--config", str(bad), "--out", str(tmp_path)], capsys)
    assert code == 1 and "ConfigError" in err

    code, err = error_code(
        ["fit", "--out", str(tmp_path), *TRAIN,
         "--set", 'paths.corpus="/nonexistent/corpus"'], capsys)
    assert code == 1

    code, err = error_code(
        ["pipeline", "--out", str(tmp_path), *SIM, *TRAIN,
         "--set", "bogus.key=1"], capsys)
    assert code == 1 and "ConfigError" in err

    code, err = error_code(
        ["pipeline", "--out", str(tmp_path), *SIM, *TRAIN,
         "--set", "train.n_topics=0"], capsys)
    assert code == 1 and "ConfigError" in err


@pytest.mark.parametrize("setting", [
    'repeats="two"', "repeats=2.5", "repeats=true",
    'sim.seed="x"', "sim.seed=2.5", "sim.seed=true", 'train.seed="x"',
    # every config field is type-checked before its range
    "train.t_max=2.5", "train.batch_size=true", 'train.n_topics="3"',
    'train.learning_rate="0.1"', "train.dist_weight=true",
    'train.dist_kind=3', "train.share_transitions=1",
    "sim.n_subjects=1.5", 'sim.n_subjects="40"', "sim.phi_drift=false",
    "sim.count_range=5", "sim.count_range=[1.5,3]", "sim.count_range=[1]",
    "sim.count_range=[1,10000000000000000000]", "sim.basis=[1]",
    "sim.basis=[]",
    # paths are strings, scalars are checked, seeds are >= 0, keys are known
    "repeats=0", 'allow_missing="no"', "paths.corpus=[1]", "paths.bogus=1",
    "train.seed=-3", "sim.seed=-1"])
def test_pipeline_non_integer_scalars_are_config_errors(tmp_path, capsys,
                                                        setting):
    code, err = error_code(
        ["pipeline", "--out", str(tmp_path / "out"), *SIM, *TRAIN,
         "--set", setting], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ConfigError:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, config, argv", [
    ("simulate", None, [*SIM, "--set", "paths.out=5"]),
    ("fit", None, [*TRAIN, "--set", "paths.corpus=[1]"]),
    ("simulate", {"paths": 3}, SIM),
    ("pipeline", {"sim": 3}, TRAIN),
    ("pipeline", {"sim": 3}, [*SIM, *TRAIN]),
    ("fit", None, [*TRAIN, "--set", 'paths.corpus="c"',
                   "--set", 'allow_missing="no"']),
    ("simulate", None, [*SIM, "--set", "paths.bogus=1"]),
    ("simulate", {"bogus": 1}, SIM),
    ("simulate", {"train": {"n_topics": 2, "bogus": 1}}, SIM),
    ("eval", None, ["--set", "paths.model=2"]),
    ("simulate", None, [*SIM, "--seed", "-1"]),
    ("fit", None, [*TRAIN, "--set", 'paths.corpus="c"',
                   "--set", "train.seed=-3"]),
    ("simulate", None, [*SIM, "--set", "repeats=0"]),
    ("simulate", None, [*SIM, "--set", "sim.phi_drift=NaN"]),
], ids=["paths.out=5", "paths.corpus=[1]", "paths-not-object",
        "sim-not-object", "sim-not-object-then-set", 'allow_missing="no"',
        "paths.bogus=1", "unknown-top-level-key", "unknown-train-key",
        "paths.model=2", "seed=-1", "train.seed=-3", "repeats=0",
        "phi_drift=NaN"])
def test_config_faults_exit_one_and_write_nothing(tmp_path, monkeypatch,
                                                  capsys, mode, config, argv):
    cfg_path = tmp_path / "cfg.json"
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if config is not None:
        cfg_path.write_text(json.dumps(config))
        argv = ["--config", str(cfg_path), *argv]
    code, err = error_code([mode, *argv], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ConfigError:")
    assert list(work.iterdir()) == []


def test_non_string_model_path_is_named_on_stderr(tmp_path):
    # a model path of 2 once opened (and closed) file descriptor 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "eval", "--set", "paths.model=2"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 1
    assert proc.stderr == ("error: ConfigError: model must be a string;"
                           " got 2\n")
    assert list(tmp_path.iterdir()) == []


def test_monte_carlo_tensors_beyond_the_cap_are_config_errors(tmp_path,
                                                              capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM,
                 "--set", "sim.n_subjects=10"]) == 0
    capsys.readouterr()
    # (N, T, M, K) = (10, 2, 1e8, 2): 29.8 GiB of eval eps
    code, err = error_code(
        ["fit", "--out", str(out), *TRAIN,
         "--set", f'paths.corpus="{out / "corpus"}"',
         "--set", "train.m_samples=100000000"], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ConfigError:")
    assert "m_samples=100000000" in err and "eval eps" in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("setting", ["train.n_topics=100000000",
                                     "train.hidden_enc=1000000000",
                                     "train.hidden_trans=1000000000"])
def test_a_model_beyond_the_cap_is_one_named_error_under_a_memory_limit(
        tmp_path, setting):
    """Each asked numpy for 37 to 551 GiB of parameters, a raw
    MemoryError under this address-space limit; the limit binds in the
    child only."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, 4 * 2 ** 30))
    data = tmp_path / "data"
    assert main(["simulate", "--out", str(data), "--seed", "3",
                 "--set", "sim.n_subjects=30", "--set", "sim.vocab_size=50",
                 "--set", "sim.n_stages=2", "--set", "sim.n_topics=3"]) == 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "fit", "--out",
         str(tmp_path / "out"), "--set", "train.n_topics=3", "--set",
         setting, "--set", f'paths.corpus="{data / "corpus"}"'],
        capture_output=True, text=True, env=env, preexec_fn=limit)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: ConfigError: "), proc.stderr
    assert setting.split(".")[1] in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
@pytest.mark.parametrize("setting", ["sim.vocab_size=100000000",
                                     "sim.vocab_size=5000000",
                                     "sim.n_subjects=1000000000",
                                     "sim.n_covariates=1000000000"])
def test_a_simulation_beyond_the_cap_is_one_named_error_under_a_memory_limit(
        tmp_path, setting):
    """Each asked numpy for 2.2 to 447 GiB of topics, draws or covariates, a
    raw MemoryError under this address-space limit; the limit binds in the
    child only. At vocab_size=5000000 the topics fit and the sampler's
    (256, V) draw buffer, 9.5 GiB, did not."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, 4 * 2 ** 30))
    base = {"sim.n_subjects": "30", "sim.vocab_size": "50",
            "sim.n_stages": "2", "sim.n_topics": "3"}
    key, value = setting.split("=")
    base[key] = value
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "simulate", "--out",
         str(tmp_path / "out"), "--seed", "3",
         *(arg for k, v in base.items() for arg in ("--set", f"{k}={v}"))],
        capture_output=True, text=True, env=env, preexec_fn=limit)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: ConfigError: "), proc.stderr
    assert setting.split(".")[1] in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
def test_an_encoder_input_buffer_beyond_the_cap_is_one_named_error(tmp_path):
    """64 subjects over 100 stages of V = 1e5 words, 5 each, and one
    covariate (1.5 MB of files): the fit's (T * batch_size, V + P + E + K)
    encoder inputs asked numpy for 4.77 GiB, a raw MemoryError under this
    address-space limit, while the model and the padded loss block passed
    the cap. hidden_enc = 1 keeps the model the child draws at 85 MB; the
    limit binds in the child only."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, 4 * 2 ** 30))
    N, T, V = 64, 100, 10 ** 5
    rng = np.random.default_rng(0)
    records = [(i, t, dict.fromkeys(rng.choice(V, 5, replace=False).tolist(),
                                    1)) for t in range(T) for i in range(N)]
    save_corpus(Corpus.build(records, rng.standard_normal((N, T, 1)),
                             np.arange(N) % 2, default_vocab(V)),
                tmp_path / "corpus")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "fit", "--out",
         str(tmp_path / "out"), "--set", "train.n_topics=3", "--set",
         "train.t_max=1", "--set", "train.hidden_enc=1", "--set",
         f'paths.corpus="{tmp_path / "corpus"}"'],
        capture_output=True, text=True, env=env, preexec_fn=limit)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: ConfigError: batch_size=64 "), \
        proc.stderr
    assert "encoder-input buffer of 640032000 numbers" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_failed_fit_and_eval_create_no_output_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM,
                 "--set", "sim.n_subjects=10"]) == 0
    corpus = f'paths.corpus="{out / "corpus"}"'
    capsys.readouterr()
    code, err = error_code(["fit", "--out", str(tmp_path / "fitout"), *TRAIN,
                            "--set", corpus,
                            "--set", "train.m_samples=100000000"], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ConfigError:")
    assert not (tmp_path / "fitout").exists()

    assert main(["fit", "--out", str(out), *TRAIN, "--set", corpus]) == 0
    truth = json.loads((out / "truth.json").read_text())
    truth["beta_true"][0][0][0] = float("nan")
    (out / "truth.json").write_text(json.dumps(truth))
    capsys.readouterr()
    code, err = error_code(
        ["eval", "--out", str(tmp_path / "evalout"), "--set", corpus,
         "--set", f'paths.model="{out / "model.json"}"',
         "--set", f'paths.truth="{out / "truth.json"}"'], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: NumericError:")
    assert not (tmp_path / "evalout").exists()


def test_eval_with_non_finite_truth_is_a_numeric_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM,
                 "--set", "sim.n_subjects=30"]) == 0
    corpus = str(out / "corpus")
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", f'paths.corpus="{corpus}"']) == 0
    truth = json.loads((out / "truth.json").read_text())
    truth["beta_true"][1][0][0] = float("nan")
    (out / "truth.json").write_text(json.dumps(truth))
    capsys.readouterr()
    code, err = error_code(
        ["eval", "--out", str(out), "--set", f'paths.corpus="{corpus}"',
         "--set", f'paths.model="{out / "model.json"}"',
         "--set", f'paths.truth="{out / "truth.json"}"'], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: NumericError:")


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM]) == 0
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", f'paths.corpus="{out / "corpus"}"']) == 0
    (out / "config.json").write_text(json.dumps({"train": {"n_topics": 2}}))
    return out


@pytest.mark.parametrize("name, mode, error", [
    ("corpus/docs.jsonl", "fit", "FormatError"),
    ("corpus/vocab.txt", "fit", "FormatError"),
    ("corpus/meta.csv", "fit", "FormatError"),
    ("corpus/groups.csv", "fit", "FormatError"),
    ("model.json", "eval", "IoError"),
    ("config.json", "fit", "ConfigError"),
])
def test_a_file_that_is_not_utf8_is_one_named_error(fitted_run, tmp_path,
                                                    capsys, name, mode,
                                                    error):
    run = tmp_path / "run"
    shutil.copytree(fitted_run, run)
    with open(run / name, "ab") as f:
        f.write(b"\xff")
    capsys.readouterr()
    code, err = error_code(
        [mode, "--out", str(tmp_path / "out"), "--seed", "3", *TRAIN,
         "--config", str(run / "config.json"),
         "--set", f'paths.corpus="{run / "corpus"}"',
         "--set", f'paths.model="{run / "model.json"}"'], capsys)
    assert code == 1
    assert err.count("\n") == 1, err
    assert err.startswith(f"error: {error}: "), err
    assert str(run / name) in err
    assert not (tmp_path / "out").exists()


def test_out_path_that_is_a_file_is_named(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, err = error_code(["simulate", "--out", str(taken), "--seed", "1",
                            *SIM], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: IoError:")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "simulate", "--out",
         str(tmp_path), "--seed", "1", *SIM],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "truth.json").is_file()
    # a command that fails on its config leaves no default ./out behind
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "simulate"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_eval_with_truth_missing_gamma_is_a_format_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM]) == 0
    corpus = str(out / "corpus")
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", f'paths.corpus="{corpus}"']) == 0
    truth = json.loads((out / "truth.json").read_text())
    del truth["gamma"]
    (out / "truth.json").write_text(json.dumps(truth))
    capsys.readouterr()
    code, err = error_code(
        ["eval", "--out", str(out), "--set", f'paths.corpus="{corpus}"',
         "--set", f'paths.model="{out / "model.json"}"',
         "--set", f'paths.truth="{out / "truth.json"}"'], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: FormatError:")
    assert "'gamma'" in err


def test_group_label_past_the_subjects_is_a_format_error(tmp_path, capsys):
    # G is the largest label + 1: a label of 1e12 sized every group array
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM]) == 0
    corpus = out / "corpus"
    lines = (corpus / "groups.csv").read_text().splitlines(keepends=True)
    lines[2] = "1,1000000000000\n"
    (corpus / "groups.csv").write_text("".join(lines))
    with pytest.raises(FormatError, match="groups.csv line 3: group label"
                       " 1000000000000 above max"):
        load_corpus(corpus)
    capsys.readouterr()
    code, err = error_code(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                            "--set", f'paths.corpus="{corpus}"'], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: FormatError:")


def test_a_group_count_beyond_the_cap_is_a_shape_error(tmp_path, capsys):
    # 700 groups of 700 subjects: (G - 1) * N * (G - 1) = 342,020,700
    # numbers of counterfactual encodings, above 2^28
    N = 700
    corpus = tmp_path / "corpus"
    save_corpus(Corpus.from_dense(np.ones((N, 1, 2)),
                                  np.random.default_rng(0).random((N, 1, 1)),
                                  np.arange(N), default_vocab(2), n_groups=N),
                corpus)
    code, err = error_code(["fit", "--out", str(tmp_path / "fitout"),
                            *TRAIN, "--set", f'paths.corpus="{corpus}"'],
                           capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ShapeError:")
    assert "342020700 numbers" in err
    assert not (tmp_path / "fitout").exists()


def test_simulated_label_past_the_subjects_is_refused_before_writing(
        tmp_path, capsys):
    # seed 3 draws the labels [2, 3] for two subjects: 3 is above max(2, 2)
    out = tmp_path / "run"
    code, err = error_code(
        ["simulate", "--out", str(out), "--seed", "3", *SIM,
         "--set", "sim.n_subjects=2", "--set", "sim.n_groups=5"], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: FormatError:")
    assert "group label 3 above max(2, 2)" in err
    assert not out.exists()


def test_eval_and_infer_name_a_model_that_does_not_fit(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "3", *SIM]) == 0
    assert main(["fit", "--out", str(out), "--seed", "3", *TRAIN,
                 "--set", f'paths.corpus="{out / "corpus"}"']) == 0
    model = json.loads((out / "model.json").read_text())
    del model["beta"]
    (tmp_path / "broken.json").write_text(json.dumps(model))
    cases = [(out, tmp_path / "broken.json", "FormatError")]
    # a corpus with another stage, covariate or group count
    for i, other in enumerate(["sim.n_stages=3", "sim.n_covariates=4",
                               "sim.n_groups=3"]):
        data = tmp_path / f"other{i}"
        assert main(["simulate", "--out", str(data), "--seed", "3", *SIM,
                     "--set", other]) == 0
        cases.append((data, out / "model.json", "ShapeError"))
    for data, model_path, error in cases:
        for mode in ("eval", "infer"):
            capsys.readouterr()
            code, err = error_code(
                [mode, "--out", str(tmp_path / "out"),
                 "--set", f'paths.corpus="{data / "corpus"}"',
                 "--set", f'paths.model="{model_path}"'], capsys)
            assert code == 1, (data, mode)
            assert err.count("\n") == 1, err
            assert err.startswith(f"error: {error}:"), err


BLOW_UPS = [
    ["train.a2=1e-320"],
    ["train.learning_rate=1e300"],
    ["train.dynamic_topics_var=1e-300", 'train.optimizer="sgd"'],
    ["train.dynamic_topics_var=1e-300"],
]


@pytest.mark.parametrize("settings", BLOW_UPS)
def test_numeric_blow_up_prints_only_the_named_error(tmp_path, settings):
    _blow_up_prints_only_the_named_error(tmp_path, settings)


@pytest.mark.parametrize("settings", BLOW_UPS)
def test_numeric_blow_up_with_a_forked_evaluator_prints_only_the_named_error(
        tmp_path, settings):
    # one BLAS thread: the fit forks its loss evaluation process whenever
    # it may run on two CPUs (trainer._evaluator)
    _blow_up_prints_only_the_named_error(
        tmp_path, settings, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def _blow_up_prints_only_the_named_error(tmp_path, settings, **env):
    # a fresh process, so that numpy's warnings would reach stderr as a
    # user sees them
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "longtopic", "pipeline", "--out",
         str(tmp_path / "out"), "--seed", "7", *SIM, *TRAIN,
         *[arg for s in settings for arg in ("--set", s)]],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: DivergedError: "), proc.stderr
