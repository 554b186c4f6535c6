"""Golden bytes: a fixed-seed run writes exactly the files it wrote before the
corpus path was vectorized, the static and dynamic-topic epoch loops were
merged into one, the metric kernels were vectorized, and the group-distance
kernels were stacked over the counterfactuals.

The simulate -> fit -> infer hashes were computed with the package at commit
cc5d8b4 (per-word Python corpus build, `json.dump` streaming writers), the
dynamic-topic fit and pipeline hashes at commit 8c9326e (one epoch loop per
topic parametrization, pipeline with its own copy of the stage commands),
the `eval` hashes (`metrics.json`) at commit 4e0037f (one Python loop per
permutation, word pair and probe step), the N=300 run at commit d843e55
(dense (N, T, V) count tensors in the sampler, the loss and the metrics), and
the four-group fits per distance kind at commit cf4fb04 (one Python loop over
the counterfactuals in each distance kernel), all on x86-64 with numpy 2.4
and OpenBLAS. The fitted parameters (`model.json`, and `proportions.json`
read from them) were pinned again at commit c6f4989 plus the reconstruction
backward at the nonzero counts and the encoder's K-column input gradient,
whose sums round otherwise than the dense products they replaced; every
`train_log.json`, `metrics.json` and `summary.json` kept its bytes through
that change. They pin the on-disk formats and the random draw order: a
change to either shows up here even when two runs of the new code agree with
each other. The `eval` and `pipeline` pins hold both when each fit and report
forks its helper process and when it runs in process. A different BLAS may
round the fit differently
and change the hashes of the fitted artifacts (`model.json`, `train_log.json`,
`proportions.json`, `summary.json`, `metrics.json`) only.
"""

import hashlib
import os

import pytest

from conftest import CAN_FORK, no_fork
from longtopic.cli import main

SIM = ["--set", "sim.n_subjects=30", "--set", "sim.n_stages=3",
       "--set", "sim.vocab_size=40", "--set", "sim.n_topics=3",
       "--set", "sim.n_covariates=3", "--set", "sim.n_groups=3"]
TRAIN = ["--set", "train.n_topics=3", "--set", "train.t_max=1",
         "--set", "train.m_samples=2", "--set", "train.hidden_enc=6",
         "--set", 'train.optimizer="adam"', "--set", "train.eps_stop=0.0"]

GOLDEN = {
    "corpus/vocab.txt":
        "21a353e7fdfc86e098daafacc5d2b752745461bc964e5e41c178161b2b6685c5",
    "corpus/docs.jsonl":
        "3afabe67f6641a1cd1ffed84e4259a95360d8e45879e6e2022aee42eee6f7ebd",
    "corpus/meta.csv":
        "c36734333e90c57a153c000a7b55094762f5bc8afe7b6f0fb920093179ca7876",
    "corpus/groups.csv":
        "4d6dc5761977089feb660d6dbbee16ca8fb8b3427dadae491f37be3e4a97087e",
    "truth.json":
        "3267ffd6fe21b26156a6152b7f361eeeebaf0fc7648dfc0326db5ca8a783b0a0",
    "model.json":
        "e27df3e4a3c115685e4c088abd2e8ce02b1aa5be6b52eb310ee49d2ebde7ce48",
    "train_log.json":
        "b2d5079e6c268b78e5cb0a003f1b0954b1d13de10d1bfb5566791486635ad9f9",
    "proportions.json":
        "f8dd0852d5de7d63c3b10c1a8e32be152dc1f5d2a8d3de3d57618ebb9db2a1ec",
}

GOLDEN_DYNAMIC = {
    "model.json":
        "405e69c32151ce2800ad20816b863a150c0212129923608db67e9c873d3e14fd",
    "train_log.json":
        "450bdd9fc45a3c6c352439c87d7c88178f5e6a4e173c37f3bd52dedba48fac36",
}
GOLDEN_METRICS = {
    "metrics.json":
        "c227b446797cd5bd92b7da9fc44f1f8e401285a88a22388148f3d4b780d25598",
}
# two groups (the G = 2 probe) and six topics (a 720-permutation search);
# six epochs move the topics far enough that the alignment is not the identity
K6_SIM = ["--set", "sim.n_groups=2", "--set", "sim.n_topics=6"]
K6_TRAIN = ["--set", "train.n_topics=6", "--set", "train.t_max=6",
            "--set", "train.learning_rate=0.05"]
GOLDEN_METRICS_K6 = {
    "metrics.json":
        "e0994263e5fa9957c7276caf4c29e76fe2f72cd4c05de67a2810c853e00b02e9",
}
# N=300, V=200: five minibatches of 64 and two 256-row evaluation chunks,
# where every other run here fits in one of each; the encoder is 64 wide, as
# by default, where a BLAS product narrowed to fewer columns rounds otherwise
N300_SIM = ["--set", "sim.n_subjects=300", "--set", "sim.vocab_size=200"]
N300_TRAIN = ["--set", "train.hidden_enc=64"]
GOLDEN_N300 = {
    "run/model.json":
        "9c9e6c7d59bb0dd2f5f0a22088d8d19a8fcfa1fe39de000ec67fbca7e51c6855",
    "run/train_log.json":
        "f7bb49bc70df9351f95fa423a8bf168abaf01023639330c718e66c1c9081daa3",
    "eval/metrics.json":
        "6abd6ef61243ac9b33ce259c2751d118f32dab0a48f23528529c68810fdc248a",
}
# four groups (three counterfactuals per subject) under each distance kind
# that mi_jsd's pins above leave out
GOLDEN_G4 = {
    "info_radius": (
        "83504dbf1baed30c5ace166135dedbd5c2c288a54e3bb1b7ed1cc7739521e06c",
        "053a817d07ec6f73bf27e07d6501e8770a128d85d86f10479e464317b8dd8804"),
    "avg_divergence": (
        "b64236922531cc43ca607896b2ecaba400c43bd431511ab734d6d8feea94ddd7",
        "a28cc77b19ecea770d3da9b7a21823e433e80c7a6c5f0db82674d45c73c3ccc4"),
    "l1": (
        "f603dc3d47b490687721bfe85ed24f5fa6d2fe78751bbb74004cead97dbcfb03",
        "f3beb9b430970de38a7009531f806d92aaf60db35acc0a3ffdadd1652f905f8a"),
    "l2": (
        "29b07e47398a65c85551c34a5ad12cf37a479f86b9d423e8bb152503ee9eabf1",
        "bed5e34ccd439309a75d68d30fb809f7d7916a248efeefd3b92731da4f09b743"),
    "linf": (
        "04afb55f3ded82940159049c178a70a97531d2ddb993c0e04e2ac915cf0bcdb6",
        "4ff74d308a35a3c8a4bb51ec09b92273f76471fcc225067603efbf4f794a9d6a"),
}
GOLDEN_PIPELINE = {
    "summary.json":
        "33f9ef438cfd4e4ad05c0ad826046f58619d5532a915c99aab3751e6fbeea2be",
}


@pytest.fixture(params=[True, False], ids=["forked", "in_process"])
def helpers(request, forks, monkeypatch):
    """How many helpers each fit and each report forks: one when it may run
    on two CPUs (`forks`), or none, with os.fork refused."""
    if not request.param:
        monkeypatch.setattr(os, "fork", no_fork)
    return forks, int(request.param and CAN_FORK)


def sha256s(root, rels):
    return {rel: hashlib.sha256((root / rel).read_bytes()).hexdigest()
            for rel in rels}


def test_fixed_seed_artifacts_match_golden_bytes(tmp_path):
    out = tmp_path / "run"
    corpus = out / "corpus"
    model = out / "model.json"
    assert main(["simulate", "--out", str(out), "--seed", "11", *SIM]) == 0
    assert main(["fit", "--out", str(out), "--seed", "11", *TRAIN,
                 "--set", f'paths.corpus="{corpus}"']) == 0
    assert main(["infer", "--out", str(out),
                 "--set", f'paths.corpus="{corpus}"',
                 "--set", f'paths.model="{model}"']) == 0
    assert sha256s(out, GOLDEN) == GOLDEN


def simulate_fit_eval(root, sim_extra=(), train_extra=()):
    run = root / "run"
    corpus = run / "corpus"
    assert main(["simulate", "--out", str(run), "--seed", "11", *SIM,
                 *sim_extra]) == 0
    assert main(["fit", "--out", str(run), "--seed", "11", *TRAIN,
                 *train_extra, "--set", f'paths.corpus="{corpus}"']) == 0
    out = root / "eval"
    assert main(["eval", "--out", str(out),
                 "--set", f'paths.corpus="{corpus}"',
                 "--set", f'paths.model="{run / "model.json"}"',
                 "--set", f'paths.truth="{run / "truth.json"}"']) == 0
    return out


def test_eval_metrics_match_golden_bytes(tmp_path, helpers):
    out = simulate_fit_eval(tmp_path)
    assert sha256s(out, GOLDEN_METRICS) == GOLDEN_METRICS
    forks, each = helpers
    assert len(forks) == 2 * each  # the fit's and the report's


def test_two_group_six_topic_eval_matches_golden_bytes(tmp_path, helpers):
    out = simulate_fit_eval(tmp_path, K6_SIM, K6_TRAIN)
    assert sha256s(out, GOLDEN_METRICS_K6) == GOLDEN_METRICS_K6
    forks, each = helpers
    assert len(forks) == 2 * each


def test_batch_and_chunk_crossing_run_matches_golden_bytes(tmp_path):
    simulate_fit_eval(tmp_path, N300_SIM, N300_TRAIN)
    assert sha256s(tmp_path, GOLDEN_N300) == GOLDEN_N300


@pytest.mark.parametrize("kind", sorted(GOLDEN_G4))
def test_four_group_fit_matches_golden_bytes(tmp_path, kind):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--seed", "11", *SIM,
                 "--set", "sim.n_groups=4"]) == 0
    assert main(["fit", "--out", str(run), "--seed", "11", *TRAIN,
                 "--set", f'train.dist_kind="{kind}"',
                 "--set", f'paths.corpus="{run / "corpus"}"']) == 0
    rels = ("model.json", "train_log.json")
    assert sha256s(run, rels) == dict(zip(rels, GOLDEN_G4[kind]))


def test_dynamic_topic_fit_matches_golden_bytes(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--seed", "11", *SIM]) == 0
    fit = tmp_path / "dynamic"
    assert main(["fit", "--out", str(fit), "--seed", "11", *TRAIN,
                 "--set", "train.t_max=2", "--dynamic-topics", "0.3",
                 "--set", f'paths.corpus="{out / "corpus"}"']) == 0
    assert sha256s(fit, GOLDEN_DYNAMIC) == GOLDEN_DYNAMIC


def test_pipeline_matches_golden_bytes(tmp_path, helpers):
    assert main(["pipeline", "--out", str(tmp_path), "--seed", "11", *SIM,
                 *TRAIN, "--repeats", "2"]) == 0
    assert sha256s(tmp_path, GOLDEN_PIPELINE) == GOLDEN_PIPELINE
    forks, each = helpers
    assert len(forks) == 4 * each  # a fit and a report per seed
    for seed in (11, 12):
        assert sorted(p.name for p in (tmp_path / f"seed_{seed}").iterdir()) \
            == ["corpus", "metrics.json", "model.json",
                "topics_top_words.json", "truth.json"]
