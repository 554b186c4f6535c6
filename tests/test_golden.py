"""Golden bytes: a fixed-seed run writes exactly the files it wrote before the
corpus path was vectorized.

The hashes were computed with the package at commit cc5d8b4 (per-word Python
corpus build, `json.dump` streaming writers), on x86-64 with numpy 2.4 and
OpenBLAS. They pin the on-disk formats and the random draw order: a change
to either shows up here even when two runs of the new code agree with each
other. A different BLAS may round the fit differently and change the hashes
of `model.json`, `train_log.json` and `proportions.json` only.
"""

import hashlib

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
        "1bcd867d4ff6ae85c2b02e4f8a3c501dca6f24d0812572a31d74628920a2ad9d",
    "train_log.json":
        "b2d5079e6c268b78e5cb0a003f1b0954b1d13de10d1bfb5566791486635ad9f9",
    "proportions.json":
        "391aabe358c60e50a1d0eee97ff9e6da2347b9ae82abae53dcdca777173adc37",
}


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
    got = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest()
           for rel in GOLDEN}
    assert got == GOLDEN
