"""Config-driven experiment runner.

Subcommands
    simulate   write a synthetic corpus directory plus truth.json
    fit        train on a corpus directory, write model.json + train_log.json
    eval       score a fitted model, write metrics.json + topics_top_words.json
    infer      write per-cell proportion estimates for a corpus
    pipeline   simulate -> fit -> eval for `repeats` seeds, write summary.json

Configuration is a JSON file with optional blocks "sim" (SimConfig fields),
"train" (TrainConfig fields), "paths" (strings corpus, model, truth, out), and
scalars "repeats" (an integer >= 1) and "allow_missing" (true or false).
Precedence: config file, then repeatable `--set section.key=value` pairs
(values parsed as JSON when possible), then the flags (--seed, --out,
--repeats, --dist, --dist-weight, --dynamic-topics, --allow-missing). An
unknown key, a block that is not an object, or a path or scalar of the wrong
type or out of its bound fails every command before it starts, as does a bad
field of a sim or train block the command uses (ConfigError). Seeds are >= 0;
--seed sets both; pipeline repeat i runs at base_seed + i into out/seed_<s>/.
A fit whose Monte-Carlo tensors would exceed MAX_SAMPLE_ELEMENTS numbers is a
ConfigError naming m_samples. Exit status is 0 on success, 1 on any named
error (message on stderr); the same config and seed give the same JSON bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import load_corpus, save_corpus, write_json
from .errors import (
    ConfigError,
    IoError,
    LongtopicError,
    check_field_types,
    setting,
)
from .evaluate import full_report, save_metrics, save_top_words
from .inference.dynamic import fit_dynamic_topics
from .inference.trainer import (
    TrainConfig,
    default_init,
    infer_proportions,
    load_model,
    save_model,
    train,
)
from .simulate import SimConfig, load_truth, save_truth, simulate

METRIC_FIELDS = ("kl_topics", "coherence", "perplexity", "dominant_acc",
                 "group_acc")


@dataclass
class RunConfig:
    """The `paths` block (the first four fields) and the top-level scalars."""
    corpus: str | None = None
    model: str | None = None
    truth: str | None = None
    out: str = "out"
    repeats: int = setting(1, ge=1)
    allow_missing: bool = False

    def __post_init__(self):
        check_field_types(self)


# the keys each config block takes; RunConfig's other fields are the
# top-level scalars
_BLOCKS = {"sim": {f.name for f in fields(SimConfig)},
           "train": {f.name for f in fields(TrainConfig)},
           "paths": {"corpus", "model", "truth", "out"}}
_SCALARS = [f.name for f in fields(RunConfig)
            if f.name not in _BLOCKS["paths"]]
# each dedicated flag as the config key it sets
_FLAGS = (("seed", "sim.seed"), ("seed", "train.seed"), ("out", "paths.out"),
          ("repeats", "repeats"), ("allow_missing", "allow_missing"),
          ("dist", "train.dist_kind"), ("dist_weight", "train.dist_weight"),
          ("dynamic_topics", "train.dynamic_topics_var"))


def _put(cfg, key, val):
    """Set the schema's key `block.name` or `scalar` of cfg to val."""
    block, _, name = key.rpartition(".")
    if name in _BLOCKS.get(block, ()):
        cfg.setdefault(block, {})[name] = val
    elif not block and name in _SCALARS:
        cfg[name] = val
    elif not block and name in _BLOCKS:
        raise ConfigError(f"{name} must be an object; got {val!r}")
    else:
        raise ConfigError(f"unknown config key {key!r}")


def _load_config(args):
    """(cfg, run): the given config (file, --set, flags) and its RunConfig."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                given = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"{args.config}: invalid JSON: {e}") from e
        if not isinstance(given, dict):
            raise ConfigError("config root must be a JSON object")
        for key, val in given.items():
            if key in _BLOCKS and isinstance(val, dict):
                cfg[key] = {}
                for name, v in val.items():
                    _put(cfg, f"{key}.{name}", v)
            else:
                _put(cfg, key, val)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value; got {item!r}")
        key, raw = item.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        _put(cfg, key, val)
    for flag, key in _FLAGS:
        if getattr(args, flag, None) is not None:
            _put(cfg, key, getattr(args, flag))
    paths = cfg["paths"] if "paths" in cfg else {}
    return cfg, RunConfig(**paths, **{k: cfg[k] for k in _SCALARS if k in cfg})


def _section(cfg, name, cls):
    """The config block name as a cls (SimConfig or TrainConfig)."""
    if name not in cfg:
        raise ConfigError(f"this mode needs a '{name}' config block")
    try:
        return cls(**cfg[name])
    except TypeError as e:
        raise ConfigError(f"bad {name} config: {e}") from e


def _out_dir(run, *sub):
    path = os.path.join(run.out, *sub)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create directory {path}: {e}") from e
    return path


def _need_path(run, key):
    val = getattr(run, key)
    if not val:
        raise ConfigError(f"this mode needs paths.{key}")
    return val


def _save_simulation(out, corpus, truth):
    """Write out/corpus/ and out/truth.json."""
    save_corpus(corpus, os.path.join(out, "corpus"))
    save_truth(truth, os.path.join(out, "truth.json"))


def _fit(corpus, tcfg):
    if tcfg.dynamic_topics_var is not None:
        return fit_dynamic_topics(corpus, tcfg)
    return train(corpus, *default_init(corpus, tcfg), tcfg)


def _save_report(out, report, fitted, echo):
    """Write out/metrics.json and out/topics_top_words.json."""
    save_metrics(report, os.path.join(out, "metrics.json"), config_echo=echo)
    save_top_words(fitted.stage_topics(), fitted.vocab,
                   os.path.join(out, "topics_top_words.json"))


def _echo(cfg):
    return {k: cfg[k] for k in ("sim", "train", "repeats", "allow_missing")
            if k in cfg}


def cmd_simulate(cfg, run):
    corpus, truth = simulate(_section(cfg, "sim", SimConfig))
    out = _out_dir(run)
    _save_simulation(out, corpus, truth)
    print(f"wrote {os.path.join(out, 'corpus')} ({corpus.n_subjects} subjects,"
          f" {corpus.n_stages} stages, {corpus.vocab_size} words)"
          f" and {out}/truth.json")
    return 0


def cmd_fit(cfg, run):
    tcfg = _section(cfg, "train", TrainConfig)
    corpus = load_corpus(_need_path(run, "corpus"),
                         allow_missing=run.allow_missing)
    fitted = _fit(corpus, tcfg)
    out = _out_dir(run)
    save_model(fitted, os.path.join(out, "model.json"))
    write_json({"log": fitted.log, "converged": fitted.converged},
                os.path.join(out, "train_log.json"), indent=2)
    last = fitted.log[-1]
    print(f"wrote {os.path.join(out, 'model.json')}; final loss"
          f" {last['loss']:.6g} after {last['epoch']} epochs"
          f" (converged={fitted.converged})")
    return 0


def cmd_eval(cfg, run):
    corpus = load_corpus(_need_path(run, "corpus"),
                         allow_missing=run.allow_missing)
    fitted = load_model(_need_path(run, "model"))
    truth = load_truth(run.truth) if run.truth else None
    report = full_report(fitted, corpus, truth)
    _save_report(_out_dir(run), report, fitted, _echo(cfg))
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def cmd_infer(cfg, run):
    corpus = load_corpus(_need_path(run, "corpus"),
                         allow_missing=run.allow_missing)
    fitted = load_model(_need_path(run, "model"))
    theta = infer_proportions(fitted, corpus)
    path = os.path.join(_out_dir(run), "proportions.json")
    write_json({"theta": theta.tolist(), "order": "stage, subject, topic"},
                path)
    print(f"wrote {path}")
    return 0


def _aggregate(per_seed):
    mean, se = {}, {}
    for k in METRIC_FIELDS:
        vals = [r[k] for r in per_seed if r[k] is not None]
        if not vals:
            mean[k] = se[k] = None
            continue
        mean[k] = float(np.mean(vals))
        se[k] = (0.0 if len(vals) < 2
                 else float(np.std(vals, ddof=1) / math.sqrt(len(vals))))
    return mean, se


def cmd_pipeline(cfg, run):
    scfg = _section(cfg, "sim", SimConfig)
    tcfg = _section(cfg, "train", TrainConfig)
    base_seed = scfg.seed if "seed" in cfg["sim"] else tcfg.seed
    per_seed = []
    for seed in range(base_seed, base_seed + run.repeats):
        corpus, truth = simulate(replace(scfg, seed=seed))
        seed_dir = _out_dir(run, f"seed_{seed}")
        _save_simulation(seed_dir, corpus, truth)
        fitted = _fit(corpus, replace(tcfg, seed=seed))
        save_model(fitted, os.path.join(seed_dir, "model.json"))
        echo = _echo(dict(cfg, sim=dict(cfg["sim"], seed=seed),
                          train=dict(cfg["train"], seed=seed)))
        report = full_report(fitted, corpus, truth)
        _save_report(seed_dir, report, fitted, echo)
        row = dict(report.to_dict(), seed=seed)
        del row["permutations"]
        per_seed.append(row)
        print(f"seed {seed}: " + json.dumps(
            {k: row[k] for k in METRIC_FIELDS}, sort_keys=True))
    mean, se = _aggregate(per_seed)
    path = os.path.join(run.out, "summary.json")
    write_json({"per_seed": per_seed, "mean": mean, "se": se,
                 "config": _echo(cfg)}, path, indent=2)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "pipeline": cmd_pipeline,
}


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="override sim + train seeds")
    sp.add_argument("--out", help="output directory (default ./out)")
    sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                    help="override any config field; repeatable")
    sp.add_argument("--allow-missing", action="store_const", const=True,
                    help="accept corpora with absent (subject, stage) cells")


def build_parser():
    p = argparse.ArgumentParser(
        prog="longtopic",
        description="Longitudinal topic-model experiments")
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in _COMMANDS:
        sp = sub.add_parser(mode)
        _add_common(sp)
        if mode in ("fit", "pipeline"):
            sp.add_argument("--dist", help="distance kind for the group term")
            sp.add_argument("--dist-weight", type=float,
                            dest="dist_weight")
            sp.add_argument("--dynamic-topics", type=float,
                            dest="dynamic_topics", metavar="VAR",
                            help="per-stage topic chain variance")
        if mode == "pipeline":
            sp.add_argument("--repeats", type=int)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.mode](*_load_config(args))
    except LongtopicError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
