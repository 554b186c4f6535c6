"""Config-driven experiment runner.

Subcommands
    simulate   write a synthetic corpus directory plus truth.json
    fit        train on a corpus directory, write model.json + train_log.json
    eval       score a fitted model, write metrics.json + topics_top_words.json
    infer      write per-cell proportion estimates for a corpus
    pipeline   simulate -> fit -> eval for `repeats` seeds, write summary.json

Configuration is a JSON file with optional blocks "sim" (SimConfig fields),
"train" (TrainConfig fields), "paths" {corpus, model, truth, out}, and scalars
"repeats", "allow_missing". Precedence: config file, then repeatable
`--set section.key=value` pairs (applied in order, values parsed as JSON when
possible), then the dedicated flags (--seed, --out, --repeats, --dist,
--dist-weight, --dynamic-topics, --allow-missing) last. --seed sets both the
simulation and training seeds; pipeline repeat i runs at base_seed + i and
writes into out/seed_<s>/. Exit status is 0 on success, 1 on any named error
(message on stderr). Identical config + seed give byte-identical JSON
artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .corpus import load_corpus, save_corpus, write_json
from .errors import ConfigError, IoError, LongtopicError, check_setting
from .evaluate import full_report, save_metrics, save_top_words
from .inference import (
    TrainConfig,
    default_init,
    fit_dynamic_topics,
    infer_proportions,
    load_model,
    save_model,
    train,
)
from .simulate import SimConfig, load_truth, save_truth, simulate

METRIC_FIELDS = ("kl_topics", "coherence", "perplexity", "dominant_acc",
                 "group_acc")


def _parse_set(pairs, cfg):
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value; got {item!r}")
        key, raw = item.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        if "." in key:
            section, field_name = key.split(".", 1)
            if section not in ("sim", "train", "paths"):
                raise ConfigError(f"unknown config section {section!r}")
            cfg.setdefault(section, {})[field_name] = val
        elif key in ("repeats", "allow_missing"):
            cfg[key] = val
        else:
            raise ConfigError(f"unknown top-level config key {key!r}")
    return cfg


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                cfg = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{args.config}: invalid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    _parse_set(args.set, cfg)
    if args.seed is not None:
        cfg.setdefault("sim", {})["seed"] = args.seed
        cfg.setdefault("train", {})["seed"] = args.seed
    if args.out is not None:
        cfg.setdefault("paths", {})["out"] = args.out
    if getattr(args, "repeats", None) is not None:
        cfg["repeats"] = args.repeats
    for flag, key in (("dist", "dist_kind"), ("dist_weight", "dist_weight"),
                      ("dynamic_topics", "dynamic_topics_var")):
        if getattr(args, flag, None) is not None:
            cfg.setdefault("train", {})[key] = getattr(args, flag)
    if getattr(args, "allow_missing", False):
        cfg["allow_missing"] = True
    return cfg


def _section(cfg, name, cls):
    """The config block name as a cls (SimConfig or TrainConfig)."""
    if name not in cfg:
        raise ConfigError(f"this mode needs a '{name}' config block")
    try:
        return cls(**cfg[name])
    except TypeError as e:
        raise ConfigError(f"bad {name} config: {e}") from e


def _out_dir(cfg, *sub):
    path = os.path.join(cfg.get("paths", {}).get("out", "out"), *sub)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create directory {path}: {e}") from e
    return path


def _need_path(cfg, key):
    val = cfg.get("paths", {}).get(key)
    if not val:
        raise ConfigError(f"this mode needs paths.{key}")
    return val


def _simulate(out, scfg):
    """Simulate a corpus; write out/corpus/ and out/truth.json."""
    corpus, truth = simulate(scfg)
    save_corpus(corpus, os.path.join(out, "corpus"))
    save_truth(truth, os.path.join(out, "truth.json"))
    return corpus, truth


def _fit(out, corpus, tcfg):
    """Fit on corpus; write out/model.json."""
    if tcfg.dynamic_topics_var is not None:
        fitted = fit_dynamic_topics(corpus, tcfg)
    else:
        fitted = train(corpus, *default_init(corpus, tcfg), tcfg)
    save_model(fitted, os.path.join(out, "model.json"))
    return fitted


def _evaluate(out, fitted, corpus, truth, echo):
    """Score a fit; write out/metrics.json and out/topics_top_words.json."""
    report = full_report(fitted, corpus, truth)
    save_metrics(report, os.path.join(out, "metrics.json"), config_echo=echo)
    save_top_words(fitted.stage_topics(), fitted.vocab,
                   os.path.join(out, "topics_top_words.json"))
    return report


def _echo(cfg):
    return {k: cfg[k] for k in ("sim", "train", "repeats", "allow_missing")
            if k in cfg}


def cmd_simulate(cfg):
    scfg = _section(cfg, "sim", SimConfig)
    out = _out_dir(cfg)
    corpus, _ = _simulate(out, scfg)
    print(f"wrote {os.path.join(out, 'corpus')} ({corpus.n_subjects} subjects,"
          f" {corpus.n_stages} stages, {corpus.vocab_size} words)"
          f" and {out}/truth.json")
    return 0


def cmd_fit(cfg):
    tcfg = _section(cfg, "train", TrainConfig)
    corpus = load_corpus(_need_path(cfg, "corpus"),
                         allow_missing=bool(cfg.get("allow_missing", False)))
    out = _out_dir(cfg)
    fitted = _fit(out, corpus, tcfg)
    write_json({"log": fitted.log, "converged": fitted.converged},
                os.path.join(out, "train_log.json"), indent=2)
    last = fitted.log[-1]
    print(f"wrote {os.path.join(out, 'model.json')}; final loss"
          f" {last['loss']:.6f} after {last['epoch']} epochs"
          f" (converged={fitted.converged})")
    return 0


def cmd_eval(cfg):
    corpus = load_corpus(_need_path(cfg, "corpus"),
                         allow_missing=bool(cfg.get("allow_missing", False)))
    fitted = load_model(_need_path(cfg, "model"))
    truth_path = cfg.get("paths", {}).get("truth")
    truth = load_truth(truth_path) if truth_path else None
    report = _evaluate(_out_dir(cfg), fitted, corpus, truth, _echo(cfg))
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def cmd_infer(cfg):
    corpus = load_corpus(_need_path(cfg, "corpus"),
                         allow_missing=bool(cfg.get("allow_missing", False)))
    fitted = load_model(_need_path(cfg, "model"))
    theta = infer_proportions(fitted, corpus)
    path = os.path.join(_out_dir(cfg), "proportions.json")
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


def cmd_pipeline(cfg):
    repeats = check_setting(cfg.get("repeats", 1), "int", "repeats")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    base_sim = dict(cfg.get("sim", {}))
    base_train = dict(cfg.get("train", {}))
    base_seed = check_setting(
        base_sim.get("seed", base_train.get("seed", 0)), "int", "seed")
    runs = []
    for seed in range(base_seed, base_seed + repeats):
        sub = dict(cfg, sim=dict(base_sim, seed=seed),
                   train=dict(base_train, seed=seed))
        runs.append((seed, sub, _section(sub, "sim", SimConfig),
                     _section(sub, "train", TrainConfig)))
    out = _out_dir(cfg)
    per_seed = []
    for seed, sub, scfg, tcfg in runs:
        seed_dir = _out_dir(cfg, f"seed_{seed}")
        corpus, truth = _simulate(seed_dir, scfg)
        fitted = _fit(seed_dir, corpus, tcfg)
        report = _evaluate(seed_dir, fitted, corpus, truth, _echo(sub))
        row = dict(report.to_dict(), seed=seed)
        del row["permutations"]
        per_seed.append(row)
        print(f"seed {seed}: " + json.dumps(
            {k: row[k] for k in METRIC_FIELDS}, sort_keys=True))
    mean, se = _aggregate(per_seed)
    path = os.path.join(out, "summary.json")
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
    sp.add_argument("--allow-missing", action="store_true",
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
        cfg = _load_config(args)
        return _COMMANDS[args.mode](cfg)
    except LongtopicError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
