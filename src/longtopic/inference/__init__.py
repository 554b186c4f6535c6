"""Variational inference: amortized encoders, the longitudinal objective with
exact hand-derived gradients, the training loop, and the per-stage topic
extension."""

from .dynamic import fit_dynamic_topics
from .loss import Batch, CorpusArrays, LossResult, longitudinal_loss
from .networks import EncoderParams, StageEncoder
from .terms import DISTANCE_KINDS
from .trainer import (
    FittedModel,
    TrainConfig,
    default_init,
    encode_corpus,
    infer_proportions,
    load_model,
    param_registry,
    save_model,
    train,
)

__all__ = [
    "Batch",
    "CorpusArrays",
    "DISTANCE_KINDS",
    "EncoderParams",
    "FittedModel",
    "LossResult",
    "StageEncoder",
    "TrainConfig",
    "default_init",
    "encode_corpus",
    "fit_dynamic_topics",
    "infer_proportions",
    "load_model",
    "longitudinal_loss",
    "param_registry",
    "save_model",
    "train",
]
