"""Variational inference: amortized encoders, the longitudinal objective with
exact hand-derived gradients, the training loop, and the per-stage topic
extension."""

from .dynamic import fit_dynamic_topics
from .loss import longitudinal_loss
from .trainer import (
    TrainConfig,
    default_init,
    encode_corpus,
    infer_proportions,
    load_model,
    save_model,
    train,
)

__all__ = [
    "TrainConfig",
    "default_init",
    "encode_corpus",
    "fit_dynamic_topics",
    "infer_proportions",
    "load_model",
    "longitudinal_loss",
    "save_model",
    "train",
]
