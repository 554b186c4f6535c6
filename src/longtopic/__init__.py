"""Longitudinal heterogeneous topic modeling.

Documents arrive on a subject x stage grid with covariates and a group label;
topic proportions evolve through a learned per-stage transition while the
topics themselves stay time-consistent (or drift, optionally). Inference is
amortized variational with reparameterized gradients, plus a counterfactual
group-separation term. See the README for the CLI experiment runner.
"""

from .corpus import Corpus, load_corpus, save_corpus
from .errors import (
    ConfigError,
    DegenerateDesign,
    DivergedError,
    DuplicateDocument,
    FormatError,
    IoError,
    LongtopicError,
    MissingDocument,
    MissingLabel,
    NumericError,
    ShapeError,
    TooManyTopics,
    UnknownDistance,
    VocabMismatch,
)
from .evaluate import (
    MetricsReport,
    align_topics,
    dominant_accuracy,
    empirical_kl,
    full_report,
    group_accuracy,
    perplexity,
    umass_coherence,
)
from .inference.dynamic import fit_dynamic_topics
from .inference.loss import longitudinal_loss
from .inference.trainer import (
    TrainConfig,
    default_init,
    encode_corpus,
    infer_proportions,
    load_model,
    save_model,
    train,
)
from .model import (
    GenerativeParams,
    TransitionModel,
    column_softmax,
    softmax,
)
from .simulate import GroundTruth, SimConfig, load_truth, save_truth, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Corpus",
    "DegenerateDesign",
    "DivergedError",
    "DuplicateDocument",
    "FormatError",
    "GenerativeParams",
    "GroundTruth",
    "IoError",
    "LongtopicError",
    "MetricsReport",
    "MissingDocument",
    "MissingLabel",
    "NumericError",
    "ShapeError",
    "SimConfig",
    "TooManyTopics",
    "TrainConfig",
    "TransitionModel",
    "UnknownDistance",
    "VocabMismatch",
    "align_topics",
    "column_softmax",
    "default_init",
    "dominant_accuracy",
    "empirical_kl",
    "encode_corpus",
    "fit_dynamic_topics",
    "full_report",
    "group_accuracy",
    "infer_proportions",
    "load_corpus",
    "load_model",
    "load_truth",
    "longitudinal_loss",
    "perplexity",
    "save_corpus",
    "save_model",
    "save_truth",
    "simulate",
    "softmax",
    "train",
    "umass_coherence",
]
