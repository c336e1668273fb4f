"""Split-learning label-privacy laboratory.

A two-party split-learning simulator for regression together with the
label-inference attack that works from recorded cut-layer traffic, the
label-party defenses (noise, gradient compression, random and adaptive label
extension), and an experiment harness that measures original-task versus
attack-task error tradeoffs.
"""

from .autograd import Tape, Tensor, backward
from .attack import AttackConfig, AttackResult, run_attack
from .data import (
    Dataset,
    LeakedSet,
    load_csv,
    sample_leaked,
    split_standardize,
    synth_regression,
)
from .defense import (
    AdaptiveLabelExtension,
    GradientCompression,
    GradientNoise,
    LabelNoise,
    NoDefense,
    RandomLabelExtension,
    compress_gradient,
    extend_labels_random,
    noise_gradient,
    noise_labels,
    sufficiency_check,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    emit_results,
    run_experiment,
    sweep_defense,
    sweep_extension_dims,
)
from .metrics import MetricPair, mean_value_baseline, metric_pair
from .nn import Adam, FcNetwork, build_network, load_checkpoint, save_checkpoint
from .protocol import SplitSession, Transcript, predict, train_split

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "backward",
    "AttackConfig", "AttackResult", "run_attack",
    "Dataset", "LeakedSet", "load_csv", "sample_leaked", "split_standardize",
    "synth_regression",
    "AdaptiveLabelExtension", "GradientCompression", "GradientNoise",
    "LabelNoise", "NoDefense", "RandomLabelExtension",
    "compress_gradient", "extend_labels_random", "noise_gradient",
    "noise_labels", "sufficiency_check",
    "ExperimentConfig", "ExperimentResult", "emit_results", "run_experiment",
    "sweep_defense", "sweep_extension_dims",
    "MetricPair", "mean_value_baseline", "metric_pair",
    "Adam", "FcNetwork", "build_network", "load_checkpoint", "save_checkpoint",
    "SplitSession", "Transcript", "predict", "train_split",
]
