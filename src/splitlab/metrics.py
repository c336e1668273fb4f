"""Shared evaluation: MAE/MSE pairs and the constant-mean baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MetricPair", "metric_pair", "mean_value_baseline"]


@dataclass(frozen=True)
class MetricPair:
    mae: float
    mse: float

    def __post_init__(self):
        if not (np.isfinite(self.mae) and np.isfinite(self.mse)):
            raise ValueError("metrics must be finite")
        if self.mae < 0 or self.mse < 0:
            raise ValueError("metrics must be >= 0")


def metric_pair(pred: np.ndarray, truth: np.ndarray) -> MetricPair:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    diff = pred - truth
    return MetricPair(float(np.abs(diff).mean()), float((diff ** 2).mean()))


def mean_value_baseline(train_labels: np.ndarray, eval_labels: np.ndarray) -> MetricPair:
    """Predict the training-label mean everywhere; a model doing worse than
    this is considered ineffective."""
    train_labels = np.asarray(train_labels, dtype=np.float64)
    eval_labels = np.asarray(eval_labels, dtype=np.float64)
    if train_labels.size == 0 or eval_labels.size == 0:
        raise ValueError("empty input")
    prediction = np.full_like(eval_labels, train_labels.mean())
    return metric_pair(prediction, eval_labels)
