"""Label-party defenses against label inference.

Two families:
  - perturbation of what crosses the wire: additive label/gradient noise and
    top-k gradient sparsification,
  - label extension: the scalar label hides at a secret column of a wider
    target matrix, either drawn once at random (random extension) or taken
    from the outputs of a snapshot of the top model made at the start of
    each epoch (adaptive extension).

All functions are pure: inputs are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .nn import FcNetwork

__all__ = [
    "NoDefense",
    "LabelNoise",
    "GradientNoise",
    "GradientCompression",
    "RandomLabelExtension",
    "AdaptiveLabelExtension",
    "Defense",
    "ExtendedLabels",
    "SufficiencyReport",
    "noise_labels",
    "noise_gradient",
    "batch_noise_seed",
    "compress_gradient",
    "extend_labels_random",
    "adaptive_targets",
    "sufficiency_check",
    "defense_from_dict",
    "defense_to_dict",
    "target_dim",
    "is_extension",
]

NOISE_DISTRIBUTIONS = ("laplace", "gaussian")


@dataclass(frozen=True)
class NoDefense:
    pass


@dataclass(frozen=True)
class LabelNoise:
    scale: float = 1.0
    distribution: str = "laplace"

    def __post_init__(self):
        _check_noise(self.scale, self.distribution)


@dataclass(frozen=True)
class GradientNoise:
    scale: float = 1.0
    distribution: str = "laplace"

    def __post_init__(self):
        _check_noise(self.scale, self.distribution)


@dataclass(frozen=True)
class GradientCompression:
    keep_rate: float = 0.5

    def __post_init__(self):
        if not 0 < self.keep_rate <= 1:
            raise ValueError(f"keep_rate must be in (0, 1], got {self.keep_rate}")


@dataclass(frozen=True)
class RandomLabelExtension:
    """Labels become dims-wide Gaussian vectors; column label_index holds the
    true label. Drawn once before training."""

    dims: int
    label_index: int
    noise_std: float = 1.0

    def __post_init__(self):
        _check_extension(self.dims, self.label_index, self.noise_std)


@dataclass(frozen=True)
class AdaptiveLabelExtension:
    """Like the random extension, but the non-label columns are the outputs
    of a snapshot of the top model taken at the start of each epoch, so at
    that moment only the label column produces training signal. noise_std
    sets the pre-training draw that fixes the top model's initial output
    width."""

    dims: int
    label_index: int
    noise_std: float = 1.0

    def __post_init__(self):
        _check_extension(self.dims, self.label_index, self.noise_std)


Defense = Union[NoDefense, LabelNoise, GradientNoise, GradientCompression,
                RandomLabelExtension, AdaptiveLabelExtension]


def _check_noise(scale, distribution):
    if scale < 0:
        raise ValueError(f"noise scale must be >= 0, got {scale}")
    if distribution not in NOISE_DISTRIBUTIONS:
        raise ValueError(f"distribution must be one of {NOISE_DISTRIBUTIONS}")


def _check_extension(dims, label_index, noise_std):
    if dims < 1:
        raise ValueError(f"extension dims must be >= 1, got {dims}")
    if not 0 <= label_index < dims:
        raise ValueError(f"label_index {label_index} out of range for dims {dims}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")


def is_extension(defense: Defense) -> bool:
    return isinstance(defense, (RandomLabelExtension, AdaptiveLabelExtension))


def target_dim(defense: Defense) -> int:
    """Output width the top model must have under this defense."""
    return defense.dims if is_extension(defense) else 1


@dataclass(frozen=True)
class ExtendedLabels:
    matrix: np.ndarray  # n x dims
    label_index: int

    def __post_init__(self):
        if np.isnan(self.matrix).any():
            raise ValueError("extended labels contain NaN")


# ------------------------------------------------------------- perturbations

def _draw_noise(shape, distribution: str, scale: float, rng) -> np.ndarray:
    if distribution == "laplace":
        return rng.laplace(scale=scale, size=shape)
    if distribution == "gaussian":
        return rng.normal(scale=scale, size=shape)
    raise ValueError(f"distribution must be one of {NOISE_DISTRIBUTIONS}")


def noise_labels(y: np.ndarray, distribution: str, scale: float, seed: int) -> np.ndarray:
    """y plus i.i.d. noise; scale 0 returns the values unchanged."""
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if scale == 0:
        return y.copy()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x40]))
    return y + _draw_noise(y.shape, distribution, scale, rng)


def noise_gradient(g: np.ndarray, distribution: str, scale: float, seed: int) -> np.ndarray:
    """Same mechanism as noise_labels, applied to a per-batch gradient; the
    caller derives a distinct seed per (session, epoch, batch)."""
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if scale == 0:
        return g.copy()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6D]))
    return g + _draw_noise(g.shape, distribution, scale, rng)


def batch_noise_seed(session_seed: int, epoch: int, batch_no: int) -> int:
    """Deterministic per-batch seed; distinct batches get distinct streams."""
    ss = np.random.SeedSequence([int(session_seed), int(epoch), int(batch_no)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def compress_gradient(g: np.ndarray, keep_rate: float) -> np.ndarray:
    """Keep the floor(keep_rate * size) largest-magnitude entries, zero the
    rest. Magnitude ties are resolved toward the lower flat index."""
    if not 0 < keep_rate <= 1:
        raise ValueError(f"keep_rate must be in (0, 1], got {keep_rate}")
    flat = g.reshape(-1)
    keep = int(np.floor(keep_rate * flat.size))
    if keep >= flat.size:
        return g.copy()
    out = np.zeros_like(flat)
    # stable sort on -|g|: equal magnitudes stay in flat-index order
    order = np.argsort(-np.abs(flat), kind="stable")
    kept = order[:keep]
    out[kept] = flat[kept]
    return out.reshape(g.shape)


# ----------------------------------------------------------- label extension

def extend_labels_random(y: np.ndarray, dims: int, label_index: int,
                         noise_std: float, seed: int) -> ExtendedLabels:
    """Fixed n x dims Gaussian matrix with the true labels at label_index."""
    _check_extension(dims, label_index, noise_std)
    if y.ndim != 2 or y.shape[1] != 1:
        raise ValueError(f"labels must be n x 1, got {y.shape}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1E]))
    matrix = rng.normal(scale=noise_std, size=(y.shape[0], dims))
    matrix[:, label_index] = y[:, 0]
    return ExtendedLabels(matrix, label_index)


def adaptive_targets(top: FcNetwork, cut_values: np.ndarray, y_batch: np.ndarray,
                     label_index) -> np.ndarray:
    """Targets from `top`'s own outputs with the true labels written into
    label_index. The trainer passes a snapshot of the top model taken at the
    start of the epoch, so the targets stay fixed within the epoch while the
    live model moves. Returned as plain values (a constant for the
    subsequent loss), so every non-label column contributes zero loss for
    the model they were formed from.

    For a lane stack of top models, cut_values and y_batch carry the lane
    axis and label_index holds one column per lane."""
    index = np.asarray(label_index)
    if not ((0 <= index) & (index < top.out_dim)).all():
        raise ValueError(f"label_index {label_index} out of range for output dim {top.out_dim}")
    if y_batch.shape != (*cut_values.shape[:-1], 1):
        raise ValueError(f"labels {y_batch.shape} do not match batch of {cut_values.shape[-2]}")
    targets = top.forward_values(cut_values)
    if targets.ndim == 2:
        targets[:, label_index] = y_batch[:, 0]
    else:
        targets[np.arange(len(targets)), :, index] = y_batch[..., 0]
    return targets


# -------------------------------------------------- underdetermination check

@dataclass(frozen=True)
class SufficiencyReport:
    unknowns: int
    equations: int
    underdetermined: bool


def sufficiency_check(dims: int, cut_dim: int, n_samples: int) -> SufficiencyReport:
    """Count scalar unknowns vs. scalar equations available to an attacker
    matching recorded cut-layer gradients against a one-linear-layer model.

    Unknowns: dims biases + dims*cut_dim weights + dims dummy labels per
    sample. Equations: cut_dim gradient entries per sample. With
    dims >= cut_dim the system is underdetermined for every sample count.
    """
    if dims < 1 or cut_dim < 1 or n_samples < 1:
        raise ValueError("all arguments must be >= 1")
    unknowns = dims + dims * cut_dim + dims * n_samples
    equations = cut_dim * n_samples
    return SufficiencyReport(unknowns, equations, equations < unknowns)


# -------------------------------------------------------------- config plumbing

_NAMES = {
    "none": NoDefense,
    "label_noise": LabelNoise,
    "gradient_noise": GradientNoise,
    "gradient_compression": GradientCompression,
    "random_extension": RandomLabelExtension,
    "adaptive_extension": AdaptiveLabelExtension,
}
_CANONICAL = {cls: name for name, cls in _NAMES.items()}


def defense_from_dict(spec: dict, cut_dim: int, seed: int = 0) -> Defense:
    """Build a defense from `{"name": ..., <params>}`. Extension defenses
    default to dims = cut_dim and a secret label_index drawn from the seed."""
    spec = dict(spec)
    raw = str(spec.pop("name", "none")).replace("-", "_").lower()
    if raw not in _NAMES:
        raise ValueError(f"unknown defense '{raw}' (expected one of {sorted(_NAMES)})")
    cls = _NAMES[raw]
    if cls in (RandomLabelExtension, AdaptiveLabelExtension):
        dims = int(spec.pop("dims", cut_dim))
        if "label_index" in spec:
            label_index = int(spec.pop("label_index"))
        else:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x51]))
            label_index = int(rng.integers(dims))
        noise_std = float(spec.pop("noise_std", 1.0))
        if spec:
            raise ValueError(f"unexpected defense parameters {sorted(spec)}")
        return cls(dims=dims, label_index=label_index, noise_std=noise_std)
    kwargs = {}
    if cls in (LabelNoise, GradientNoise):
        if "scale" in spec:
            kwargs["scale"] = float(spec.pop("scale"))
        if "distribution" in spec:
            kwargs["distribution"] = str(spec.pop("distribution"))
    elif cls is GradientCompression and "keep_rate" in spec:
        kwargs["keep_rate"] = float(spec.pop("keep_rate"))
    if spec:
        raise ValueError(f"unexpected defense parameters {sorted(spec)}")
    return cls(**kwargs)


def defense_to_dict(defense: Defense) -> dict:
    out = {"name": _CANONICAL[type(defense)]}
    if isinstance(defense, (LabelNoise, GradientNoise)):
        out.update(scale=defense.scale, distribution=defense.distribution)
    elif isinstance(defense, GradientCompression):
        out.update(keep_rate=defense.keep_rate)
    elif is_extension(defense):
        out.update(dims=defense.dims, label_index=defense.label_index,
                   noise_std=defense.noise_std)
    return out
