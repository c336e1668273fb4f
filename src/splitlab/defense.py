"""Label-party defenses against label inference.

Two families:
  - perturbation of what crosses the wire: additive label/gradient noise and
    top-k gradient sparsification,
  - label extension: the scalar label hides at a secret column of a wider
    target matrix, either drawn once at random (random extension) or taken
    from the outputs of a snapshot of the top model made at the start of
    each epoch (adaptive extension).

Each defense is a frozen dataclass of its parameters that owns its
behaviour through the members of `Defense`: its `name` in configs and
tables, the top model's `output_dim`, the `label_column` that predicts the
label, `target_table(labels, seed)`, the table of training targets made
before training (the labels themselves unless the defense draws one), and
two members defined only when their flag is set: `outgoing_gradient(grad,
seed, epoch, batch_no)`, the gradient one lane sends (`changes_gradient`),
and `snapshot_targets(...)`, one batch's targets from an epoch-start copy
of the top model (`uses_snapshot`). The trainer, the harness and the CLI
call nothing else. `defense_from_dict` and `defense_to_dict` convert a
defense to and from its config entry; `FIELD_PARSERS` holds the rules that
read every config value, the harness's `ExperimentConfig` included.

All functions are pure: inputs are never modified.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

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
]

NOISE_DISTRIBUTIONS = ("laplace", "gaussian")


class Defense:
    """The members every defense provides (see the module docstring); the
    defaults train a one-column top model on the plain labels and send the
    raw gradient."""

    name: ClassVar[str]
    output_dim = 1
    label_column = 0
    changes_gradient = False
    uses_snapshot = False

    def target_table(self, labels: np.ndarray, seed: int) -> np.ndarray:
        return labels


@dataclass(frozen=True)
class NoDefense(Defense):
    name = "none"


@dataclass(frozen=True)
class _Noise(Defense):
    scale: float = 1.0
    distribution: str = "laplace"

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"noise scale must be finite and >= 0, got {self.scale}")
        if self.distribution not in NOISE_DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {NOISE_DISTRIBUTIONS}")


@dataclass(frozen=True)
class LabelNoise(_Noise):
    name = "label_noise"

    def target_table(self, labels, seed):
        return noise_labels(labels, self.distribution, self.scale, _table_seed(seed, 0xA0))


@dataclass(frozen=True)
class GradientNoise(_Noise):
    name = "gradient_noise"
    changes_gradient = True

    def outgoing_gradient(self, grad, seed, epoch, batch_no):
        return noise_gradient(grad, self.distribution, self.scale,
                              batch_noise_seed(seed, epoch, batch_no))


@dataclass(frozen=True)
class GradientCompression(Defense):
    keep_rate: float = 0.5
    name = "gradient_compression"
    changes_gradient = True

    def __post_init__(self):
        if not (math.isfinite(self.keep_rate) and 0 < self.keep_rate <= 1):
            raise ValueError(f"keep_rate must be in (0, 1], got {self.keep_rate}")

    def outgoing_gradient(self, grad, seed, epoch, batch_no):
        return compress_gradient(grad, self.keep_rate)


@dataclass(frozen=True)
class _LabelExtension(Defense):
    dims: int
    label_index: int

    def __post_init__(self):
        _check_extension(self.dims, self.label_index)

    @property
    def output_dim(self) -> int:
        return self.dims

    @property
    def label_column(self) -> int:
        return self.label_index


@dataclass(frozen=True)
class RandomLabelExtension(_LabelExtension):
    """Labels become dims-wide Gaussian vectors of standard deviation
    noise_std; column label_index holds the true label. Drawn once before
    training."""

    noise_std: float = 1.0
    name = "random_extension"

    def __post_init__(self):
        super().__post_init__()
        _check_noise_std(self.noise_std)

    def target_table(self, labels, seed):
        return extend_labels_random(labels, self.dims, self.label_index, self.noise_std,
                                    _table_seed(seed, 0xE7))


@dataclass(frozen=True)
class AdaptiveLabelExtension(_LabelExtension):
    """Like the random extension, but the non-label columns are the outputs
    of a snapshot of the top model taken at the start of each epoch, so at
    that moment only the label column produces training signal.

    At a linear top (no hidden top layer, the lab's profiles) each output
    column has its own weights and bias, so the non-label columns never
    move: their targets equal their outputs at every step, their gradient
    is exactly zero, and every outgoing gradient is the label column's
    residual times that column's weights, exactly rank one. Only a hidden
    top layer, which the columns share, lets the live model drift from its
    snapshot. `PAPER.md` gives the paper's setup but not the rule of its
    adaptive extension, so this rule is the lab's own and is not checked
    against the paper."""

    name = "adaptive_extension"
    uses_snapshot = True

    @staticmethod
    def snapshot_targets(top: FcNetwork, cut_values: np.ndarray, y_batch: np.ndarray,
                         label_index) -> np.ndarray:
        """Targets from `top`'s own outputs with the true labels written into
        label_index. The trainer passes a snapshot of the top model taken at
        the start of the epoch, so the targets stay fixed within the epoch
        while the live model moves. Returned as plain values (a constant for
        the subsequent loss), so every non-label column contributes zero loss
        for the model they were formed from.

        For a lane stack of top models, cut_values and y_batch carry the lane
        axis and label_index holds one column per lane."""
        index = np.asarray(label_index)
        if not ((0 <= index) & (index < top.out_dim)).all():
            raise ValueError(
                f"label_index {label_index} out of range for output dim {top.out_dim}")
        if y_batch.shape != (*cut_values.shape[:-1], 1):
            raise ValueError(
                f"labels {y_batch.shape} do not match batch of {cut_values.shape[-2]}")
        targets = top.forward_values(cut_values)
        if targets.ndim == 2:
            targets[:, label_index] = y_batch[:, 0]
        else:
            targets[np.arange(len(targets)), :, index] = y_batch[..., 0]
        return targets


def _table_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _check_extension(dims, label_index):
    if dims < 1:
        raise ValueError(f"extension dims must be >= 1, got {dims}")
    if not 0 <= label_index < dims:
        raise ValueError(f"label_index {label_index} out of range for dims {dims}")


def _check_noise_std(noise_std):
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")


# ------------------------------------------------------------- perturbations

def noise_labels(y: np.ndarray, distribution: str, scale: float, seed: int) -> np.ndarray:
    """y plus i.i.d. noise; scale 0 returns the values unchanged."""
    return _add_noise(y, distribution, scale, seed, 0x40)


def noise_gradient(g: np.ndarray, distribution: str, scale: float, seed: int) -> np.ndarray:
    """Same mechanism as noise_labels, applied to a per-batch gradient; the
    caller derives a distinct seed per (session, epoch, batch)."""
    return _add_noise(g, distribution, scale, seed, 0x6D)


def _add_noise(values: np.ndarray, distribution: str, scale: float, seed: int,
               tag: int) -> np.ndarray:
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if scale == 0:
        return values.copy()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
    if distribution == "laplace":
        return values + rng.laplace(scale=scale, size=values.shape)
    if distribution == "gaussian":
        return values + rng.normal(scale=scale, size=values.shape)
    raise ValueError(f"distribution must be one of {NOISE_DISTRIBUTIONS}")


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
                         noise_std: float, seed: int) -> np.ndarray:
    """Fixed n x dims Gaussian matrix with the true labels at label_index."""
    _check_extension(dims, label_index)
    _check_noise_std(noise_std)
    if y.ndim != 2 or y.shape[1] != 1:
        raise ValueError(f"labels must be n x 1, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("labels must be finite")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1E]))
    matrix = rng.normal(scale=noise_std, size=(y.shape[0], dims))
    matrix[:, label_index] = y[:, 0]
    return matrix


# the adaptive extension's target rule, also callable on its own
adaptive_targets = AdaptiveLabelExtension.snapshot_targets


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

_NAMES = {cls.name: cls for cls in (NoDefense, LabelNoise, GradientNoise, GradientCompression,
                                    RandomLabelExtension, AdaptiveLabelExtension)}


def whole_number(value, what: str) -> int:
    """value as an int. A whole number (3 or 3.0) or a numeral string is
    accepted; a fraction, a boolean or anything else raises ValueError
    naming `what`, instead of being truncated."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return number


def _finite_real(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def _exactly(kind: type, noun: str):
    """A parser that takes only values of `kind` as they are."""
    def parse(value, what: str):
        if not isinstance(value, kind):
            raise ValueError(f"{what} must be {noun}, got {value!r}")
        return value
    return parse


def _optional(parse):
    """A parser that also takes None, as it is."""
    return lambda value, what: None if value is None else parse(value, what)


def _whole_numbers(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(whole_number(v, what) for v in value)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"'{what}' must be an object, got {value!r}")
    return dict(value)


# The parser of a config value by its dataclass field's annotation (a
# string, as annotations are postponed), called as parser(value, what): an
# int is a whole number and a float a finite real (neither a boolean), a bool
# a real boolean, a str a string, a `str | None` a string or None, a
# `str | int` a name or a whole-number index, a tuple of ints a list (or
# tuple) of whole numbers, a dict an object (copied).
# A refused value raises ValueError naming `what`.
FIELD_PARSERS = {
    "int": whole_number,
    "float": _finite_real,
    "bool": _exactly(bool, "true or false"),
    "str": _exactly(str, "a string"),
    "str | None": _optional(_exactly(str, "a string")),
    "str | int": lambda value, what: value if isinstance(value, str) else whole_number(value, what),
    "tuple[int, ...]": _whole_numbers,
    "dict": _object,
}


def defense_from_dict(spec: dict, cut_dim: int, seed: int = 0) -> Defense:
    """Build a defense from `{"name": ..., <params>}`. Each parameter is
    parsed by its field's type (see FIELD_PARSERS). Extension defenses default
    to dims = cut_dim and a secret label_index drawn from the seed."""
    if not isinstance(spec, dict):
        raise ValueError(f"a defense is an object with a name, got {spec!r}")
    params = dict(spec)
    raw = str(params.pop("name", "none")).replace("-", "_").lower()
    if raw not in _NAMES:
        raise ValueError(f"unknown defense '{raw}' (expected one of {sorted(_NAMES)})")
    cls = _NAMES[raw]
    kwargs = {}
    for f in fields(cls):
        if f.name in params:
            kwargs[f.name] = FIELD_PARSERS[f.type](params.pop(f.name), f.name)
        elif f.name == "dims":
            kwargs["dims"] = cut_dim
        elif f.name == "label_index":
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x51]))
            # a width below 1 is left for the class to reject by name
            kwargs["label_index"] = int(rng.integers(max(kwargs["dims"], 1)))
    if params:
        raise ValueError(f"unexpected defense parameters {sorted(params)}")
    return cls(**kwargs)


def defense_to_dict(defense: Defense) -> dict:
    """The config entry defense_from_dict reads back: name and parameters."""
    return {"name": defense.name, **asdict(defense)}
