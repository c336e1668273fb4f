"""Fully-connected networks and the Adam optimizer.

Networks are stacks of (weight, bias, activation) layers used in three roles:
the feature party's bottom model, the label party's top model, and the
attacker's surrogate. Hidden layers use the configured activation; the final
layer is always linear (regression output). Parameters live in plain float64
arrays; for a differentiation step the network is attached to a tape, which
registers leaf tensors for every parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autograd import (
    ACTIVATIONS,
    AutogradError,
    Tape,
    Tensor,
    activation as apply_activation,
    add_bias,
    constant,
    matmul,
)

__all__ = ["Layer", "FcNetwork", "build_network", "Adam", "save_checkpoint", "load_checkpoint"]


@dataclass
class Layer:
    weight: np.ndarray  # in_dim x out_dim
    bias: np.ndarray    # 1 x out_dim
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (1, self.weight.shape[1]):
            raise ValueError(f"layer shapes {self.weight.shape} / {self.bias.shape} inconsistent")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")


class FcNetwork:
    """A chain of fully-connected layers; consecutive dims must match."""

    def __init__(self, layers: list[Layer], role: str = ""):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ValueError("consecutive layer dims do not chain")
        self.layers = layers
        self.role = role
        self._handles: list[Tensor] | None = None

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    @property
    def dims(self) -> list[int]:
        return [self.in_dim] + [l.weight.shape[1] for l in self.layers]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def set_parameters(self, arrays: list[np.ndarray]) -> None:
        if len(arrays) != 2 * len(self.layers):
            raise ValueError("parameter count mismatch")
        for i, layer in enumerate(self.layers):
            w, b = arrays[2 * i], arrays[2 * i + 1]
            if w.shape != layer.weight.shape or b.shape != layer.bias.shape:
                raise ValueError("parameter shape mismatch")
            layer.weight = np.asarray(w, dtype=np.float64)
            layer.bias = np.asarray(b, dtype=np.float64)

    def attach(self, tape: Tape) -> list[Tensor]:
        """Register every parameter as a leaf on the tape; returns the handles
        (weight, bias, weight, bias, ...) in layer order."""
        handles = []
        for layer in self.layers:
            handles.append(tape.leaf(layer.weight))
            handles.append(tape.leaf(layer.bias))
        self._handles = handles
        return handles

    def detach(self) -> None:
        self._handles = None

    def forward(self, x: Tensor) -> Tensor:
        """Taped forward pass. Uses the attached parameter leaves when present
        so gradients w.r.t. the parameters can be requested; otherwise the
        parameters enter as constants."""
        if x.cols != self.in_dim:
            raise AutogradError(f"input has {x.cols} columns, network expects {self.in_dim}")
        h = x
        for i, layer in enumerate(self.layers):
            if self._handles is not None:
                w, b = self._handles[2 * i], self._handles[2 * i + 1]
            else:
                w, b = constant(layer.weight), constant(layer.bias)
            h = add_bias(matmul(h, w), b)
            h = apply_activation(h, layer.activation)
        return h

    def forward_values(self, x: np.ndarray) -> np.ndarray:
        """Plain numpy forward pass (no tape); same arithmetic as forward()."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.in_dim:
            raise ValueError(f"input shape {h.shape} incompatible with in_dim {self.in_dim}")
        for layer in self.layers:
            h = h @ layer.weight + layer.bias
            if layer.activation == "relu":
                h = np.maximum(h, 0.0)
            elif layer.activation == "tanh":
                h = np.tanh(h)
        return h

    def copy(self, role: str | None = None) -> "FcNetwork":
        layers = [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        return FcNetwork(layers, role=self.role if role is None else role)


def build_network(dims: list[int], activation: str = "relu", seed: int = 0,
                  role: str = "") -> FcNetwork:
    """Glorot-uniform weights, zero biases; hidden layers use `activation`,
    the last layer is linear. Deterministic for a fixed seed."""
    if len(dims) < 2:
        raise ValueError("need at least [in_dim, out_dim]")
    if any(d < 1 for d in dims):
        raise ValueError("all layer dims must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E]))
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        act = activation if i < len(dims) - 2 else "identity"
        layers.append(Layer(w, np.zeros((1, fan_out)), act))
    return FcNetwork(layers, role=role)


class Adam:
    """Standard Adam with bias correction over a fixed list of parameters."""

    def __init__(self, shapes: list[tuple[int, int]], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.step_count = 0

    @classmethod
    def for_network(cls, net: FcNetwork, lr: float = 0.01, **kw) -> "Adam":
        return cls([p.shape for p in net.parameters()], lr=lr, **kw)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        """One update; returns the new parameter arrays (inputs untouched)."""
        if len(params) != len(self.m):
            raise ValueError("parameter count does not match optimizer state")
        self.step_count += 1
        t = self.step_count
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} vs parameter {p.shape}")
            if not np.isfinite(g).all():
                raise ValueError("non-finite gradient")
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon))
        return out


def save_checkpoint(net: FcNetwork, path) -> None:
    """Structured-text (JSON) checkpoint: dims, activations, row-major params."""
    payload = {
        "role": net.role,
        "layers": [
            {
                "in_dim": l.weight.shape[0],
                "out_dim": l.weight.shape[1],
                "activation": l.activation,
                "weight": l.weight.reshape(-1).tolist(),
                "bias": l.bias.reshape(-1).tolist(),
            }
            for l in net.layers
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _parse_layer(spec: dict) -> Layer:
    in_dim, out_dim = int(spec["in_dim"]), int(spec["out_dim"])
    arrays = []
    for name, shape in (("weight", (in_dim, out_dim)), ("bias", (1, out_dim))):
        arr = np.array(spec[name], dtype=np.float64)
        if arr.size != shape[0] * shape[1]:
            raise ValueError(f"'{name}' has {arr.size} values, expected {shape[0]} x {shape[1]}")
        arrays.append(arr.reshape(shape))
    return Layer(*arrays, str(spec["activation"]))


def load_checkpoint(path) -> FcNetwork:
    """Read a checkpoint written by save_checkpoint. A malformed file raises
    ValueError naming the path and, where it applies, the layer and field."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("layers"), list):
        raise ValueError(f"{path}: checkpoint has no 'layers' list")
    layers = []
    for i, spec in enumerate(payload["layers"]):
        try:
            layers.append(_parse_layer(spec))
        except KeyError as exc:
            raise ValueError(f"{path}: layer {i}: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: layer {i}: {exc}") from exc
    try:
        return FcNetwork(layers, role=payload.get("role", ""))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
