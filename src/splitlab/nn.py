"""Fully-connected networks and the two Adam optimizers, which share one
update rule (Kingma & Ba, arXiv 1412.6980) and its constants ADAM_BETA1,
ADAM_BETA2 and ADAM_EPSILON.

Networks are stacks of (weight, bias, activation) layers used in three roles:
the feature party's bottom model, the label party's top model, and the
attacker's surrogate. Hidden layers use the configured activation; the final
layer is always linear (regression output). A taped forward pass is a
function of its inputs: ``attach(tape)`` registers a leaf for every parameter
on the tape and returns the leaves, ``forward(x, params)`` computes over the
leaves it is given, and the network keeps nothing of any tape.

Flat store. A network keeps all of its parameters in one contiguous float64
buffer, ``FcNetwork.flat``, parameter by parameter in layer order (weight,
bias, weight, bias, ...), each parameter's entries row-major. Every
``layer.weight`` and ``layer.bias`` is a view into that buffer: an in-place
write through a view is a write to the network, assigning to
``layer.weight`` copies into the view, and ``set_parameters`` copies into
the views too. The buffer is never rebound once the network is built.
``Adam`` keeps its moments as flat buffers of the same layout and updates a
network's buffer in place from one flat gradient of that layout (a step plan
hands back a network's gradients so), one fused pass over all parameters per
step, with preallocated work arrays.

Several networks can share one buffer (``stack_joined``): each network's
buffer is then a block of it, the blocks back to back, and one ``Adam`` over
the joint layout (the shapes of every network's parameters, in block order)
updates all of them in one pass from one gradient of that layout. The split
trainer keeps the top and the bottom model so, top first.

Networks of the same architecture can be stacked along a leading lane axis
(``stack_networks``): every parameter becomes a (lanes, rows, cols) array
(still one block of the flat buffer, so the buffer holds each parameter for
all lanes before the next parameter) and one pass computes every lane's
network on its own lane of the input. An ``Adam`` over the stacked shapes
steps every lane as a per-lane ``Adam`` would, the lanes sharing its step
count; the helpers at the end of the module stack and split per-lane arrays
and refuse lanes whose shared settings differ (``check_lock_step``).
Every lane helper keeps one rule for a single item: stacking one network or
array returns it as it is, and splitting one without a lane axis returns it
alone in a list, so one lane computes on the very objects it would use
alone.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .autograd import (
    ACTIVATIONS,
    AutogradError,
    Tape,
    Tensor,
    activation as apply_activation,
    add_bias,
    matmul,
)

__all__ = ["Layer", "FcNetwork", "build_network", "stack_networks", "stack_joined", "Adam",
           "RowwiseAdam", "ADAM_BETA1", "ADAM_BETA2", "ADAM_EPSILON", "save_checkpoint",
           "load_checkpoint", "stack_lanes", "split_lanes", "gather_rows", "check_lock_step"]


class Layer:
    """One fully-connected layer: weight (in_dim x out_dim, or lanes x in_dim
    x out_dim), bias (1 x out_dim, or lanes x 1 x out_dim) and activation.

    A layer copies the arrays it is given; once a network adopts it, they
    are views into the network's flat buffer. Assigning to ``weight`` or
    ``bias`` copies the new values into the existing array, so the network
    sees them."""

    __slots__ = ("_weight", "_bias", "activation")

    def __init__(self, weight, bias, activation: str):
        self._weight = weight = np.array(weight, dtype=np.float64)
        self._bias = bias = np.array(bias, dtype=np.float64)
        self.activation = activation
        w = weight.shape
        if weight.ndim not in (2, 3) or bias.shape != (*w[:-2], 1, w[-1]):
            raise ValueError(f"layer shapes {weight.shape} / {bias.shape} inconsistent")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'")
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def weight(self) -> np.ndarray:
        return self._weight

    @weight.setter
    def weight(self, values) -> None:
        _copy_into(self._weight, values, "weight")

    @property
    def bias(self) -> np.ndarray:
        return self._bias

    @bias.setter
    def bias(self, values) -> None:
        _copy_into(self._bias, values, "bias")

    def _adopt(self, weight: np.ndarray, bias: np.ndarray) -> None:
        """Move the parameters into the given views of a network's buffer."""
        weight[...] = self._weight
        bias[...] = self._bias
        self._weight, self._bias = weight, bias


def _copy_into(target: np.ndarray, values, what: str) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != target.shape:
        raise ValueError(f"{what} shape {values.shape} vs {target.shape}")
    target[...] = values


def _param_views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """The consecutive blocks of a flat buffer, reshaped to `shapes`."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class FcNetwork:
    """A chain of fully-connected layers; consecutive dims must match. The
    network adopts its layers: their parameters move into its flat buffer
    (see the module docstring)."""

    def __init__(self, layers: list[Layer], role: str = ""):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.weight.shape[-1] != nxt.weight.shape[-2]:
                raise ValueError("consecutive layer dims do not chain")
            if prev.weight.shape[:-2] != nxt.weight.shape[:-2]:
                raise ValueError("layers disagree on the lane axis")
        self.layers = layers
        self.role = role
        self._place(np.empty(sum(p.size for p in self.parameters())))

    def _place(self, flat: np.ndarray) -> None:
        """Move the parameters into `flat`, which becomes the buffer."""
        views = _param_views(flat, [p.shape for p in self.parameters()])
        for layer, weight, bias in zip(self.layers, views[::2], views[1::2]):
            layer._adopt(weight, bias)
        self.flat = flat

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[-1]

    @property
    def dims(self) -> list[int]:
        return [self.in_dim] + [l.weight.shape[-1] for l in self.layers]

    @property
    def architecture(self) -> str:
        """The widths and the layers' activations, which networks stacked
        together share: "[4, 5, 1] (relu, identity)"."""
        return f"{self.dims} ({', '.join(l.activation for l in self.layers)})"

    @property
    def lanes(self) -> int | None:
        """Number of stacked lanes, or None for a plain network."""
        w = self.layers[0].weight
        return w.shape[0] if w.ndim == 3 else None

    def split(self) -> list["FcNetwork"]:
        """The plain networks of a lane stack, as copies, in lane order; a
        plain network is returned alone."""
        if self.lanes is None:
            return [self]
        return [FcNetwork([Layer(l.weight[r], l.bias[r], l.activation) for l in self.layers],
                          role=self.role)
                for r in range(self.lanes)]

    def parameters(self) -> list[np.ndarray]:
        """The parameter views into the flat buffer: weight, bias, weight,
        bias, ... in layer order."""
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def set_parameters(self, arrays: Sequence[np.ndarray]) -> None:
        """Copy new values into the parameters, in parameters() order."""
        if len(arrays) != 2 * len(self.layers):
            raise ValueError("parameter count mismatch")
        for i, layer in enumerate(self.layers):
            w, b = arrays[2 * i], arrays[2 * i + 1]
            if w.shape != layer.weight.shape or b.shape != layer.bias.shape:
                raise ValueError("parameter shape mismatch")
        for target, values in zip(self.parameters(), arrays):
            target[...] = values

    def attach(self, tape: Tape) -> list[Tensor]:
        """Register every parameter as a leaf on the tape and return the
        leaves (weight, bias, weight, bias, ...) in layer order: the `params`
        of forward(). The network keeps nothing of the tape, so it can be
        attached to any number of tapes, each getting leaves of its own."""
        return [tape.leaf(p) for p in self.parameters()]

    def forward(self, x: Tensor, params: Sequence[Tensor]) -> Tensor:
        """Taped forward pass over the parameter leaves `params`, as attach()
        returns them, so gradients w.r.t. the parameters can be requested;
        the layers give only their activations."""
        if len(params) != 2 * len(self.layers):
            raise AutogradError(f"{len(params)} parameter leaves given, the network's "
                                f"{len(self.layers)} layers take {2 * len(self.layers)}")
        if x.cols != self.in_dim:
            raise AutogradError(f"input has {x.cols} columns, network expects {self.in_dim}")
        h = x
        for layer, w, b in zip(self.layers, params[::2], params[1::2]):
            h = apply_activation(add_bias(matmul(h, w), b), layer.activation)
        return h

    def forward_values(self, x: np.ndarray) -> np.ndarray:
        """Plain numpy forward pass (no tape); same arithmetic as forward().
        A lane stack takes one input per lane.

        Each layer's product is a new array, and the bias and the activation
        are applied to it in place, so a layer makes one array, not three,
        and the input is never written."""
        h = np.asarray(x, dtype=np.float64)
        lead = self.layers[0].weight.shape[:-2]
        if h.ndim != 2 + len(lead) or h.shape[:-2] != lead or h.shape[-1] != self.in_dim:
            raise ValueError(f"input shape {h.shape} incompatible with in_dim {self.in_dim}")
        for layer in self.layers:
            h = h @ layer.weight
            h += layer.bias
            if layer.activation == "relu":
                np.maximum(h, 0.0, out=h)
            elif layer.activation == "tanh":
                np.tanh(h, out=h)
        return h

    def copy(self, role: str | None = None) -> "FcNetwork":
        layers = [Layer(l.weight, l.bias, l.activation) for l in self.layers]
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


def stack_networks(nets: list[FcNetwork]) -> FcNetwork:
    """One lane stack of plain networks of the same architecture, lane r
    holding a copy of nets[r]'s parameters; a single network is returned as
    it is."""
    if len(nets) == 1:
        return nets[0]
    first = nets[0]
    for net in nets:
        if net.lanes is not None:
            raise ValueError("cannot stack networks that already have a lane axis")
        if net.architecture != first.architecture:
            raise ValueError(f"cannot stack networks {first.architecture} and "
                             f"{net.architecture}: architectures differ")
    layers = [Layer(np.stack([n.layers[i].weight for n in nets]),
                    np.stack([n.layers[i].bias for n in nets]), layer.activation)
              for i, layer in enumerate(first.layers)]
    return FcNetwork(layers, role=first.role)


def stack_joined(groups: Sequence[Sequence[FcNetwork]]) -> tuple[np.ndarray, list[FcNetwork]]:
    """One lane stack per group of plain networks, as stack_networks makes
    it but a new network even for a group of one, all over one flat buffer:
    each stack's buffer is a block of it, the blocks back to back in group
    order. Returns the buffer and the stacks; one Adam step over the buffer
    updates every stack."""
    stacks = [stack_networks(group) if len(group) > 1 else group[0].copy() for group in groups]
    flat = np.empty(sum(stack.flat.size for stack in stacks))
    start = 0
    for stack in stacks:
        stack._place(flat[start:start + stack.flat.size])
        start += stack.flat.size
    return flat, stacks


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


def _adam_update(m: np.ndarray, v: np.ndarray, grad: np.ndarray, t, lr: float,
                 move: np.ndarray, scratch: np.ndarray) -> None:
    """One Adam step at step count t (a number, or an array broadcast against
    grad): advance the moments m and v in place and write the move to
    subtract from the parameters into `move`. `scratch` is a work array of
    grad's shape. The operations run in the order of

        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        move = lr * (m / (1 - b1 ** t)) / (sqrt(v / (1 - b2 ** t)) + eps)

    so the results are those bytes."""
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(grad, 1 - ADAM_BETA1, out=scratch)
    np.add(m, scratch, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(grad, 1 - ADAM_BETA2, out=scratch)
    np.multiply(scratch, grad, out=scratch)
    np.add(v, scratch, out=v)
    np.divide(m, 1 - ADAM_BETA1 ** t, out=move)
    np.multiply(move, lr, out=move)
    np.divide(v, 1 - ADAM_BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.add(scratch, ADAM_EPSILON, out=scratch)
    np.divide(move, scratch, out=move)


class Adam:
    """Adam over a flat parameter buffer laid out as `shapes`, back to back:
    one network's, a lane stack's or several networks' joined by
    stack_joined (see the module docstring), with one step count. `m` and
    `v` are flat buffers of the same layout."""

    def __init__(self, shapes: Sequence[tuple[int, ...]], lr: float = 0.01):
        self.lr = float(lr)
        size = sum(math.prod(s) for s in shapes)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step_count = 0
        # work arrays of every step: the move and scratch
        self._work = np.empty((2, size))

    @classmethod
    def for_network(cls, net: FcNetwork, lr: float = 0.01) -> "Adam":
        return cls([p.shape for p in net.parameters()], lr=lr)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One update of a flat parameter buffer in place, from one flat
        gradient of the same layout, such as a step plan's gradient region.
        The gradient is not scanned for non-finite values: the backward pass
        or step plan that formed it has scanned it already."""
        if params.shape != self.m.shape or np.shape(grad) != self.m.shape:
            raise ValueError(f"parameter buffer of shape {params.shape} and gradient of shape "
                             f"{np.shape(grad)} do not match optimizer state of {self.m.size} "
                             "values")
        move, scratch = self._work
        self.step_count += 1
        _adam_update(self.m, self.v, grad, self.step_count, self.lr, move, scratch)
        np.subtract(params, move, out=params)


class RowwiseAdam:
    """Adam over the rows of one big matrix, where each step touches only a
    subset of rows. Rows keep individual step counts, so rows outside a batch
    are left exactly as they were. With a lane axis (shape lanes x n x k)
    each lane is its own matrix and a step takes one row subset per lane.

    Since each row's update reads only that row's count, moments and
    gradient, one step over the union of several disjoint row subsets equals
    one step per subset, byte for byte. The attack uses this: the records of
    a block share no row, so one step over the block's rows, with each
    record's gradient in its rows, ends the block."""

    def __init__(self, shape: tuple[int, ...], lr: float = 0.01):
        self.lr = float(lr)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.counts = np.zeros(shape[:-1], dtype=np.int64)

    def step(self, values: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
        """Update values[rows] in place; the rows of one lane are distinct.
        The gradient is not scanned for non-finite values: the backward pass
        or step plan that formed it has scanned it already."""
        if grad.shape != (*rows.shape, values.shape[-1]):
            raise ValueError(f"gradient shape {grad.shape} does not match rows")
        at = rows if rows.ndim == 1 else (np.arange(len(rows))[:, None], rows)
        counts = self.counts[at] + 1
        m, v = self.m[at], self.v[at]
        move, scratch = np.empty_like(grad), np.empty_like(grad)
        _adam_update(m, v, grad, counts[..., None].astype(np.float64), self.lr, move, scratch)
        self.counts[at], self.m[at], self.v[at] = counts, m, v
        values[at] -= move


def save_checkpoint(net: FcNetwork, path) -> None:
    """Structured-text (JSON) checkpoint: dims, activations, row-major params.
    A checkpoint holds one plain network; split a lane stack first."""
    if net.lanes is not None:
        raise ValueError("a checkpoint holds one network, not a lane stack")
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


# ------------------------------------------------------------------- lanes

def stack_lanes(arrays: list) -> np.ndarray:
    """Per-lane arrays (or numbers) as one array with a leading lane axis; a
    single lane is returned as it is, with no axis added."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def split_lanes(stacked: np.ndarray, lanes: int) -> list[np.ndarray]:
    """Inverse of stack_lanes: the per-lane views of a stacked array."""
    return [stacked] if lanes == 1 else list(stacked)


def gather_rows(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx of a table. A per-lane table (lanes x n x k) takes per-lane
    indices (lanes x batch); a shared table (n x k) takes either."""
    if table.ndim == 3:
        return table[np.arange(len(table))[:, None], idx]
    return table[idx]


def check_lock_step(settings: Sequence[dict], what: str, error: type[Exception]) -> None:
    """Refuse lanes that cannot run in lock-step: raise `error` at the first
    lane whose settings (one dict per lane, lane 0 first) differ from lane
    0's, naming the lane, the setting and both values, as "lane r: <what>
    need the same <setting>: A here, B in lane 0"."""
    shared = settings[0]
    for r, lane in enumerate(settings):
        for name, value in lane.items():
            if value != shared[name]:
                raise error(f"lane {r}: {what} need the same {name}: {value} here, "
                            f"{shared[name]} in lane 0")
