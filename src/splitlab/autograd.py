"""Dense 2-D tensors with reverse-mode differentiation on a re-entrant tape.

Every tensor is a rows x cols float64 matrix, optionally stacked along a
leading lane axis as a (lanes, rows, cols) array. Lanes are independent
problems computed in lock-step: primitives treat axes -2 and -1 as rows and
columns and reduce or broadcast within each lane, a loss is one 1x1 value
per lane, and the gradient of the summed lane losses with respect to one
lane's inputs is that lane's own gradient. Operations record nodes on a
``Tape`` whenever at least one input is attached to it. A backward pass walks
the tape in reverse; with ``create_graph=True`` the backward computations are
themselves recorded, so the returned gradients are ordinary taped tensors and
a second backward yields second-order derivatives. This is what lets a loss
contain "the gradient of another loss" as a differentiable sub-expression.

Conventions:
  - all arithmetic is float64; results must be finite (NaN/Inf raises,
    naming the first operation that produced such a value). Untaped
    operations, ``constant`` and ``Tape.leaf`` check their result at once.
    Taped operations, recorded or computed while the tape is paused, are
    checked together when ``backward`` runs on their tape: once on entry,
    for everything computed since the last check, and once on exit, for
    what the backward pass itself computed. With a lane axis the error also
    names the first lane holding such a value,
  - relu is given a zero second derivative everywhere (subgradient 0 at 0),
  - a tape and its tensors belong to one logical thread.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "AutogradError",
    "Tensor",
    "Tape",
    "constant",
    "matmul",
    "transpose",
    "add",
    "sub",
    "mul",
    "smul",
    "mulc",
    "tile_rows",
    "sum_rows",
    "sum_all",
    "spread",
    "relu",
    "tanh",
    "activation",
    "add_bias",
    "mse",
    "select_column",
    "backward",
    "ACTIVATIONS",
]

ACTIVATIONS = ("relu", "tanh", "identity")


class AutogradError(ValueError):
    """Shape mismatch, non-finite result, or a tensor used off its tape.

    ``lane`` is the lane that held the first non-finite value, when the
    offending array had a lane axis; otherwise None."""

    def __init__(self, message: str, lane: int | None = None):
        super().__init__(message)
        self.lane = lane


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise AutogradError(f"expected a 2-D array or a lane stack, got shape {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray, op: str) -> None:
    finite = np.isfinite(arr)
    if finite.all():
        return
    if arr.ndim == 2:
        raise AutogradError(f"non-finite values produced by '{op}'")
    lane = int(np.argmin(finite.reshape(len(arr), -1).all(axis=1)))
    raise AutogradError(f"non-finite values produced by '{op}' (lane {lane})", lane=lane)


class Tensor:
    """A 2-D float64 matrix, or a (lanes, rows, cols) stack of them,
    optionally attached to a tape node.

    A tensor computed while its tape was paused keeps a reference to the
    tape (so its values are checked with the tape's) but has no node, and
    enters later operations as a constant.
    """

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "Tape | None" = None, node: int | None = None):
        self.data = _as_matrix(data)
        self.tape = tape
        self.node = node

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise AutogradError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def detach(self) -> "Tensor":
        """A constant view of the same values, off any tape."""
        return _wrap(self.data)

    def __repr__(self) -> str:
        tag = "" if self.node is None else f", node={self.node}"
        return f"Tensor(shape={self.shape}{tag})"


def _wrap(data: np.ndarray, tape: "Tape | None" = None, node: int | None = None) -> Tensor:
    """A tensor over an array this module produced, already float64 and of
    a valid rank."""
    t = object.__new__(Tensor)
    t.data = data
    t.tape = tape
    t.node = node
    return t


def constant(data) -> Tensor:
    """Wrap an array as an untaped constant."""
    arr = _as_matrix(data)
    _require_finite(arr, "constant")
    return _wrap(arr)


class _Node:
    __slots__ = ("op", "inputs", "values", "out", "aux")

    def __init__(self, op, inputs, values, out, aux):
        self.op = op
        self.inputs = inputs  # node ids; None marks a constant input
        self.values = values  # cached input arrays (for the backward rules)
        self.out = out
        self.aux = aux


class Tape:
    """Ordered record of primitive operations; inputs always precede users."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self._recording = True
        # (op, output) of every taped operation not yet checked for
        # finiteness; backward checks and clears it
        self._pending: list[tuple[str, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self.nodes)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Suspend recording; values are still computed identically."""
        prev = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = prev

    def leaf(self, data) -> Tensor:
        """Register an input variable; gradients can be requested for it."""
        arr = _as_matrix(data).copy()
        _require_finite(arr, "leaf")
        self.nodes.append(_Node("leaf", (), (), arr, None))
        return _wrap(arr, self, len(self.nodes) - 1)

    def _check_pending(self) -> None:
        """Raise for the first pending output holding NaN/Inf; one scan over
        all of them when every value is finite."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        if np.isfinite(np.concatenate([out for _, out in pending], axis=None)).all():
            return
        for op, out in pending:
            _require_finite(out, op)


def _emit(op: str, inputs: tuple[Tensor, ...], out: np.ndarray, aux=None) -> Tensor:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise AutogradError("operation inputs live on different tapes")
    if tape is None:
        _require_finite(out, op)
        return _wrap(out)
    tape._pending.append((op, out))
    if not tape._recording:
        return _wrap(out, tape)
    nodes = tape.nodes
    nodes.append(_Node(op, tuple(t.node for t in inputs), tuple(t.data for t in inputs), out, aux))
    return _wrap(out, tape, len(nodes) - 1)


def _t(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


# ---------------------------------------------------------------- primitives

def matmul(a, b) -> Tensor:
    """Matrix product, per lane; both operands have the same lane axis."""
    a, b = _t(a), _t(b)
    if a.cols != b.rows or a.data.shape[:-2] != b.data.shape[:-2]:
        raise AutogradError(f"matmul dims {a.shape} x {b.shape}")
    return _emit("matmul", (a, b), a.data @ b.data)


def transpose(a) -> Tensor:
    a = _t(a)
    return _emit("transpose", (a,), a.data.swapaxes(-1, -2).copy())


def add(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.shape != b.shape:
        raise AutogradError(f"add shapes {a.shape} vs {b.shape}")
    return _emit("add", (a, b), a.data + b.data)


def sub(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.shape != b.shape:
        raise AutogradError(f"sub shapes {a.shape} vs {b.shape}")
    return _emit("sub", (a, b), a.data - b.data)


def mul(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.shape != b.shape:
        raise AutogradError(f"mul shapes {a.shape} vs {b.shape}")
    return _emit("mul", (a, b), a.data * b.data)


def smul(a, c: float) -> Tensor:
    a = _t(a)
    c = float(c)
    return _emit("smul", (a,), a.data * c, aux=c)


def mulc(a, m) -> Tensor:
    """Elementwise multiply by a constant array (no gradient through ``m``)."""
    a = _t(a)
    m = _as_matrix(m)
    if a.shape != m.shape:
        raise AutogradError(f"mulc shapes {a.shape} vs {m.shape}")
    return _emit("mulc", (a,), a.data * m, aux=m)


def tile_rows(b, n: int) -> Tensor:
    b = _t(b)
    if b.rows != 1:
        raise AutogradError(f"tile_rows needs a 1 x m tensor, got {b.shape}")
    return _emit("tile_rows", (b,), np.repeat(b.data, n, axis=-2), aux=n)


def sum_rows(x) -> Tensor:
    x = _t(x)
    return _emit("sum_rows", (x,), x.data.sum(axis=-2, keepdims=True))


def sum_all(x) -> Tensor:
    """Sum of every entry, one 1x1 value per lane."""
    x = _t(x)
    return _emit("sum_all", (x,), x.data.sum(axis=(-2, -1), keepdims=True))


def spread(s, rows: int, cols: int) -> Tensor:
    s = _t(s)
    lead = s.data.shape[:-2]
    if s.data.shape != (*lead, 1, 1):
        raise AutogradError(f"spread needs a 1x1 tensor, got {s.shape}")
    out = np.empty((*lead, rows, cols))
    out[...] = s.data
    return _emit("spread", (s,), out, aux=(rows, cols))


def relu(x) -> Tensor:
    x = _t(x)
    return _emit("relu", (x,), np.maximum(x.data, 0.0))


def tanh(x) -> Tensor:
    x = _t(x)
    return _emit("tanh", (x,), np.tanh(x.data))


def add_bias(x, b) -> Tensor:
    """Row-broadcast addition of a 1 x cols bias (per lane)."""
    x, b = _t(x), _t(b)
    xs = x.data.shape
    if b.data.shape != (*xs[:-2], 1, xs[-1]):
        raise AutogradError(f"bias shape {b.shape} does not broadcast over {x.shape}")
    return _emit("add_bias", (x, b), x.data + b.data)


def mse(pred, target) -> Tensor:
    """Mean over all entries of the squared difference; 1x1 result per lane."""
    pred, target = _t(pred), _t(target)
    if pred.shape != target.shape:
        raise AutogradError(f"mse shapes {pred.shape} vs {target.shape}")
    d = pred.data - target.data
    scale = 1.0 / (pred.rows * pred.cols)
    return _emit("mse", (pred, target), (d * d).sum(axis=(-2, -1), keepdims=True) * scale,
                 aux=scale)


# ---------------------------------------------------------------- composites

def activation(x, kind: str) -> Tensor:
    if kind == "relu":
        return relu(x)
    if kind == "tanh":
        return tanh(x)
    if kind == "identity":
        return _t(x)
    raise AutogradError(f"unknown activation '{kind}' (expected one of {ACTIVATIONS})")


def select_column(x, j: int) -> Tensor:
    """Column j as a rows x 1 tensor (differentiable slice, per lane)."""
    x = _t(x)
    if not 0 <= j < x.cols:
        raise AutogradError(f"column {j} out of range for {x.shape}")
    picker = np.zeros((*x.shape[:-2], x.cols, 1))
    picker[..., j, 0] = 1.0
    return matmul(x, picker)


# ------------------------------------------------------------------ backward
#
# One rule per op: rule(node, nid, g, tape, need) returns the adjoint
# contribution for each input, in input order. need[i] says whether input i
# can reach a requested tensor; a rule may return None for an input it is not
# asked for, and backward ignores whatever it returns there. Contributions are
# built from the public primitives so that, while the tape is recording, they
# are differentiable in their own right.

def _input_handle(node: _Node, i: int, tape: Tape) -> Tensor:
    nid = node.inputs[i]
    if nid is None:
        return _wrap(node.values[i])
    return _wrap(node.values[i], tape, nid)


def _matmul_vjp(node, nid, g, tape, need):
    return (matmul(g, transpose(_input_handle(node, 1, tape))) if need[0] else None,
            matmul(transpose(_input_handle(node, 0, tape)), g) if need[1] else None)


def _sub_vjp(node, nid, g, tape, need):
    return g, smul(g, -1.0) if need[1] else None


def _mul_vjp(node, nid, g, tape, need):
    return (mul(g, _input_handle(node, 1, tape)) if need[0] else None,
            mul(g, _input_handle(node, 0, tape)) if need[1] else None)


def _relu_vjp(node, nid, g, tape, need):
    return (mulc(g, (node.values[0] > 0.0).astype(np.float64)),)


def _tanh_vjp(node, nid, g, tape, need):
    # d tanh = 1 - tanh^2; route through the node's own taped output so
    # second-order terms survive.
    t = _wrap(node.out, tape, nid)
    return (mul(g, sub(_wrap(np.ones_like(node.out)), mul(t, t))),)


def _mse_vjp(node, nid, g, tape, need):
    # d mse / d pred = (2 / n) (pred - target) = -d mse / d target, formed
    # as 2 * ((g / n) * (pred - target))
    rows, cols = node.values[0].shape[-2:]
    d = sub(_input_handle(node, 0, tape), _input_handle(node, 1, tape))
    g_pred = smul(mul(spread(smul(g, node.aux), rows, cols), d), 2.0)
    return g_pred, smul(g_pred, -1.0) if need[1] else None


_VJP = {
    "matmul": _matmul_vjp,
    "transpose": lambda node, nid, g, tape, need: (transpose(g),),
    "add": lambda node, nid, g, tape, need: (g, g),
    "sub": _sub_vjp,
    "mul": _mul_vjp,
    "smul": lambda node, nid, g, tape, need: (smul(g, node.aux),),
    "mulc": lambda node, nid, g, tape, need: (mulc(g, node.aux),),
    "tile_rows": lambda node, nid, g, tape, need: (sum_rows(g),),
    "sum_rows": lambda node, nid, g, tape, need: (tile_rows(g, node.values[0].shape[-2]),),
    "sum_all": lambda node, nid, g, tape, need: (spread(g, *node.values[0].shape[-2:]),),
    "spread": lambda node, nid, g, tape, need: (sum_all(g),),
    "relu": _relu_vjp,
    "tanh": _tanh_vjp,
    "add_bias": lambda node, nid, g, tape, need: (g, sum_rows(g) if need[1] else None),
    "mse": _mse_vjp,
}


def backward(loss: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar loss (one 1x1 value per lane) w.r.t. the
    requested taped tensors. The pass is seeded with ones of the loss's
    shape, so with lanes it differentiates the sum of the lane losses, and
    each lane's inputs receive that lane's own gradient.

    With ``create_graph=True`` the returned gradients stay on the tape, so a
    further ``backward`` over an expression of them yields second-order
    derivatives. With ``create_graph=False`` the same arithmetic runs with
    recording suspended and the gradients come back off the tape;
    first-order values are bit-identical either way.

    Only adjoints that can reach a requested tensor are formed: a node older
    than the oldest requested one cannot depend on any of them, so the walk
    stops there and no contribution to such a node (or to a constant) is
    computed.
    """
    if loss.tape is None or loss.node is None:
        raise AutogradError("loss is not attached to a tape")
    if loss.shape[-2:] != (1, 1):
        raise AutogradError(f"loss must be scalar (1x1 per lane), got {loss.shape}")
    tape = loss.tape
    for w in wrt:
        if w.tape is not tape or w.node is None:
            raise AutogradError("a requested tensor does not live on the loss tape")
    tape._check_pending()

    want: dict[int, Tensor | None] = {w.node: None for w in wrt}
    lowest = min(want, default=loss.node + 1)
    adjoint: dict[int, Tensor] = {loss.node: constant(np.ones(loss.shape))}
    nodes = tape.nodes

    recording = tape._recording
    tape._recording = recording and create_graph
    try:
        for nid in range(loss.node, lowest - 1, -1):
            g = adjoint.pop(nid, None)
            if g is None:
                continue
            if nid in want:
                want[nid] = g
            node = nodes[nid]
            need = [i is not None and i >= lowest for i in node.inputs]
            if not any(need):
                continue
            contribs = _VJP[node.op](node, nid, g, tape, need)
            for input_id, wanted, contrib in zip(node.inputs, need, contribs):
                if wanted:
                    seen = adjoint.get(input_id)
                    adjoint[input_id] = contrib if seen is None else add(seen, contrib)
    finally:
        tape._recording = recording
    tape._check_pending()

    out = []
    for w in wrt:
        g = want[w.node]
        if g is None:
            out.append(_wrap(np.zeros(w.shape)))
        else:
            out.append(g if g.node is not None else _wrap(g.data))
    return out
