"""Dense 2-D tensors with reverse-mode differentiation on a re-entrant tape.

Every tensor is a rows x cols float64 matrix, optionally stacked along a
leading lane axis as a (lanes, rows, cols) array. Lanes are independent
problems computed in lock-step: primitives treat axes -2 and -1 as rows and
columns and reduce or broadcast within each lane, a loss is one 1x1 value
per lane, and the gradient of the summed lane losses with respect to one
lane's inputs is that lane's own gradient. Operations record nodes on a
``Tape`` whenever at least one input is attached to it. A backward pass walks
the tape in reverse and records its own computations on the same tape; with
``create_graph=True`` it returns the gradients as those taped tensors, so a
second backward yields second-order derivatives. This is what lets a loss
contain "the gradient of another loss" as a differentiable sub-expression.

Step plans. A loop that runs the same graph many times over new arrays (the
attack's second-order step, the split training step) pays for the tape's
bookkeeping on every step: node records, tensor wrappers and the adjoint
dictionary cost far more than the small-matrix arithmetic itself. A
``StepPlan`` is captured from one taped step whose backward passes ran with
``create_graph=True``, so that every gradient is a node. The caller names the
plan's inputs (leaves) and outputs; the plan keeps only the outputs'
ancestors. At capture it lays out one float64 buffer with a slot for each
kept leaf and operation, and binds every operation to fixed views of its
argument slots and its own slot (captured constants stay separate arrays).
``run(arrays)`` copies the inputs into their slots and recomputes each
operation in tape order into its slot, through the same per-op kernel table
the primitives use, so a replayed step is bit-identical to a taped one on
the same arrays. The outputs' slots lie back to back in output order, and a
run returns views of one copy of that region: outputs are new arrays that
later runs leave alone. A group of outputs (a network's gradients) comes
back as one flat array, in the layout of the network's flat buffer. Because
every run writes the same buffer, a plan, like a tape, belongs to one
logical thread. Its inputs must have the captured shapes; a loop keeps one
plan per batch shape.

Numpy work in the middle of a step enters its plan through fed leaves. The
capture names a leaf and the node its value is made from; the run calls a
feeder function on that node's value at the leaf's place in tape order and
copies the result into the leaf's slot. The training step is one plan this
way: the defense's targets are fed from the cut and its sent gradient from
the cut gradient, and both backward passes read the forward's own slots.

Two rules make this sound:
  - every array that changes from step to step enters the graph as a leaf.
    A value that entered as a constant (an untaped tensor) is replayed as it
    was at capture,
  - VJPs take step data only through node inputs: a plan replays a node's
    aux as it was at capture, so aux holds only scalars and shapes, never
    an array (the relu VJP therefore forms its mask from its input, through
    the ``relu_grad(g, x)`` primitive).

Under these rules a plan depends on its inputs' shapes alone: whatever else
it holds (an mse's 1/n, a scale by the row count) is derived from shapes or
fixed for the whole loop. So a loop captures its plans from a tape over
zeros of the step's shapes, where no kernel can produce a non-finite value,
and runs every step, the first included, through them.

Conventions:
  - all arithmetic is float64, and every operation checks its result at
    once: a NaN or Inf raises, naming the operation (``constant`` and
    ``Tape.leaf`` included), so the first non-finite value in tape order is
    the one named. A step plan checks what it computed before each fed leaf
    in one scan of a buffer range, before the leaf's feeder runs, so no
    feeder sees a non-finite value, and the rest in one scan after its last
    operation. On a hit it rescans those slots one by one in tape order, and
    raises the error the taped step raises for the same arrays.
    The taped step also forms adjoints for leaves nobody asked for, which
    the plan drops; only if one of those is the first to overflow do the two
    name different operations. In the attack's step that is a rare case; in
    the training step there are two such adjoints, and neither can be the
    first: the targets' adjoint, -g_pred, is finite exactly when the
    prediction's adjoint g_pred, made just before it, is, and the sent
    gradient's adjoint in the feature party's backward is the seed of ones
    times the cut, checked earlier. So the two always agree there. A value
    the taped step computes but no output depends on is checked by a replay
    only if the caller names it as an output (the training step names its
    relay ``sum(cut * sent)``). With a lane axis the error also names the
    first lane holding such a value,
  - relu is given a zero second derivative everywhere (subgradient 0 at 0),
  - a tape and its tensors, and a step plan, belong to one logical thread.
"""

from __future__ import annotations

import bisect
from typing import Sequence

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
    "tile_rows",
    "sum_rows",
    "sum_all",
    "spread",
    "relu",
    "relu_grad",
    "tanh",
    "activation",
    "add_bias",
    "mse",
    "backward",
    "StepPlan",
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
    optionally attached to a tape node: a tensor has a tape exactly when it
    has a node on it."""

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

    def __repr__(self) -> str:
        tag = "" if self.node is None else f", node={self.node}"
        return f"Tensor(shape={self.shape}{tag})"


def constant(data) -> Tensor:
    """Wrap an array as an untaped constant."""
    arr = _as_matrix(data)
    _require_finite(arr, "constant")
    return Tensor(arr)


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

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, data) -> Tensor:
        """Register an input variable; gradients can be requested for it."""
        arr = _as_matrix(data).copy()
        _require_finite(arr, "leaf")
        self.nodes.append(_Node("leaf", (), (), arr, None))
        return Tensor(arr, self, len(self.nodes) - 1)


def _fill(out, x, shape):
    """x broadcast to `shape`, copied into out (a new array when out is None)."""
    if out is None:
        out = np.empty(shape)
    out[...] = x
    return out


def _transpose_forward(aux, out, a, b):
    t = a.swapaxes(-1, -2)
    return _fill(out, t, t.shape)


def _mse_forward(aux, out, pred, target):
    # the difference and its square are temporaries outside `out`
    d = pred - target
    return np.multiply(np.add.reduce(d * d, axis=(-2, -1), keepdims=True), aux, out=out)


# The arithmetic of every primitive, fn(aux, out, a, b) -> output: a and b are
# the input arrays (b is None for a one-input op), and the result is written
# into `out`, or into a new array when out is None (numpy's own convention).
# The primitives compute through this table with out=None and StepPlan.run
# with out bound to a slot of its buffer, so a replayed step repeats the taped
# one bit for bit. `out=` goes by keyword: numpy deprecates a positional
# third argument to np.maximum.
_FORWARD = {
    "matmul": lambda aux, out, a, b: np.matmul(a, b, out=out),
    "transpose": _transpose_forward,
    "add": lambda aux, out, a, b: np.add(a, b, out=out),
    "sub": lambda aux, out, a, b: np.subtract(a, b, out=out),
    "mul": lambda aux, out, a, b: np.multiply(a, b, out=out),
    "smul": lambda aux, out, a, b: np.multiply(a, aux, out=out),
    "tile_rows": lambda aux, out, a, b: _fill(out, a, (*a.shape[:-2], aux, a.shape[-1])),
    "sum_rows": lambda aux, out, a, b: np.add.reduce(a, axis=-2, keepdims=True, out=out),
    "sum_all": lambda aux, out, a, b: np.add.reduce(a, axis=(-2, -1), keepdims=True, out=out),
    "spread": lambda aux, out, a, b: _fill(out, a, (*a.shape[:-2], *aux)),
    "relu": lambda aux, out, a, b: np.maximum(a, 0.0, out=out),
    "relu_grad": lambda aux, out, a, b: np.multiply(a, (b > 0.0).astype(np.float64), out=out),
    "tanh": lambda aux, out, a, b: np.tanh(a, out=out),
    "add_bias": lambda aux, out, a, b: np.add(a, b, out=out),
    "mse": _mse_forward,
}


def _emit(op: str, inputs: tuple[Tensor, ...], aux=None) -> Tensor:
    """Compute op on the inputs' values, check the result and record it on
    their tape, if any."""
    out = _FORWARD[op](aux, None, inputs[0].data,
                       inputs[1].data if len(inputs) > 1 else None)
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise AutogradError("operation inputs live on different tapes")
    _require_finite(out, op)
    if tape is None:
        return Tensor(out)
    nodes = tape.nodes
    nodes.append(_Node(op, tuple(t.node for t in inputs), tuple(t.data for t in inputs), out, aux))
    return Tensor(out, tape, len(nodes) - 1)


def _t(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


# ---------------------------------------------------------------- primitives

def matmul(a, b) -> Tensor:
    """Matrix product, per lane; both operands have the same lane axis."""
    a, b = _t(a), _t(b)
    if a.cols != b.rows or a.data.shape[:-2] != b.data.shape[:-2]:
        raise AutogradError(f"matmul dims {a.shape} x {b.shape}")
    return _emit("matmul", (a, b))


def transpose(a) -> Tensor:
    a = _t(a)
    return _emit("transpose", (a,))


def add(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.shape != b.shape:
        raise AutogradError(f"add shapes {a.shape} vs {b.shape}")
    return _emit("add", (a, b))


def sub(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.shape != b.shape:
        raise AutogradError(f"sub shapes {a.shape} vs {b.shape}")
    return _emit("sub", (a, b))


def mul(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.shape != b.shape:
        raise AutogradError(f"mul shapes {a.shape} vs {b.shape}")
    return _emit("mul", (a, b))


def smul(a, c: float) -> Tensor:
    return _emit("smul", (_t(a),), float(c))


def tile_rows(b, n: int) -> Tensor:
    b = _t(b)
    if b.rows != 1:
        raise AutogradError(f"tile_rows needs a 1 x m tensor, got {b.shape}")
    return _emit("tile_rows", (b,), n)


def sum_rows(x) -> Tensor:
    x = _t(x)
    return _emit("sum_rows", (x,))


def sum_all(x) -> Tensor:
    """Sum of every entry, one 1x1 value per lane."""
    x = _t(x)
    return _emit("sum_all", (x,))


def spread(s, rows: int, cols: int) -> Tensor:
    s = _t(s)
    if s.shape[-2:] != (1, 1):
        raise AutogradError(f"spread needs a 1x1 tensor, got {s.shape}")
    return _emit("spread", (s,), (rows, cols))


def relu(x) -> Tensor:
    x = _t(x)
    return _emit("relu", (x,))


def relu_grad(g, x) -> Tensor:
    """g where x > 0, else 0: the adjoint relu passes back. Differentiable
    in g; its derivative in x is zero (see the module conventions)."""
    g, x = _t(g), _t(x)
    if g.shape != x.shape:
        raise AutogradError(f"relu_grad shapes {g.shape} vs {x.shape}")
    return _emit("relu_grad", (g, x))


def tanh(x) -> Tensor:
    x = _t(x)
    return _emit("tanh", (x,))


def add_bias(x, b) -> Tensor:
    """Row-broadcast addition of a 1 x cols bias (per lane)."""
    x, b = _t(x), _t(b)
    xs = x.data.shape
    if b.data.shape != (*xs[:-2], 1, xs[-1]):
        raise AutogradError(f"bias shape {b.shape} does not broadcast over {x.shape}")
    return _emit("add_bias", (x, b))


def mse(pred, target) -> Tensor:
    """Mean over all entries of the squared difference; 1x1 result per lane."""
    pred, target = _t(pred), _t(target)
    if pred.shape != target.shape:
        raise AutogradError(f"mse shapes {pred.shape} vs {target.shape}")
    return _emit("mse", (pred, target), 1.0 / (pred.rows * pred.cols))


# ---------------------------------------------------------------- composites

def activation(x, kind: str) -> Tensor:
    if kind == "relu":
        return relu(x)
    if kind == "tanh":
        return tanh(x)
    if kind == "identity":
        return _t(x)
    raise AutogradError(f"unknown activation '{kind}' (expected one of {ACTIVATIONS})")


# ------------------------------------------------------------------ backward
#
# One rule per op: rule(node, nid, g, tape, need) returns the adjoint
# contribution for each input, in input order. need[i] says whether input i
# can reach a requested tensor; a rule may return None for an input it is not
# asked for, and backward ignores whatever it returns there. None for an input
# that is asked for means a contribution that is zero everywhere (relu_grad's
# in x). Contributions are built from the public primitives, so they are
# recorded on the tape and differentiable in their own right. A rule
# takes step data only through the node's inputs (_input_handle) or its own
# output, never by baking an array derived from them into an aux: a StepPlan
# replays aux values as they were at capture.

def _input_handle(node: _Node, i: int, tape: Tape) -> Tensor:
    nid = node.inputs[i]
    return Tensor(node.values[i], None if nid is None else tape, nid)


def _matmul_vjp(node, nid, g, tape, need):
    return (matmul(g, transpose(_input_handle(node, 1, tape))) if need[0] else None,
            matmul(transpose(_input_handle(node, 0, tape)), g) if need[1] else None)


def _sub_vjp(node, nid, g, tape, need):
    return g, smul(g, -1.0) if need[1] else None


def _mul_vjp(node, nid, g, tape, need):
    return (mul(g, _input_handle(node, 1, tape)) if need[0] else None,
            mul(g, _input_handle(node, 0, tape)) if need[1] else None)


def _relu_vjp(node, nid, g, tape, need):
    return (relu_grad(g, _input_handle(node, 0, tape)),)


def _tanh_vjp(node, nid, g, tape, need):
    # d tanh = 1 - tanh^2; route through the node's own taped output so
    # second-order terms survive.
    t = Tensor(node.out, tape, nid)
    return (mul(g, sub(Tensor(np.ones_like(node.out)), mul(t, t))),)


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
    "tile_rows": lambda node, nid, g, tape, need: (sum_rows(g),),
    "sum_rows": lambda node, nid, g, tape, need: (tile_rows(g, node.values[0].shape[-2]),),
    "sum_all": lambda node, nid, g, tape, need: (spread(g, *node.values[0].shape[-2:]),),
    "spread": lambda node, nid, g, tape, need: (sum_all(g),),
    "relu": _relu_vjp,
    "relu_grad": lambda node, nid, g, tape, need: (
        relu_grad(g, _input_handle(node, 1, tape)) if need[0] else None, None),
    "tanh": _tanh_vjp,
    "add_bias": lambda node, nid, g, tape, need: (g, sum_rows(g) if need[1] else None),
    "mse": _mse_vjp,
}


def backward(loss: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar loss (one 1x1 value per lane) w.r.t. the
    requested taped tensors. The pass is seeded with ones of the loss's
    shape, so with lanes it differentiates the sum of the lane losses, and
    each lane's inputs receive that lane's own gradient.

    The pass records its computations on the loss's tape either way. With
    ``create_graph=True`` the returned gradients are those taped tensors, so
    a further ``backward`` over an expression of them yields second-order
    derivatives; with ``create_graph=False`` they come back as untaped
    copies of the same values.

    Only adjoints that can reach a requested tensor are formed: a node older
    than the oldest requested one cannot depend on any of them, so the walk
    stops there and no contribution to such a node (or to a constant) is
    computed.
    """
    if loss.tape is None:
        raise AutogradError("loss is not attached to a tape")
    if loss.shape[-2:] != (1, 1):
        raise AutogradError(f"loss must be scalar (1x1 per lane), got {loss.shape}")
    tape = loss.tape
    for w in wrt:
        if w.tape is not tape:
            raise AutogradError("a requested tensor does not live on the loss tape")

    want: dict[int, Tensor | None] = {w.node: None for w in wrt}
    lowest = min(want, default=loss.node + 1)
    adjoint: dict[int, Tensor] = {loss.node: constant(np.ones(loss.shape))}
    nodes = tape.nodes

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
            if wanted and contrib is not None:
                seen = adjoint.get(input_id)
                adjoint[input_id] = contrib if seen is None else add(seen, contrib)

    out = []
    for w in wrt:
        g = want[w.node]
        if g is None:
            out.append(Tensor(np.zeros(w.shape)))
        else:
            out.append(g if create_graph else Tensor(g.data.copy()))
    return out


# ---------------------------------------------------------------- step plans

class StepPlan:
    """A taped step captured as a flat numpy program over one preallocated
    buffer (see the module docstring).

    `inputs` are leaves of one tape and `outputs` are nodes of the same tape,
    typically a loss and the gradients a ``backward(..., create_graph=True)``
    returned. An output may also be a sequence of nodes, a group, which a run
    returns as one flat array of their values back to back (the layout of a
    network's flat parameter buffer, for that network's gradients). The plan
    keeps the ancestors of the outputs; every leaf among them must be an
    input or fed, and every value that entered them as a constant is kept as
    it was at capture. ``run`` recomputes the outputs for new input arrays
    of the captured shapes.

    `fed` pairs (leaf, source): the leaf's value is made from the source's
    by a function the run is given, a feeder. The run calls it, with a
    read-only view of the source's value, at the leaf's place in tape order,
    after checking everything computed before that place, so a feeder never
    sees a non-finite value. A source is made before its leaf. Outputs must
    be listed so that none made after a fed leaf precedes one made before
    it.

    The plan owns one float64 buffer with a slot for each leaf and each kept
    operation. The outputs' slots lie back to back in output order, so a run
    returns views of one copy of them. Every operation is bound once to fixed
    views of its argument slots (or its captured constants) and of its own
    slot, and every run writes into them, so a plan, like a tape, belongs to
    one logical thread. ``run`` returns new arrays, which a later run does not
    touch.
    """

    def __init__(self, inputs: Sequence[Tensor], outputs: Sequence, fed: Sequence = ()):
        flat_outputs = [t for o in outputs for t in (o if isinstance(o, (list, tuple)) else [o])]
        if not inputs or not flat_outputs:
            raise AutogradError("a step plan needs inputs and outputs")
        tape = inputs[0].tape
        if tape is None:
            raise AutogradError("plan inputs must be leaves of a tape")
        nodes = tape.nodes
        for t in (*inputs, *flat_outputs, *(t for pair in fed for t in pair)):
            if t.tape is not tape:
                raise AutogradError("plan inputs and outputs must be nodes of one tape")
        for what, leaves in (("input", inputs), ("fed", [leaf for leaf, _ in fed])):
            for t in leaves:
                if nodes[t.node].op != "leaf":
                    raise AutogradError(f"plan {what} node {t.node} is a "
                                        f"'{nodes[t.node].op}', not a leaf")
        for leaf, source in fed:
            if source.node >= leaf.node:
                raise AutogradError(f"leaf node {leaf.node} is made before its source, "
                                    f"node {source.node}")
        leaf_ids = [t.node for t in inputs] + [leaf.node for leaf, _ in fed]
        if len(set(leaf_ids)) != len(leaf_ids):
            raise AutogradError("a plan leaf is named twice")
        input_ids = [t.node for t in inputs]
        fed_ids = sorted(leaf.node for leaf, _ in fed)
        fed_sources = {leaf.node: source.node for leaf, source in fed}
        output_ids = [t.node for t in flat_outputs]

        needed = {*output_ids, *fed_ids, *fed_sources.values()}
        for nid in range(max(needed), -1, -1):
            if nid in needed:
                needed.update(i for i in nodes[nid].inputs if i is not None)
        order = sorted(needed | set(input_ids))
        for nid in order:
            if nodes[nid].op == "leaf" and nid not in input_ids and nid not in fed_sources:
                raise AutogradError(f"leaf node {nid} feeds the plan's outputs but is "
                                    "not one of its inputs")

        # Segment k holds what is made after k fed leaves, in tape order: the
        # run computes and checks it, then feeds the next leaf.
        segments = len(fed_ids) + 1
        segment = {nid: bisect.bisect_right(fed_ids, nid) for nid in order}
        if [segment[nid] for nid in output_ids] != sorted(segment[nid] for nid in output_ids):
            raise AutogradError("plan outputs made after a fed leaf precede outputs made "
                                "before it")
        # Layout: the rest of segments n-2 .. 0, the outputs, the rest of
        # segment n-1. The check before feeder k then scans one range, from
        # segment k's rest to segment k's last output, which holds all of
        # segments 0..k and nothing later.
        output_set = set(output_ids)
        rest = [[nid for nid in order if segment[nid] == k and nid not in output_set]
                for k in range(segments)]
        kept = [*output_ids, *(nid for r in rest for nid in r)]
        self._buffer = np.empty(sum(nodes[nid].out.size for nid in kept))
        slot: dict[int, np.ndarray] = {}
        offset = 0

        def place(nid: int) -> np.ndarray:
            nonlocal offset
            out = nodes[nid].out
            view = self._buffer[offset:offset + out.size].reshape(out.shape)
            offset += out.size
            return view

        rest_start = [0] * segments
        for k in range(segments - 2, -1, -1):
            rest_start[k] = offset
            for nid in rest[k]:
                slot[nid] = place(nid)
        out_start = offset
        # segment k's outputs end at out_end[k]; a node named again gets a
        # slot of its own, filled by a copy after the node is made
        out_end = [out_start] * segments
        copies: list[list] = [[] for _ in range(segments)]
        # per output, its place in the region and its shape (None: a group,
        # returned flat)
        self._unpack = []
        for given in outputs:
            group = isinstance(given, (list, tuple))
            start = offset
            for t in (given if group else [given]):
                nid = t.node
                view = place(nid)
                if nid in slot:
                    copies[segment[nid]].append((_copy_forward, None, view, slot[nid], None))
                else:
                    slot[nid] = view
                for k in range(segment[nid], segments):
                    out_end[k] = offset
            self._unpack.append((start - out_start, offset - out_start,
                                 None if group else given.shape))
        for nid in rest[-1]:
            slot[nid] = place(nid)
        self._outputs = self._buffer[out_start:offset]
        scans = [self._buffer[rest_start[k]:out_end[k]] for k in range(segments - 1)]
        scans.append(self._buffer[out_end[-2] if segments > 1 else 0:])

        self._shapes = [t.shape for t in inputs]
        self._input_slots = [slot[nid] for nid in input_ids]
        feeder_of = {leaf.node: k for k, (leaf, _) in enumerate(fed)}
        self._feeder_count = len(fed)
        self._ops = 0
        self._phases = []
        for k in range(segments):
            program = []
            for nid in order:
                node = nodes[nid]
                if segment[nid] != k or node.op == "leaf":
                    continue
                args = [arr if i is None else slot[i] for i, arr in zip(node.inputs, node.values)]
                program.append((_FORWARD[node.op], node.aux, slot[nid], args[0],
                                args[1] if len(args) > 1 else None))
            self._ops += len(program)
            checked = [(slot[nid], nodes[nid].op) for nid in order if segment[nid] == k]
            feed = None
            if k < segments - 1:
                leaf = fed_ids[k]
                source = slot[fed_sources[leaf]].view()
                source.flags.writeable = False
                feed = (feeder_of[leaf], source, slot[leaf])
            self._phases.append((program + copies[k], scans[k], checked, feed))

    def __len__(self) -> int:
        """Number of operations the plan computes per run."""
        return self._ops

    def run(self, arrays: Sequence[np.ndarray], feeders: Sequence = ()) -> list[np.ndarray]:
        """The outputs, as new arrays, for new input arrays given in the
        order of the plan's inputs and one feeder per fed leaf, in the order
        of `fed`: a function from the source's value to the leaf's. What is
        computed before each fed leaf is checked for finiteness, in one scan
        of its buffer range, before the feeder runs, and the rest after the
        last operation; a non-finite value raises the AutogradError the taped
        step would raise, naming the first operation (or 'leaf', for an input
        or a fed leaf) in tape order that produced one, and its lane. A
        feeder whose value has another shape than the leaf's raises too."""
        if len(arrays) != len(self._shapes):
            raise AutogradError(f"plan takes {len(self._shapes)} inputs, got {len(arrays)}")
        if len(feeders) != self._feeder_count:
            raise AutogradError(f"plan takes {self._feeder_count} feeders, got {len(feeders)}")
        for k, (arr, shape) in enumerate(zip(arrays, self._shapes)):
            if np.shape(arr) != shape:
                raise AutogradError(f"plan input {k} has shape {np.shape(arr)}, "
                                    f"the plan was captured for {shape}")
        for dest, arr in zip(self._input_slots, arrays):
            dest[...] = arr
        for program, scan, checked, feed in self._phases:
            for forward, aux, out, a, b in program:
                forward(aux, out, a, b)
            if not np.isfinite(scan).all():
                for arr, op in checked:
                    _require_finite(arr, op)
            if feed is not None:
                k, source, dest = feed
                value = feeders[k](source)
                if np.shape(value) != dest.shape:
                    raise AutogradError(f"fed leaf {k} has shape {np.shape(value)}, "
                                        f"the plan was captured for {dest.shape}")
                dest[...] = value
        region = self._outputs.copy()
        return [region[start:stop] if shape is None else region[start:stop].reshape(shape)
                for start, stop, shape in self._unpack]


def _copy_forward(aux, out, a, b):
    np.copyto(out, a)
