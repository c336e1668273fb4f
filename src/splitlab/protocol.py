"""The two-party split training loop and the attacker-visible transcript.

One session simulates both parties sequentially per mini-batch: the feature
party computes cut-layer activations from its bottom model, the label party
forms its training targets as its defense prescribes, trains its top model on
the unperturbed loss, and sends back the cut-layer gradient its defense makes
of the raw one. The feature party updates its bottom model from the gradient
it actually received, and records (batch indices, activations, received
gradient) for every batch; that record is the entire attack surface, and the
attack replays its indices and gradient alone. A transcript file holds whole
records; a record kept in memory only for replay may leave out its
activations (see TranscriptRecord). Which defense runs is the session's
concern only through the members of `defense.Defense`.

A training step is one program, whatever the defense: the feature party's
forward (features and bottom parameters in, cut activations out), the label
party's part (top parameters, cut and targets in; loss, top gradients and
cut gradient out, from a backward pass that stops at the cut) and the
feature party's backward (the sent gradient in, over the forward's own
values; bottom gradients out). It is captured as one `autograd.StepPlan`
from a tape over zeros of the step's shapes, once per batch shape, and every
batch of that shape, the first included, runs it (see the autograd module
docstring). The defense's numpy rules run inside that run as feeders: the
targets are fed from the cut and the sent gradient from the cut gradient,
each after the plan has checked everything computed before it, so no rule
sees a non-finite value. The plan hands back both networks' gradients as
one flat region, the top's then the bottom's: the layout of the buffer the
trainer keeps both networks in, which one Adam step reads as it is.

Sessions trained in lock-step (`train_lanes`) share a top-model width but
not necessarily a defense kind: the feeders form each lane's targets and
sent gradient by that lane's own defense.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import AutogradError, StepPlan, Tape, backward, mse, mul, sum_all
from .data import Dataset
from .defense import Defense
# Called by the defenses, not here; importable from here for code that wraps
# them by attribute.
from .defense import adaptive_targets, compress_gradient, extend_labels_random  # noqa: F401
from .defense import noise_gradient, noise_labels  # noqa: F401
from .nn import (Adam, FcNetwork, Layer, check_lock_step, gather_rows, split_lanes, stack_joined,
                 stack_lanes)

__all__ = ["ProtocolError", "TranscriptRecord", "Transcript", "TranscriptWriter",
           "SplitSession", "train_split", "train_lanes", "predict"]

_MAGIC = b"SLTRAN01"


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class TranscriptRecord:
    """One batch as the feature party saw it. `activations` is None only
    in a record kept for replay, which needs the indices and the gradient
    alone (the harness keeps such records, and `Transcript.load` reads them
    with activations=False); a transcript file refuses it."""

    epoch: int
    indices: np.ndarray             # train-split positions in this batch
    activations: np.ndarray | None  # batch x cut_dim, as sent to the label party
    gradient: np.ndarray            # batch x cut_dim, as received back

    def __post_init__(self):
        _check_shapes(self.indices.shape[0],
                      None if self.activations is None else self.activations.shape,
                      self.gradient.shape)


def _check_shapes(index_count: int, activations: tuple | None, gradient: tuple) -> None:
    if activations is not None and activations != gradient:
        raise ProtocolError("activation / gradient shapes differ")
    if index_count != gradient[0]:
        raise ProtocolError("index count does not match batch size")


@dataclass
class Transcript:
    """The feature party's records, in recorded order. A record is named by
    its epoch and its batch, its place among that epoch's records: the name
    training gives the step, in any window, since a window keeps whole
    epochs."""

    records: list[TranscriptRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def epochs(self) -> int:
        return 0 if not self.records else self.records[-1].epoch + 1

    def last_epochs(self, k: int = 1) -> "Transcript":
        """The records from the final k training epochs, in recorded order:
        the transcript train_lanes(keep_epochs=k) returns and
        load(last_epochs=k) reads."""
        cutoff = self.epochs - k
        return Transcript([r for r in self.records if r.epoch >= cutoff])

    def save(self, path) -> None:
        """Write the records to `path` through a TranscriptWriter, the only
        writer of the framing. Binary framing, little-endian: the magic
        b"SLTRAN01" and the u64 record count, then per record the u32 epoch,
        the u32 index count and the u64 indices, then the activations and
        the gradient, each as u32 rows, u32 cols and row-major f64 values.
        A record without activations is refused, and no file is left."""
        with TranscriptWriter(path) as writer:
            for record in self.records:
                writer.append(record)

    @classmethod
    def load(cls, path, last_epochs: int | None = None, *,
             activations: bool = True) -> "Transcript":
        """Read a file in the framing save() documents. Every record header
        is read and checked, whatever the window: each header and payload
        must fit in the file, a record's two matrices must share one shape
        with as many rows as it has indices, and nothing may follow the last
        record. A malformed file raises ProtocolError naming the path and
        the record's index in the file.

        With last_epochs=k, only the records that `last_epochs(k)` keeps
        (epoch >= the last record's epoch + 1 - k) have their payloads read,
        so the result equals `load(path).last_epochs(k)`; the others are
        skipped on disk and never held. None reads every record. With
        activations=False the kept records' activations are skipped on disk
        too, and the records are replay records (activations None, see
        TranscriptRecord): what the attack reads. The headers are checked
        the same in both modes.

        The headers are walked in one pass through a buffered reader, which
        steps over the payloads inside its buffer without a system call; the
        kept payloads are then read from the unbuffered file, straight into
        one block per kind: the indices (little-endian int64, so an index of
        2^63 or more reads as a negative one), the gradients and, when asked,
        the activations. A record's arrays are views of those blocks, so
        any record kept holds its blocks."""
        with open(path, "rb", buffering=_READ_BUFFER) as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(8) != _MAGIC:
                raise ProtocolError(f"{path}: not a transcript file")
            layout = _record_layout(fh, size, path)
            cutoff = 0 if last_epochs is None or not layout else layout[-1][0] + 1 - last_epochs
            kept = [entry for entry in layout if entry[0] >= cutoff]
            index_block = np.empty(sum(entry[1] for entry in kept), dtype="<i8")
            gradient_block = np.empty(sum(math.prod(entry[3]) for entry in kept), dtype="<f8")
            activation_block = np.empty_like(gradient_block) if activations else None
            raw = fh.raw
            records = []
            index_at = value_at = 0
            for epoch, n_idx, at_indices, shape, (at_activations, at_gradient) in kept:
                values = slice(value_at, value_at + math.prod(shape))
                indices = _read_into(raw, at_indices, index_block[index_at:index_at + n_idx],
                                     path)
                sent = None if activation_block is None else _read_into(
                    raw, at_activations, activation_block[values].reshape(shape), path)
                gradient = _read_into(raw, at_gradient, gradient_block[values].reshape(shape),
                                      path)
                records.append(TranscriptRecord(epoch, indices, sent, gradient))
                index_at, value_at = index_at + n_idx, values.stop
        return cls(records)


# the reader's buffer: many records' headers and payloads, so the header walk
# seeks within it
_READ_BUFFER = 1 << 20
_COUNT, _HEADER = struct.Struct("<Q"), struct.Struct("<II")


def _read_into(fh, at: int, buf: np.ndarray, path) -> np.ndarray:
    fh.seek(at)
    if fh.readinto(buf) != buf.nbytes:
        raise ProtocolError(f"{path}: file shrank while being read")
    return buf


def _record_layout(fh, size: int, path) -> list[tuple]:
    """Per record of an open transcript file of `size` bytes, after checking
    its header: the epoch, the index count and offset, the matrix shape and
    the two matrix offsets."""
    off = 8
    i = None  # the record being walked; None while reading the count

    def take(nbytes: int, part: str) -> int:
        # the offset of the record's `part`, which must fit in the file
        nonlocal off
        left = size - off
        if nbytes > left:
            what = "record count" if i is None else f"record {i} {part}"
            raise ProtocolError(f"{path}: {what} truncated: needs {nbytes} bytes "
                                f"at offset {off}, {left} left")
        off += nbytes
        return off - nbytes

    def header(form: struct.Struct, part: str) -> tuple[int, ...]:
        # an 8-byte header field
        fh.seek(take(8, part))
        field = fh.read(8)
        if len(field) != 8:
            raise ProtocolError(f"{path}: file shrank while being read")
        return form.unpack(field)

    (count,) = header(_COUNT, "")
    layout = []
    for i in range(count):
        epoch, n_idx = header(_HEADER, "header")
        at_indices = take(8 * n_idx, "indices")
        shape = header(_HEADER, "activations header")
        at_activations = take(8 * shape[0] * shape[1], "activations")
        gradient_shape = header(_HEADER, "gradient header")
        at_gradient = take(8 * gradient_shape[0] * gradient_shape[1], "gradient")
        try:
            _check_shapes(n_idx, shape, gradient_shape)
        except ProtocolError as exc:
            raise ProtocolError(f"{path}: record {i}: {exc}") from exc
        layout.append((epoch, n_idx, at_indices, shape, (at_activations, at_gradient)))
    if off != size:
        raise ProtocolError(
            f"{path}: {size - off} trailing bytes after the last of {count} records")
    return layout


class TranscriptWriter:
    """Writes a transcript file record by record, in the framing
    `Transcript.save` documents, so a run's records need not be held
    together. The record count goes first: the writer leaves a placeholder
    there, and close() fills in the number of records appended. append()
    refuses a record without activations (see TranscriptRecord).

    The file is written as `<name>.part` next to `path`. close() renames it
    to `path`; abort() deletes it. As a context manager the writer closes
    on a normal exit and aborts on an exception, so a failed run leaves no
    file behind."""

    def __init__(self, path):
        self.path = Path(path)
        self.written = 0
        self._part = self.path.with_name(self.path.name + ".part")
        self._fh = open(self._part, "wb")
        try:
            self._fh.write(_MAGIC + _COUNT.pack(0))
        except BaseException:
            self.abort()
            raise

    def append(self, record: TranscriptRecord) -> None:
        if record.activations is None:
            raise ProtocolError(f"the record of epoch {record.epoch} has no activations: "
                                f"a transcript file holds whole records")
        fh = self._fh
        fh.write(struct.pack("<II", record.epoch, len(record.indices)))
        fh.write(np.ascontiguousarray(record.indices, dtype="<u8"))
        for arr in (record.activations, record.gradient):
            fh.write(struct.pack("<II", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        self.written += 1

    def close(self) -> None:
        try:
            self._fh.seek(len(_MAGIC))
            self._fh.write(_COUNT.pack(self.written))
            self._fh.close()
            os.replace(self._part, self.path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        try:
            self._fh.close()
        finally:
            self._part.unlink(missing_ok=True)

    def __enter__(self) -> "TranscriptWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class SplitSession:
    """State for one two-party training run: the two networks, the defense
    and the training settings. It holds no optimizer state: every training
    call starts Adam afresh (zero moments, step count 0), so a session
    trained twice trains in its second call as a fresh session would from
    the parameters the first call left."""

    def __init__(self, bottom: FcNetwork, top: FcNetwork, defense: Defense,
                 lr: float = 0.01, batch_size: int = 128, epochs: int = 100,
                 seed: int = 0):
        if top.in_dim != bottom.out_dim:
            raise ProtocolError(
                f"top input dim {top.in_dim} != bottom output dim {bottom.out_dim}")
        expected = defense.output_dim
        if top.out_dim != expected:
            raise ProtocolError(
                f"top output dim {top.out_dim} incompatible with defense (needs {expected})")
        for name, value in (("batch_size", batch_size), ("epochs", epochs)):
            if value < 1:
                raise ProtocolError(f"{name} must be >= 1, got {value}")
        # 0 trains nothing but still records the transcript: a frozen run
        if not (math.isfinite(lr) and lr >= 0):
            raise ProtocolError(f"lr must be finite and >= 0, got {lr}")
        self.bottom = bottom
        self.top = top
        self.defense = defense
        self.lr = float(lr)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.seed = int(seed)


def _lock_step_settings(session: SplitSession) -> dict:
    """The settings every session of a lock-step group must share."""
    return {"top-model width": session.top.out_dim, "learning rate": session.lr,
            "batch size": session.batch_size, "epochs": session.epochs,
            "bottom-model architecture": session.bottom.architecture,
            "top-model architecture": session.top.architecture}


def _check_lanes(sessions: list[SplitSession], train: Dataset) -> None:
    """Refuse sessions that cannot train on `train` in lock-step: each must
    fit the dataset, and all must share the settings of _lock_step_settings,
    a differing one named with both values. Their defense kinds may
    differ."""
    for r, s in enumerate(sessions):
        where = f"lane {r}: " if len(sessions) > 1 else ""
        if train.d != s.bottom.in_dim:
            raise ProtocolError(
                f"{where}dataset has {train.d} features, bottom model expects {s.bottom.in_dim}")
        if s.batch_size > train.n:
            raise ProtocolError(
                f"{where}batch size {s.batch_size} exceeds the {train.n} training samples")
    check_lock_step([_lock_step_settings(s) for s in sessions], "sessions trained in lock-step",
                    ProtocolError)


def train_split(session: SplitSession, train: Dataset,
                sink=None) -> tuple[SplitSession, Transcript, list[float]]:
    """Run the full protocol; returns the trained session, the feature
    party's transcript (every batch of every epoch), and the per-epoch mean
    training loss. This is train_lanes with one lane; a `sink` receives the
    records instead of the transcript (see train_lanes)."""
    ((transcript, trace),) = train_lanes([session], train, sinks=None if sink is None else [sink])
    return session, transcript, trace


def train_lanes(sessions: list[SplitSession], train: Dataset, keep_epochs: int | None = None,
                sinks: list | None = None) -> list[tuple[Transcript, list[float]]]:
    """Train several sessions on one dataset in lock-step; returns each
    session's (transcript, per-epoch mean loss), in session order.

    The sessions ("lanes") share the top-model width, learning rate, batch
    size and epochs; each keeps its own seed, networks and defense, of any
    kind. Their networks are stacked along a lane axis over one buffer, so
    one run of the step's plan per batch serves every lane, and one Adam
    over that buffer, made for this call, updates every lane; each lane
    computes exactly what it would alone. The trained parameters are
    written back to the sessions, also when training fails; the Adam state
    ends with the call (see SplitSession).

    Each lane follows its own defense's rules. The lanes are split once by
    where their targets come from (an epoch-start snapshot of the top
    model, a table drawn before training, or the labels), and each batch
    forms each source's targets once, for its lanes; a group with one source
    indexes no lanes. Only the lanes whose defense changes the gradient
    pass it through their rule; with none, the cut gradient is sent as it
    is.

    Each lane hands every record, as it is made, to its sink: a callable
    taking a TranscriptRecord, such as `TranscriptWriter.append`, which
    streams it to disk, or the harness's, which keeps the record's indices
    and gradient and drops its activations. By default (sinks=None) the
    sink appends the whole record to the lane's returned transcript; with
    sinks given, the returned transcripts stay empty. keep_epochs=k hands on
    only the records of the final k epochs (all epochs when None), those
    `Transcript.last_epochs(k)` keeps.
    """
    if not sessions:
        raise ProtocolError("no sessions to train")
    _check_lanes(sessions, train)
    if sinks is not None and len(sinks) != len(sessions):
        raise ProtocolError(f"{len(sinks)} record sinks for {len(sessions)} sessions")
    lanes = len(sessions)
    first = sessions[0]
    # one buffer for both networks, top first, the layout of the plan's
    # gradient output
    flat, (top, bottom) = stack_joined([[s.top for s in sessions],
                                        [s.bottom for s in sessions]])
    bottom_params, top_params = bottom.parameters(), top.parameters()
    opt = Adam([p.shape for p in (*top_params, *bottom_params)], lr=first.lr)

    sources = _target_sources(sessions, train.labels)
    # the lanes whose defense changes the gradient it sends
    senders = [s.defense.changes_gradient for s in sessions]
    sends_raw = not any(senders)
    first_kept = 0 if keep_epochs is None else max(0, first.epochs - keep_epochs)
    transcripts = [Transcript() for _ in sessions]
    if sinks is None:
        sinks = [transcript.records.append for transcript in transcripts]
    traces: list[list[float]] = [[] for _ in sessions]
    # this epoch's per-batch losses, one row per lane
    epoch_losses = np.empty((lanes, -(-train.n // first.batch_size)))
    # one plan per batch shape: every batch but a short final one runs the
    # same plan
    plans: dict[tuple[int, ...], StepPlan] = {}

    try:
        for epoch in range(first.epochs):
            order = stack_lanes([
                np.random.default_rng(np.random.SeedSequence([s.seed, epoch, 0xB5]))
                .permutation(train.n) for s in sessions])
            snapshots = [_lane_copy(top, part.lanes) if part.source == "snapshot" else None
                         for part in sources]
            for batch_no, start in enumerate(range(0, train.n, first.batch_size)):
                idx = order[..., start:start + first.batch_size]
                x_batch = train.features[idx]
                y_batch = train.labels[idx]

                def targets_of(cut):
                    if len(sources) == 1:
                        return sources[0].targets(snapshots[0], cut, idx, y_batch)
                    targets = np.empty((*idx.shape, first.top.out_dim))
                    for part, snapshot in zip(sources, snapshots):
                        at = part.lanes
                        targets[at] = part.targets(snapshot, cut[at], idx[at], y_batch[at])
                    return targets

                def sent_of(cut_grad):
                    if sends_raw:
                        return cut_grad
                    return stack_lanes([
                        s.defense.outgoing_gradient(g, s.seed, epoch, batch_no) if sends else g
                        for s, sends, g in zip(sessions, senders, split_lanes(cut_grad, lanes))])

                step = plans.get(x_batch.shape)
                if step is None:
                    step = plans[x_batch.shape] = _capture_step(bottom, top, x_batch.shape)
                try:
                    outputs = _replay_step(step, bottom_params, top_params, x_batch,
                                           targets_of, sent_of)
                except AutogradError as exc:
                    raise ProtocolError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
                cut, targets, loss, grad, sent = outputs

                if epoch >= first_kept:
                    for sink, i, a, g in zip(sinks, split_lanes(idx, lanes),
                                             split_lanes(cut, lanes), split_lanes(sent, lanes)):
                        sink(TranscriptRecord(epoch, i.copy(), a.copy(), g.copy()))

                opt.step(flat, grad)
                epoch_losses[:, batch_no] = loss.reshape(lanes)
            for trace, losses in zip(traces, epoch_losses):
                trace.append(float(np.mean(losses)))
    finally:
        for s, b, t in zip(sessions, bottom.split(), top.split()):
            s.bottom.set_parameters(b.parameters())
            s.top.set_parameters(t.parameters())
    return list(zip(transcripts, traces))


@dataclass(frozen=True)
class _TargetSource:
    """The lanes of a lock-step group whose targets come from one source
    (`lanes` is None when it serves every lane): "snapshot" (formed by the
    rule of `defense`, the first of these lanes' defenses, from an
    epoch-start copy of their top models), "table" (rows of `table`, drawn
    before training) or "labels"."""

    source: str
    lanes: np.ndarray | None
    defense: Defense
    table: np.ndarray | None
    label_columns: np.ndarray | int | None

    def targets(self, snapshot, cut, idx, y_batch):
        """One batch's targets for these lanes, from their cut, batch
        positions and labels."""
        if self.source == "snapshot":
            return self.defense.snapshot_targets(snapshot, cut, y_batch, self.label_columns)
        return y_batch if self.table is None else gather_rows(self.table, idx)


def _target_sources(sessions: list[SplitSession], labels: np.ndarray) -> list[_TargetSource]:
    """The lanes of each target source, in order of each source's first
    lane, with the tables and label columns they read. Snapshot lanes are
    split by defense class, each class applying its own rule."""
    tables = [s.defense.target_table(labels, s.seed) for s in sessions]
    by_source: dict[tuple, list[int]] = {}
    for r, (s, table) in enumerate(zip(sessions, tables)):
        key = (("snapshot", type(s.defense)) if s.defense.uses_snapshot
               else ("labels",) if table is None else ("table",))
        by_source.setdefault(key, []).append(r)
    return [_TargetSource(
        source,
        None if len(by_source) == 1 else np.array(lanes),
        sessions[lanes[0]].defense,
        stack_lanes([tables[r] for r in lanes]) if source == "table" else None,
        stack_lanes([sessions[r].defense.label_column for r in lanes])
        if source == "snapshot" else None)
        for (source, *_), lanes in by_source.items()]


def _lane_copy(net: FcNetwork, lanes: np.ndarray | None) -> FcNetwork:
    """A copy of a lane stack, or of its lanes `lanes` (None: all of them)."""
    if lanes is None:
        return net.copy()
    return FcNetwork([Layer(l.weight[lanes], l.bias[lanes], l.activation) for l in net.layers],
                     role=net.role)


def _capture_step(bottom: FcNetwork, top: FcNetwork, x_shape: tuple[int, ...]) -> StepPlan:
    """The StepPlan of a training step on feature batches of x_shape (see
    the module docstring), captured from a tape over zeros: zeroed copies of
    the networks, zero features, targets and sent gradient. Its inputs are
    the features and the bottom and top parameters; the targets are fed from
    the cut and the sent gradient from the cut gradient. Its outputs, in
    order: the cut, the targets, the loss, the gradients (one flat region:
    the top's, then the bottom's), the sent gradient and the relay.

    Leaves are made in an order that keeps every backward to what it is
    asked for: the features before the bottom parameters, so no gradient is
    formed for them, and the targets after the cut, so the label party's
    backward, which stops at the cut, forms the targets' adjoint, -g_pred,
    on this tape; no output needs it, so the plan drops it."""
    bottom, top = bottom.copy(), top.copy()
    bottom.flat[...] = 0.0
    top.flat[...] = 0.0
    tape = Tape()
    x = tape.leaf(np.zeros(x_shape))
    bottom_handles = bottom.attach(tape)
    cut = bottom.forward(x)
    targets = tape.leaf(np.zeros((*x_shape[:-1], top.out_dim)))
    top_handles = top.attach(tape)
    loss = mse(top.forward(cut), targets)
    # label party: gradients for its own update and for the wire, a walk
    # that stops at the cut; create_graph keeps every gradient a node a plan
    # can name
    *top_grads, cut_grad = backward(loss, [*top_handles, cut], create_graph=True)
    sent = tape.leaf(np.zeros(cut.shape))
    # feature party: backprop resumes from the gradient actually received,
    # whatever the defense did to it, over the forward's own values
    relay = sum_all(mul(cut, sent))
    bottom_grads = backward(relay, bottom_handles, create_graph=True)
    # the relay's value is a plan output only so that a run checks it for
    # finiteness, as a taped step does
    return StepPlan([x, *bottom_handles, *top_handles],
                    [cut, targets, loss, [*top_grads, *bottom_grads], sent, relay],
                    fed=[(targets, cut), (sent, cut_grad)])


def _replay_step(plan: StepPlan, bottom_params: list[np.ndarray],
                 top_params: list[np.ndarray], x_batch: np.ndarray, targets_of,
                 sent_of) -> tuple:
    """One training step, run from its plan on the current parameters and a
    batch: returns the step's (cut, targets, loss, gradient, sent gradient),
    the gradient flat in the layout of a buffer stack_joined made of the top
    and the bottom model."""
    cut, targets, loss, grad, sent, _ = plan.run(
        [x_batch, *bottom_params, *top_params], [targets_of, sent_of])
    return cut, targets, loss, grad, sent


def predict(session: SplitSession, x: np.ndarray) -> np.ndarray:
    """Composed bottom+top prediction as an n x 1 column: the defense's label
    column of the top model's output."""
    out = session.top.forward_values(session.bottom.forward_values(x))
    return out[:, [session.defense.label_column]]
