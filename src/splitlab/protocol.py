"""The two-party split training loop and the attacker-visible transcript.

One session simulates both parties sequentially per mini-batch: the feature
party computes cut-layer activations from its bottom model, the label party
forms effective targets under the configured defense, trains its top model on
the unperturbed loss, and sends back the cut-layer gradient after applying any
gradient-side defense. The feature party updates its bottom model from the
gradient it actually received, and records (activations, received gradient)
for every batch; that record is the entire attack surface.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .autograd import AutogradError, Tape, backward, constant, mse, mul, sum_all
from .data import Dataset
from .defense import (
    AdaptiveLabelExtension,
    Defense,
    GradientCompression,
    GradientNoise,
    LabelNoise,
    RandomLabelExtension,
    adaptive_targets,
    batch_noise_seed,
    compress_gradient,
    extend_labels_random,
    is_extension,
    noise_gradient,
    noise_labels,
    target_dim,
)
from .nn import Adam, FcNetwork, gather_rows, split_lanes, stack_lanes, stack_networks

__all__ = ["ProtocolError", "TranscriptRecord", "Transcript", "SplitSession",
           "train_split", "train_lanes", "predict"]

_MAGIC = b"SLTRAN01"


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class TranscriptRecord:
    epoch: int
    indices: np.ndarray      # train-split positions in this batch
    activations: np.ndarray  # batch x cut_dim, as sent to the label party
    gradient: np.ndarray     # batch x cut_dim, as received back

    def __post_init__(self):
        if self.activations.shape != self.gradient.shape:
            raise ProtocolError("activation / gradient shapes differ")
        if self.indices.shape[0] != self.activations.shape[0]:
            raise ProtocolError("index count does not match batch size")


@dataclass
class Transcript:
    records: list[TranscriptRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def epochs(self) -> int:
        return 0 if not self.records else self.records[-1].epoch + 1

    def last_epochs(self, k: int = 1) -> list[TranscriptRecord]:
        """Records from the final k training epochs, in recorded order."""
        if not self.records:
            return []
        cutoff = self.epochs - k
        return [r for r in self.records if r.epoch >= cutoff]

    def save(self, path) -> None:
        """Binary framing: epoch, index count + indices, then both matrices
        with their dims, row-major float64."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(self.records)))
            for r in self.records:
                fh.write(struct.pack("<II", r.epoch, len(r.indices)))
                fh.write(np.ascontiguousarray(r.indices, dtype="<u8").tobytes())
                for arr in (r.activations, r.gradient):
                    fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
                    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Transcript":
        """Read a file written by save(). Every header and payload must fit
        in the file and nothing may follow the last record; a malformed file
        raises ProtocolError naming the path and the record."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:8] != _MAGIC:
            raise ProtocolError(f"{path}: not a transcript file")
        off = 8

        def need(size: int, what: str) -> None:
            left = len(blob) - off
            if size > left:
                raise ProtocolError(
                    f"{path}: {what} truncated: needs {size} bytes at offset {off}, "
                    f"{left} left")

        need(8, "record count")
        (count,) = struct.unpack_from("<Q", blob, off)
        off += 8
        records = []
        for i in range(count):
            need(8, f"record {i} header")
            epoch, n_idx = struct.unpack_from("<II", blob, off)
            off += 8
            need(8 * n_idx, f"record {i} indices")
            idx = np.frombuffer(blob, dtype="<u8", count=n_idx, offset=off).astype(np.int64)
            off += 8 * n_idx
            mats = []
            for name in ("activations", "gradient"):
                need(8, f"record {i} {name} header")
                rows, cols = struct.unpack_from("<II", blob, off)
                off += 8
                need(8 * rows * cols, f"record {i} {name}")
                m = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=off)
                mats.append(m.reshape(rows, cols).copy())
                off += 8 * rows * cols
            try:
                records.append(TranscriptRecord(epoch, idx, mats[0], mats[1]))
            except ProtocolError as exc:
                raise ProtocolError(f"{path}: record {i}: {exc}") from exc
        if off != len(blob):
            raise ProtocolError(
                f"{path}: {len(blob) - off} trailing bytes after the last of {count} records")
        return cls(records)


class SplitSession:
    """State for one two-party training run."""

    def __init__(self, bottom: FcNetwork, top: FcNetwork, defense: Defense,
                 lr: float = 0.01, batch_size: int = 128, epochs: int = 100,
                 seed: int = 0):
        if top.in_dim != bottom.out_dim:
            raise ProtocolError(
                f"top input dim {top.in_dim} != bottom output dim {bottom.out_dim}")
        expected = target_dim(defense)
        if top.out_dim != expected:
            raise ProtocolError(
                f"top output dim {top.out_dim} incompatible with defense (needs {expected})")
        if batch_size < 1 or epochs < 1:
            raise ProtocolError("batch_size and epochs must be >= 1")
        self.bottom = bottom
        self.top = top
        self.defense = defense
        self.lr = float(lr)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.seed = int(seed)
        self.bottom_opt = Adam.for_network(bottom, lr=lr)
        self.top_opt = Adam.for_network(top, lr=lr)

    @property
    def cut_dim(self) -> int:
        return self.bottom.out_dim


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _target_table(sessions: list[SplitSession], train: Dataset) -> np.ndarray | None:
    """Per-lane target tables fixed before training (label noise, random
    extension), stacked; None when the targets are not drawn up front."""
    d = sessions[0].defense
    if isinstance(d, RandomLabelExtension):
        tables = [extend_labels_random(train.labels, s.defense.dims, s.defense.label_index,
                                       s.defense.noise_std, _derived_seed(s.seed, 0xE7)).matrix
                  for s in sessions]
    elif isinstance(d, LabelNoise):
        tables = [noise_labels(train.labels, s.defense.distribution, s.defense.scale,
                               _derived_seed(s.seed, 0xA0))
                  for s in sessions]
    else:
        # the adaptive extension's pre-training draw only fixes the top
        # model's output width; its targets come from a snapshot of the top
        # model taken at the start of each epoch
        return None
    return stack_lanes(tables)


def _outgoing_gradient(session: SplitSession, raw: np.ndarray, epoch: int,
                       batch_no: int) -> np.ndarray:
    """The gradient-side defense of one lane applied to its raw gradient."""
    d = session.defense
    if isinstance(d, GradientNoise):
        seed = batch_noise_seed(session.seed, epoch, batch_no)
        return noise_gradient(raw, d.distribution, d.scale, seed)
    return compress_gradient(raw, d.keep_rate)


def _check_lanes(sessions: list[SplitSession], train: Dataset) -> None:
    first = sessions[0]
    for r, s in enumerate(sessions):
        where = f"lane {r}: " if len(sessions) > 1 else ""
        if train.d != s.bottom.in_dim:
            raise ProtocolError(
                f"{where}dataset has {train.d} features, bottom model expects {s.bottom.in_dim}")
        if s.batch_size > train.n:
            raise ProtocolError(f"{where}batch size exceeds training set size")
        if (type(s.defense), s.top.out_dim, s.lr, s.batch_size, s.epochs) != \
                (type(first.defense), first.top.out_dim, first.lr, first.batch_size, first.epochs):
            raise ProtocolError(
                f"{where}sessions trained in lock-step need the same defense kind, "
                "top-model width, learning rate, batch size and epochs")


def train_split(session: SplitSession, train: Dataset,
                consistency_check: bool = False) -> tuple[SplitSession, Transcript, list[float]]:
    """Run the full protocol; returns the trained session, the feature
    party's transcript (every batch of every epoch), and the per-epoch mean
    training loss. This is train_lanes with one lane.

    With consistency_check=True (and no gradient-side defense) the received
    gradient is re-derived from the stored activations and the label party's
    pre-update top model each batch, and must match what was recorded.
    """
    ((transcript, trace),) = train_lanes([session], train, consistency_check=consistency_check)
    return session, transcript, trace


def train_lanes(sessions: list[SplitSession], train: Dataset, keep_epochs: int | None = None,
                consistency_check: bool = False) -> list[tuple[Transcript, list[float]]]:
    """Train several sessions on one dataset in lock-step; returns each
    session's (transcript, per-epoch mean loss), in session order.

    The sessions ("lanes") share the defense kind, top-model width, learning
    rate, batch size and epochs; each keeps its own seed, networks,
    optimizer state and defense parameters. Their networks and optimizers
    are stacked along a lane axis, so one tape walk per batch serves every
    lane, and each lane computes exactly what it would alone. With one
    session nothing is stacked. The trained parameters and optimizer states
    are written back to the sessions, also when training fails.

    keep_epochs=k keeps only the records of the final k epochs in the
    transcripts (all epochs when None).
    """
    if not sessions:
        raise ProtocolError("no sessions to train")
    _check_lanes(sessions, train)
    lanes = len(sessions)
    first = sessions[0]
    if lanes == 1:
        bottom, top = first.bottom, first.top
        bottom_opt, top_opt = first.bottom_opt, first.top_opt
    else:
        try:
            bottom = stack_networks([s.bottom for s in sessions])
            top = stack_networks([s.top for s in sessions])
            bottom_opt = Adam.stack([s.bottom_opt for s in sessions])
            top_opt = Adam.stack([s.top_opt for s in sessions])
        except ValueError as exc:
            raise ProtocolError(f"sessions cannot train in lock-step: {exc}") from exc

    d = first.defense
    table = _target_table(sessions, train)
    adaptive = isinstance(d, AdaptiveLabelExtension)
    if adaptive:
        label_index = (d.label_index if lanes == 1
                       else np.array([s.defense.label_index for s in sessions]))
    gradient_side = isinstance(d, (GradientNoise, GradientCompression))
    first_kept = 0 if keep_epochs is None else first.epochs - keep_epochs
    transcripts = [Transcript() for _ in sessions]
    traces: list[list[float]] = [[] for _ in sessions]
    # this epoch's per-batch losses, one row per lane
    epoch_losses = np.empty((lanes, -(-train.n // first.batch_size)))

    try:
        for epoch in range(first.epochs):
            order = stack_lanes([
                np.random.default_rng(np.random.SeedSequence([s.seed, epoch, 0xB5]))
                .permutation(train.n) for s in sessions])
            # Algorithm step: the label party re-derives its extended targets
            # from the model as it stands when the epoch begins. The non-label
            # columns then chase a reference the live model drifts away from
            # within the epoch; that drift is what keeps the outgoing
            # gradients from being a pure label-residual signal.
            target_model = top.copy() if adaptive else None
            for batch_no, start in enumerate(range(0, train.n, first.batch_size)):
                idx = order[..., start:start + first.batch_size]
                x_batch = train.features[idx]
                y_batch = train.labels[idx]
                try:
                    tape = Tape()
                    bottom_handles = bottom.attach(tape)
                    cut = bottom.forward(constant(x_batch))
                    # attached after the cut, so the label party's backward,
                    # whose oldest requested node is then the cut, stops there
                    top_handles = top.attach(tape)
                    if adaptive:
                        targets = adaptive_targets(target_model, cut.data, y_batch, label_index)
                    elif table is not None:
                        targets = gather_rows(table, idx)
                    else:
                        targets = y_batch
                    pred = top.forward(cut)
                    loss = mse(pred, constant(targets))

                    # label party: gradients for its own update and for the wire
                    *top_grads, cut_grad = backward(loss, [*top_handles, cut])
                    sent = cut_grad.data
                    if gradient_side:
                        sent = stack_lanes([
                            _outgoing_gradient(s, g, epoch, batch_no)
                            for s, g in zip(sessions, split_lanes(sent, lanes))])
                    if epoch >= first_kept:
                        for transcript, i, a, g in zip(transcripts, split_lanes(idx, lanes),
                                                       split_lanes(cut.data, lanes),
                                                       split_lanes(sent, lanes)):
                            transcript.records.append(
                                TranscriptRecord(epoch, i.copy(), a.copy(), g.copy()))

                    if consistency_check and not gradient_side:
                        _check_gradient_consistency(top, cut.data, targets, sent,
                                                    epoch, batch_no)

                    # feature party: backprop resumes from the gradient
                    # actually received, whatever the defense did to it
                    relay = sum_all(mul(cut, constant(sent)))
                    bottom_grads = backward(relay, bottom_handles)

                    top.set_parameters(top_opt.step(top.parameters(),
                                                    [g.data for g in top_grads]))
                    bottom.set_parameters(bottom_opt.step(bottom.parameters(),
                                                          [g.data for g in bottom_grads]))
                except AutogradError as exc:
                    raise ProtocolError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
                finally:
                    bottom.detach()
                    top.detach()
                epoch_losses[:, batch_no] = loss.data.reshape(lanes)
            for trace, losses in zip(traces, epoch_losses):
                trace.append(float(np.mean(losses)))
    finally:
        if lanes > 1:
            for s, b, t, bo, to in zip(sessions, bottom.split(), top.split(),
                                       bottom_opt.split(), top_opt.split()):
                s.bottom.set_parameters(b.parameters())
                s.top.set_parameters(t.parameters())
                s.bottom_opt, s.top_opt = bo, to
    return list(zip(transcripts, traces))


def _check_gradient_consistency(top, cut_values, targets, sent, epoch, batch_no):
    # re-derive on a fresh tape from a detached copy of the pre-update top model
    top = top.copy()
    tape = Tape()
    cut = tape.leaf(cut_values)
    loss = mse(top.forward(cut), constant(targets))
    (recomputed,) = backward(loss, [cut])
    if not np.array_equal(recomputed.data, sent):
        raise ProtocolError(
            f"epoch {epoch}, batch {batch_no}: received gradient does not match "
            "the loss gradient at the stored activations")


def predict(session: SplitSession, x: np.ndarray) -> np.ndarray:
    """Composed bottom+top prediction as an n x 1 column; under a label
    extension defense this is the secret label column of the wide output."""
    out = session.top.forward_values(session.bottom.forward_values(x))
    col = session.defense.label_index if is_extension(session.defense) else 0
    return out[:, [col]]
