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
    NoDefense,
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
from .nn import Adam, FcNetwork

__all__ = ["ProtocolError", "TranscriptRecord", "Transcript", "SplitSession",
           "train_split", "predict"]

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


def _effective_targets(session: SplitSession, extended: np.ndarray | None,
                       noised: np.ndarray | None, target_model: FcNetwork | None,
                       idx: np.ndarray, cut_values: np.ndarray,
                       y_batch: np.ndarray) -> np.ndarray:
    d = session.defense
    if isinstance(d, AdaptiveLabelExtension):
        # Targets come from the epoch-start snapshot of the top model, so the
        # non-label columns chase a reference the live model drifts away from
        # within the epoch; that drift is what keeps the outgoing gradients
        # from being a pure label-residual signal.
        return adaptive_targets(target_model, cut_values, y_batch, d.label_index)
    if isinstance(d, RandomLabelExtension):
        return extended[idx]
    if isinstance(d, LabelNoise):
        return noised[idx]
    return y_batch


def _outgoing_gradient(session: SplitSession, raw: np.ndarray, epoch: int,
                       batch_no: int) -> np.ndarray:
    d = session.defense
    if isinstance(d, GradientNoise):
        seed = batch_noise_seed(session.seed, epoch, batch_no)
        return noise_gradient(raw, d.distribution, d.scale, seed)
    if isinstance(d, GradientCompression):
        return compress_gradient(raw, d.keep_rate)
    return raw


def train_split(session: SplitSession, train: Dataset,
                consistency_check: bool = False) -> tuple[SplitSession, Transcript, list[float]]:
    """Run the full protocol; returns the trained session, the feature
    party's transcript (every batch of every epoch), and the per-epoch mean
    training loss.

    With consistency_check=True (and no gradient-side defense) the received
    gradient is re-derived from the stored activations and the label party's
    pre-update top model each batch, and must match what was recorded.
    """
    if train.d != session.bottom.in_dim:
        raise ProtocolError(
            f"dataset has {train.d} features, bottom model expects {session.bottom.in_dim}")
    if session.batch_size > train.n:
        raise ProtocolError("batch size exceeds training set size")

    d = session.defense
    extended = None
    noised = None
    if isinstance(d, RandomLabelExtension):
        ext_seed = int(np.random.SeedSequence([session.seed, 0xE7]).generate_state(1)[0])
        extended = extend_labels_random(train.labels, d.dims, d.label_index,
                                        d.noise_std, ext_seed).matrix
    elif isinstance(d, AdaptiveLabelExtension):
        # pre-training draw only fixes the top model's output width; targets
        # come from a snapshot of the top model taken at the start of each
        # epoch
        pass
    elif isinstance(d, LabelNoise):
        noise_seed = int(np.random.SeedSequence([session.seed, 0xA0]).generate_state(1)[0])
        noised = noise_labels(train.labels, d.distribution, d.scale, noise_seed)

    gradient_side = isinstance(d, (GradientNoise, GradientCompression))
    transcript = Transcript()
    trace: list[float] = []

    adaptive = isinstance(d, AdaptiveLabelExtension)
    for epoch in range(session.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([session.seed, epoch, 0xB5]))
        order = rng.permutation(train.n)
        epoch_losses = []
        # Algorithm step: the label party re-derives its extended targets from
        # the model as it stands when the epoch begins.
        target_model = session.top.copy() if adaptive else None
        for batch_no, start in enumerate(range(0, train.n, session.batch_size)):
            idx = order[start:start + session.batch_size]
            x_batch = train.features[idx]
            y_batch = train.labels[idx]
            try:
                tape = Tape()
                bottom_handles = session.bottom.attach(tape)
                cut = session.bottom.forward(constant(x_batch))
                # attached after the cut, so the label party's backward,
                # whose oldest requested node is then the cut, stops there
                top_handles = session.top.attach(tape)
                targets = _effective_targets(session, extended, noised,
                                             target_model, idx, cut.data, y_batch)
                pred = session.top.forward(cut)
                loss = mse(pred, constant(targets))

                # label party: gradients for its own update and for the wire
                *top_grads, cut_grad = backward(loss, [*top_handles, cut])
                sent = _outgoing_gradient(session, cut_grad.data, epoch, batch_no)
                transcript.records.append(TranscriptRecord(
                    epoch, idx.copy(), cut.data.copy(), sent.copy()))

                if consistency_check and not gradient_side:
                    _check_gradient_consistency(session, cut.data, targets, sent,
                                                epoch, batch_no)

                # feature party: backprop resumes from the gradient actually
                # received, whatever the defense did to it
                relay = sum_all(mul(cut, constant(sent)))
                bottom_grads = backward(relay, bottom_handles)

                session.top.set_parameters(session.top_opt.step(
                    session.top.parameters(), [g.data for g in top_grads]))
                session.bottom.set_parameters(session.bottom_opt.step(
                    session.bottom.parameters(), [g.data for g in bottom_grads]))
            except AutogradError as exc:
                raise ProtocolError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            finally:
                session.bottom.detach()
                session.top.detach()
            epoch_losses.append(loss.item())
        trace.append(float(np.mean(epoch_losses)))
    return session, transcript, trace


def _check_gradient_consistency(session, cut_values, targets, sent, epoch, batch_no):
    # re-derive on a fresh tape from a detached copy of the pre-update top model
    top = session.top.copy()
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
