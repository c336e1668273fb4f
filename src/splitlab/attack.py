"""Label inference from the recorded transcript.

The feature party replays its recorded per-batch gradients, at the
activations its own frozen bottom model gives each batch, against a surrogate
top model and trainable dummy labels. The loss has two parts: a
gradient-matching term, in which the gradient of the surrogate's own training
loss w.r.t. the activations (a second-order quantity, obtained by
differentiating through a taped backward pass) must reproduce the recorded
gradient, and an anchor term tying the dummy labels to the surrogate's
predictions so the joint problem has isolated optima. A small amount of
leaked labels adds a fine-tuning term, weighted by alpha. Every step runs as
an `autograd.StepPlan`, captured once per batch shape from a tape over zeros
(see the autograd module docstring).

Threat model: the bottom model is the attacker's own and stays frozen. Under
a label-extension defense the attacker is assumed to know the extension width
(worst case for the defender) but not the secret label column; the column is
chosen attacker-side by agreement with the leaked labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autograd import (
    AutogradError,
    StepPlan,
    Tape,
    Tensor,
    add,
    backward,
    constant,
    mse,
    smul,
)
from .data import Dataset, LeakedSet
from .metrics import MetricPair, metric_pair
from .nn import (
    Adam,
    FcNetwork,
    RowwiseAdam,
    build_network,
    check_lock_step,
    gather_rows,
    split_lanes,
    stack_lanes,
    stack_networks,
)
from .protocol import Transcript

__all__ = [
    "AttackError",
    "AttackConfig",
    "AttackResult",
    "AttackLane",
    "RowwiseAdam",
    "gradient_inversion_loss",
    "model_completion_loss",
    "run_attack",
    "attack_lanes",
]


class AttackError(RuntimeError):
    pass


@dataclass(frozen=True)
class AttackConfig:
    """The attacker's settings. The attack replays every record of the
    transcript it is given, and reads only its indices and gradient; to
    replay only the final k training epochs, give it
    `transcript.last_epochs(k)`, or read the file with
    `Transcript.load(path, last_epochs=k, activations=False)`, which reads
    nothing else (what `splitlab attack` does)."""

    alpha: float = 0.05          # weight of the leaked-label fine-tuning term
    lr: float = 0.01
    epochs: int = 50
    seed: int = 0
    surrogate_dims: list[int] | None = None  # default: [cut_dim, 1]
    activation: str = "relu"

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class AttackResult:
    inferred_labels: np.ndarray       # n_train x 1, from the dummy labels
    test_predictions: np.ndarray | None
    train_metrics: MetricPair
    test_metrics: MetricPair | None
    loss_trace: list[float] = field(repr=False)
    inversion_trace: list[float] = field(repr=False)
    label_column: int = 0
    model_column: int = 0
    dummy_labels: np.ndarray | None = None  # full n_train x width matrix


def gradient_inversion_loss(surrogate: FcNetwork, params: list[Tensor], cut: Tensor,
                            dummy_batch: Tensor, recorded_grad) -> tuple[Tensor, Tensor]:
    """Per-batch inversion loss of the surrogate over its parameter leaves
    `params` (see FcNetwork.attach), at the batch's activations `cut`, a
    leaf the caller made on their tape (an untaped cut is refused), with a
    dummy-label batch living on it.

    Returns (loss, match_term) where match_term measures how well the
    gradient induced by (surrogate, dummy labels) at the cut reproduces the
    recorded gradient; the loss adds the anchor term mse(surrogate(cut),
    dummy). Both are differentiable in the surrogate parameters and the
    dummy labels. `recorded_grad` is an array, a constant tensor, or a leaf
    of the tape; a step plan takes it as a leaf, so that replay reads each
    batch's own arrays.

    Gradients on the wire carry the mean-reduction of the batch loss, so
    their entries shrink with batch size; squaring that in a raw mse would
    leave the match term orders of magnitude below the anchor term and the
    inversion would stall. Both gradients are therefore compared in
    per-sample units (scaled by the batch row count), which makes the match
    term batch-size invariant and keeps the two terms commensurate.
    """
    if not isinstance(cut, Tensor) or cut.tape is None:
        raise AttackError("the cut activations must be a tape leaf, not an untaped "
                          f"{type(cut).__name__}")
    if recorded_grad.shape != (*cut.shape[:-1], surrogate.in_dim):
        raise AttackError(
            f"recorded gradient shape {recorded_grad.shape} does not match batch")
    pred = surrogate.forward(cut, params)
    anchor = mse(pred, dummy_batch)
    (induced,) = backward(anchor, [cut], create_graph=True)
    per_sample = float(cut.rows)
    match = smul(mse(recorded_grad, induced), per_sample ** 2)
    return add(match, anchor), match


def model_completion_loss(surrogate: FcNetwork, params: list[Tensor], leaked_cut: np.ndarray,
                          leaked_labels: np.ndarray) -> Tensor:
    """Fine-tuning loss on the leaked pairs: mse between the outputs of the
    surrogate over its parameter leaves `params` at the leaked activations
    and the leaked labels.

    When the surrogate is wider than one column (dimension-matched against a
    label-extension defense) the attacker cannot tell which output column
    carries the label, so the leaked labels are broadcast against every
    column; committing to a single column happens only at evaluation time.

    Both inputs are arrays, and enter the loss as constants: the leaked
    pairs stay fixed for the whole attack, so a step plan captured over this
    loss replays them as they were at capture.
    """
    if leaked_labels.size == 0:
        raise AttackError("leaked set is empty")
    pred = surrogate.forward(constant(leaked_cut), params)
    return mse(pred, np.repeat(leaked_labels, surrogate.out_dim, axis=-1))


def _capture_step(surrogate: FcNetwork, cut_shape: tuple[int, ...], leaked_cut: np.ndarray,
                  leaked_labels: np.ndarray, alpha: float) -> StepPlan:
    """The StepPlan of an attack step on batches of activations of
    cut_shape, captured from a tape over zeros: a zeroed copy of the
    surrogate, zero dummy labels, activations and recorded gradient. Its
    outputs, in order: the total loss, the inversion loss, the surrogate's
    parameter gradients (one flat region, in the layout of its flat buffer)
    and the dummy-label gradient. Its inputs are the surrogate's parameters,
    the dummy-label batch, the activations and the recorded gradient; the
    leaked pairs stay fixed for the whole attack and enter as constants."""
    surrogate = surrogate.copy()
    surrogate.flat[...] = 0.0
    tape = Tape()
    params = surrogate.attach(tape)
    dummy_batch = tape.leaf(np.zeros((*cut_shape[:-1], surrogate.out_dim)))
    cut = tape.leaf(np.zeros(cut_shape))
    recorded = tape.leaf(np.zeros(cut_shape))
    gi_loss, _ = gradient_inversion_loss(surrogate, params, cut, dummy_batch, recorded)
    mc_loss = model_completion_loss(surrogate, params, leaked_cut, leaked_labels)
    total = add(gi_loss, smul(mc_loss, alpha))
    # create_graph keeps every gradient a node the plan can name
    grads = backward(total, [*params, dummy_batch], create_graph=True)
    return StepPlan([*params, dummy_batch, cut, recorded],
                    [total, gi_loss, grads[:-1], grads[-1]])


def _best_column(candidates: np.ndarray, reference: np.ndarray) -> int:
    """Column of `candidates` closest (mean absolute) to the reference column;
    ties go to the lowest index."""
    errors = np.abs(candidates - reference).mean(axis=0)
    return int(np.argmin(errors))


@dataclass(frozen=True)
class AttackLane:
    """One attack of a lock-step group: the transcript and frozen bottom
    model of one training run, the attacker's leaked labels and settings,
    and the column its answer is read from (None: chosen by the leak)."""

    transcript: Transcript
    bottom: FcNetwork
    leaked: LeakedSet
    config: AttackConfig
    evaluation_column: int | None = None


def run_attack(transcript: Transcript, bottom: FcNetwork, train: Dataset,
               leaked: LeakedSet, config: AttackConfig,
               test: Dataset | None = None,
               evaluation_column: int | None = None) -> AttackResult:
    """Full attack: joint optimization of surrogate and dummy labels against
    every record of the transcript, then evaluation of the inferred training
    labels and, when a test split is given, of the completed model's test
    predictions. This is attack_lanes with one lane.

    With a multi-column surrogate the reported metrics read one column of the
    dummy labels / completed model. `evaluation_column=None` lets the attacker
    pick it by agreement with its leaked labels (strongest attacker);
    an explicit index scores the attack at a caller-known column instead,
    e.g. the defender's secret label slot when measuring what leaked about
    the real labels.
    """
    lane = AttackLane(transcript, bottom, leaked, config, evaluation_column)
    return attack_lanes([lane], train, test=test)[0]


def _check_lane(lane: AttackLane, train: Dataset, where: str) -> list:
    """The lane's records, after checking it against the dataset, one record
    at a time: every record must name at least one sample, every replayed
    index must name a training sample, no record may name one twice
    (RowwiseAdam steps distinct rows), and every recorded gradient must
    have the first one's width. The first record with no samples or an
    index out of range is refused, before the first record that repeats an
    index, before the first gradient of another width; no array is built
    from more than one record. A bad record is named by its epoch and its
    batch, its place among that epoch's records (see Transcript)."""
    records = lane.transcript.records
    if not records:
        raise AttackError(f"{where}transcript has no records")

    def refuse(k: int, problem: str):
        epoch = records[k].epoch
        batch = sum(rec.epoch == epoch for rec in records[:k])
        raise AttackError(f"{where}transcript epoch {epoch}, batch {batch} {problem}")

    repeat = None  # the first record that repeats an index, and that index
    for k, rec in enumerate(records):
        if not rec.indices.size:
            refuse(k, "holds no samples")
        # a sorted record ends in its extremes and repeats an index next to it
        ordered = np.sort(rec.indices)
        if ordered[0] < 0 or ordered[-1] >= train.n:
            bad = rec.indices[(rec.indices < 0) | (rec.indices >= train.n)]
            refuse(k, f"holds sample index {bad[0]}, outside the {train.n} training samples")
        if repeat is None:
            same = ordered[1:] == ordered[:-1]
            if same.any():
                repeat = k, ordered[1:][same][0]
    if repeat is not None:
        refuse(repeat[0], f"names sample index {repeat[1]} more than once")
    cut_dim = records[0].gradient.shape[1]
    for k, rec in enumerate(records):
        if rec.gradient.shape[1] != cut_dim:
            refuse(k, f"has a gradient of width {rec.gradient.shape[1]}, "
                      f"not the first record's {cut_dim}")
    if lane.bottom.out_dim != cut_dim:
        raise AttackError(f"{where}bottom model output dim {lane.bottom.out_dim} "
                          f"!= transcript cut dim {cut_dim}")
    if lane.bottom.in_dim != train.d:
        raise AttackError(f"{where}bottom model and dataset disagree on the feature count")
    dims = lane.config.surrogate_dims
    if dims and dims[0] != cut_dim:
        raise AttackError(f"{where}surrogate input dim {dims[0]} != cut dim {cut_dim}")
    return records


def _lock_step_settings(lane: AttackLane, records: list) -> dict:
    """The settings every lane of a lock-step attack must share: each attack
    setting but the seed, the replayed batch sizes, the leaked-set size and
    the bottom model's architecture."""
    settings = {f.name: getattr(lane.config, f.name)
                for f in fields(lane.config) if f.name != "seed"}
    return {**settings, "replayed batch sizes": [rec.indices.size for rec in records],
            "leaked-set size": len(lane.leaked.labels),
            "bottom-model architecture": lane.bottom.architecture}


def _blocks(batch_idx: list[np.ndarray], rows_shape: tuple[int, ...]) -> list[range]:
    """The replayed records, by position, split into blocks: from the
    first record on, the longest runs of consecutive records in which no
    lane's records share a row. In a transcript that training writes, a
    block is one training epoch. `batch_idx` holds each record's indices
    (lanes x batch, or batch for one lane) into rows of `rows_shape`."""
    # per lane and row, the position of the last record that names it
    last = np.full(rows_shape, -1)
    lane_axis = () if len(rows_shape) == 1 else (np.arange(rows_shape[0])[:, None],)
    starts = [0]
    for k, idx in enumerate(batch_idx):
        at = (*lane_axis, idx)
        if (last[at] >= starts[-1]).any():
            starts.append(k)
        last[at] = k
    return [range(start, stop) for start, stop in zip(starts, [*starts[1:], len(batch_idx)])]


def _stacked_gradients(records: list[list], batch_no: int, buffer: np.ndarray) -> np.ndarray:
    """The recorded gradients of every lane's record batch_no, as
    stack_lanes gives them; several lanes are stacked into the start of the
    flat `buffer`, which the next call overwrites."""
    grads = [recs[batch_no].gradient for recs in records]
    if len(grads) == 1:
        return grads[0]
    return np.stack(grads, out=buffer[:len(grads) * grads[0].size].reshape(
        len(grads), *grads[0].shape))


def attack_lanes(lanes: list[AttackLane], train: Dataset,
                 test: Dataset | None = None) -> list[AttackResult]:
    """Run several attacks on one dataset in lock-step; returns each lane's
    result, in lane order (see run_attack for what one attack does).

    The lanes share the settings of _lock_step_settings, a differing one
    named with both values: every attack setting but the seed, the bottom
    model's architecture, the leaked-set size, and the batch sizes of their
    transcripts, in the same order. Each keeps its own transcript (every
    record of which it replays), bottom model, leaked labels, surrogate and
    dummy labels. Surrogates and dummy labels are stacked along a lane axis,
    so one plan run per batch serves every lane, and each lane computes
    exactly what it would alone.

    A record gives the attack its indices and its recorded gradient; the
    attack reads nothing from the recorded activations, and the harness
    and `splitlab attack` hand it records without activations. Several
    lanes' recorded gradients are stacked at their step, into one buffer
    reused by every step, not held twice. It forms the frozen
    bottom model's activations once, as one table of every training
    sample's (n x cut per lane), and each step takes its batch's rows of it.
    The records are replayed in blocks (see _blocks): at a block's start its
    records' indices are joined into the block's rows, in one buffer reused
    by every block, so the attack holds one block's rows at a time. Within
    a block each step reads its dummy labels from one gather of those rows
    and leaves its dummy-label gradient in them, and one RowwiseAdam step
    over the rows ends the block, while the surrogate steps after every
    record. No row is read after another record of its block has moved it,
    so each row sees what a step per record would give it. A table row
    equals the row a forward pass over the batch alone gives wherever the
    BLAS computes each row of a matrix product the same at any place in the
    matrix; OpenBLAS does not for some narrow layer widths, whose last rows
    can then differ in their last bits.
    """
    if not lanes:
        raise AttackError("no attacks to run")
    count = len(lanes)
    config = lanes[0].config
    records = [_check_lane(lane, train, f"lane {r}: " if count > 1 else "")
               for r, lane in enumerate(lanes)]
    check_lock_step([_lock_step_settings(lane, recs) for lane, recs in zip(lanes, records)],
                    "attacks run in lock-step", AttackError)
    cut_dim = records[0][0].gradient.shape[1]
    dims = list(config.surrogate_dims) if config.surrogate_dims else [cut_dim, 1]

    surrogates = []
    dummies = []
    for lane in lanes:
        init_seed = int(np.random.SeedSequence([lane.config.seed, 0x5A]).generate_state(1)[0])
        surrogates.append(build_network(dims, activation=config.activation,
                                        seed=init_seed, role="surrogate"))
        rng = np.random.default_rng(np.random.SeedSequence([lane.config.seed, 0xDB]))
        dummies.append(rng.standard_normal((train.n, dims[-1])))
    surrogate = stack_networks(surrogates)
    bottom = stack_networks([lane.bottom for lane in lanes])
    dummy = stack_lanes(dummies)
    surrogate_opt = Adam.for_network(surrogate, lr=config.lr)
    dummy_opt = RowwiseAdam(dummy.shape, lr=config.lr)

    # The bottom model is frozen and the records and leaked pairs never
    # change, so the activations of every training sample (one n x cut table
    # per lane), each batch's indices, the blocks and the leaked activations
    # are formed once. A block's rows are joined at its start, into one
    # buffer that fits the largest block; several lanes' recorded gradients
    # are stacked at their step, into one buffer that fits the largest batch.
    cut_table = bottom.forward_values(stack_lanes([train.features] * count))
    batch_idx = [stack_lanes([rec.indices for rec in batch]) for batch in zip(*records)]
    blocks = _blocks(batch_idx, dummy.shape[:-1])
    block_sizes = [sum(batch_idx[k].shape[-1] for k in block) for block in blocks]
    rows_buffer = np.empty((*batch_idx[0].shape[:-1], max(block_sizes)), dtype=np.int64)
    grads_buffer = np.empty(count * max(idx.shape[-1] for idx in batch_idx) * cut_dim)
    leaked_cut = bottom.forward_values(stack_lanes([lane.leaked.features for lane in lanes]))
    leaked_labels = stack_lanes([lane.leaked.labels for lane in lanes])

    loss_traces: list[list[float]] = [[] for _ in lanes]
    inversion_traces: list[list[float]] = [[] for _ in lanes]
    # this epoch's per-batch losses, one row per lane
    totals = np.empty((count, len(batch_idx)))
    inversions = np.empty((count, len(batch_idx)))
    # one plan per batch shape: every batch but a short final one runs it
    plans: dict[tuple[int, ...], StepPlan] = {}
    surrogate_params = surrogate.parameters()
    for epoch in range(config.epochs):
        for block, size in zip(blocks, block_sizes):
            rows = np.concatenate([batch_idx[k] for k in block], axis=-1,
                                  out=rows_buffer[..., :size])
            block_dummy = gather_rows(dummy, rows)
            block_grad = np.empty_like(block_dummy)
            start = 0
            for batch_no in block:
                idx = batch_idx[batch_no]
                part = slice(start, start + idx.shape[-1])
                start = part.stop
                cut_values = gather_rows(cut_table, idx)
                recorded = _stacked_gradients(records, batch_no, grads_buffer)
                plan = plans.get(cut_values.shape)
                if plan is None:
                    plan = plans[cut_values.shape] = _capture_step(
                        surrogate, cut_values.shape, leaked_cut, leaked_labels, config.alpha)
                try:
                    outputs = plan.run([*surrogate_params, block_dummy[..., part, :],
                                        cut_values, recorded])
                except AutogradError as exc:
                    raise AttackError(
                        f"attack epoch {epoch}, batch {batch_no} diverged: {exc}") from exc
                total, gi_loss, w_grad, d_grad = outputs
                surrogate_opt.step(surrogate.flat, w_grad)
                block_grad[..., part, :] = d_grad
                totals[:, batch_no] = total.reshape(count)
                inversions[:, batch_no] = gi_loss.reshape(count)
            dummy_opt.step(dummy, rows, block_grad)
        for traces, values in ((loss_traces, totals), (inversion_traces, inversions)):
            for trace, per_lane in zip(traces, values):
                trace.append(float(np.mean(per_lane)))

    results = []
    for r, (lane, sur, dummy_r, leaked_cut_r) in enumerate(zip(
            lanes, surrogate.split(), split_lanes(dummy, count), split_lanes(leaked_cut, count))):
        leaked = lane.leaked
        if lane.evaluation_column is None:
            label_column = _best_column(dummy_r[leaked.indices], leaked.labels)
            model_column = _best_column(sur.forward_values(leaked_cut_r), leaked.labels)
        else:
            if not 0 <= lane.evaluation_column < sur.out_dim:
                raise AttackError(f"evaluation column {lane.evaluation_column} out of range")
            label_column = model_column = lane.evaluation_column
        inferred = dummy_r[:, [label_column]].copy()
        train_metrics = metric_pair(inferred, train.labels)

        test_predictions = None
        test_metrics = None
        if test is not None:
            completed = sur.forward_values(lane.bottom.forward_values(test.features))
            test_predictions = completed[:, [model_column]]
            test_metrics = metric_pair(test_predictions, test.labels)

        results.append(AttackResult(
            inferred_labels=inferred,
            test_predictions=test_predictions,
            train_metrics=train_metrics,
            test_metrics=test_metrics,
            loss_trace=loss_traces[r],
            inversion_trace=inversion_traces[r],
            label_column=label_column,
            model_column=model_column,
            dummy_labels=dummy_r,
        ))
    return results
