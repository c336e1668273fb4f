"""Label inference from the recorded transcript.

The feature party replays its recorded per-batch (activations, gradient)
pairs against a surrogate top model and trainable dummy labels. The loss has
two parts: a gradient-matching term, in which the gradient of the surrogate's
own training loss w.r.t. the activations (a second-order quantity, obtained by
differentiating through a taped backward pass) must reproduce the recorded
gradient, and an anchor term tying the dummy labels to the surrogate's
predictions so the joint problem has isolated optima. A small amount of
leaked labels adds a fine-tuning term, weighted by alpha.

Threat model: the bottom model is the attacker's own and stays frozen. Under
a label-extension defense the attacker is assumed to know the extension width
(worst case for the defender) but not the secret label column; the column is
chosen attacker-side by agreement with the leaked labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autograd import (
    AutogradError,
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
    build_network,
    gather_rows,
    split_lanes,
    stack_lanes,
    stack_networks,
)
from .protocol import Transcript

__all__ = [
    "AttackError",
    "AttackConfig",
    "AttackState",
    "AttackResult",
    "AttackLane",
    "RowwiseAdam",
    "gradient_inversion_loss",
    "completion_target",
    "model_completion_loss",
    "run_attack",
    "attack_lanes",
    "evaluate_attack",
]


class AttackError(RuntimeError):
    pass


@dataclass(frozen=True)
class AttackConfig:
    alpha: float = 0.05          # weight of the leaked-label fine-tuning term
    lr: float = 0.01
    epochs: int = 50
    seed: int = 0
    surrogate_dims: list[int] | None = None  # default: [cut_dim, 1]
    activation: str = "relu"
    transcript_window: int = 1   # replay the last k training epochs

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.epochs < 1 or self.transcript_window < 1:
            raise ValueError("epochs and transcript_window must be >= 1")


class RowwiseAdam:
    """Adam over the rows of one big matrix, where each step touches only a
    subset of rows. Rows keep individual step counts, so rows outside a batch
    are left exactly as they were. With a lane axis (shape lanes x n x k)
    each lane is its own matrix and a step takes one row subset per lane."""

    def __init__(self, shape: tuple[int, ...], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.counts = np.zeros(shape[:-1], dtype=np.int64)

    def step(self, values: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
        if grad.shape != (*rows.shape, values.shape[-1]):
            raise ValueError(f"gradient shape {grad.shape} does not match rows")
        if not np.isfinite(grad).all():
            raise ValueError("non-finite gradient")
        at = rows if rows.ndim == 1 else (np.arange(len(rows))[:, None], rows)
        self.counts[at] += 1
        t = self.counts[at][..., None].astype(np.float64)
        self.m[at] = self.beta1 * self.m[at] + (1 - self.beta1) * grad
        self.v[at] = self.beta2 * self.v[at] + (1 - self.beta2) * grad * grad
        m_hat = self.m[at] / (1 - self.beta1 ** t)
        v_hat = self.v[at] / (1 - self.beta2 ** t)
        values[at] -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


@dataclass
class AttackState:
    """Mutable attacker state across epochs."""

    surrogate: FcNetwork
    dummy_labels: np.ndarray  # n_train x out_dim (per lane)
    alpha: float
    surrogate_opt: Adam
    dummy_opt: RowwiseAdam
    epochs: int

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.dummy_labels.shape[-1] != self.surrogate.out_dim:
            raise ValueError("dummy label width must match the surrogate output")


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


def gradient_inversion_loss(tape: Tape, surrogate: FcNetwork, cut_values: np.ndarray,
                            dummy_batch: Tensor, recorded_grad) -> tuple[Tensor, Tensor]:
    """Per-batch inversion loss for a surrogate already attached to `tape` and
    a dummy-label batch living on it.

    Returns (loss, match_term) where match_term measures how well the
    gradient induced by (surrogate, dummy labels) at the recorded activations
    reproduces the recorded gradient; the loss adds the anchor term
    mse(surrogate(cut), dummy). Both are differentiable in the surrogate
    parameters and the dummy labels. `recorded_grad` is an array, or a
    constant tensor wrapped once by a caller that replays it many times.

    Gradients on the wire carry the mean-reduction of the batch loss, so
    their entries shrink with batch size; squaring that in a raw mse would
    leave the match term orders of magnitude below the anchor term and the
    inversion would stall. Both gradients are therefore compared in
    per-sample units (scaled by the batch row count), which makes the match
    term batch-size invariant and keeps the two terms commensurate.
    """
    if recorded_grad.shape != (*cut_values.shape[:-1], surrogate.in_dim):
        raise AttackError(
            f"recorded gradient shape {recorded_grad.shape} does not match batch")
    cut = tape.leaf(cut_values)
    pred = surrogate.forward(cut)
    anchor = mse(pred, dummy_batch)
    (induced,) = backward(anchor, [cut], create_graph=True)
    per_sample = float(cut_values.shape[-2])
    match = smul(mse(_const(recorded_grad), induced), per_sample ** 2)
    return add(match, anchor), match


def completion_target(leaked_labels: np.ndarray, width: int) -> Tensor:
    """The leaked labels broadcast against every one of `width` surrogate
    output columns, as the constant target of model_completion_loss."""
    if leaked_labels.size == 0:
        raise AttackError("leaked set is empty")
    return constant(np.repeat(leaked_labels, width, axis=-1))


def model_completion_loss(tape: Tape, surrogate: FcNetwork, leaked_cut,
                          leaked_labels) -> Tensor:
    """Fine-tuning loss on the leaked pairs: mse between the surrogate's
    outputs at the leaked activations and the leaked labels.

    When the surrogate is wider than one column (dimension-matched against a
    label-extension defense) the attacker cannot tell which output column
    carries the label, so the leaked labels are broadcast against every
    column; committing to a single column happens only at evaluation time.

    Both inputs may be arrays. A caller that evaluates this loss every step
    passes them wrapped once instead: the activations as a constant tensor
    and the labels as the tensor completion_target made for this surrogate.
    """
    if not isinstance(leaked_labels, Tensor):
        leaked_labels = completion_target(leaked_labels, surrogate.out_dim)
    pred = surrogate.forward(_const(leaked_cut))
    return mse(pred, leaked_labels)


def _const(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _best_column(candidates: np.ndarray, reference: np.ndarray) -> int:
    """Column of `candidates` closest (mean absolute) to the reference column;
    ties go to the lowest index."""
    errors = np.abs(candidates - reference).mean(axis=0)
    return int(np.argmin(errors))


def evaluate_attack(inferred: np.ndarray, truth: np.ndarray) -> MetricPair:
    return metric_pair(inferred, truth)


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
    the transcript, then evaluation of the inferred training labels and, when
    a test split is given, of the completed model's test predictions. This
    is attack_lanes with one lane.

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
    """The lane's replayed records, after checking it against the dataset."""
    records = lane.transcript.last_epochs(lane.config.transcript_window)
    if not records:
        raise AttackError(f"{where}transcript has no records")
    cut_dim = records[0].activations.shape[1]
    if lane.bottom.out_dim != cut_dim:
        raise AttackError(f"{where}bottom model output dim {lane.bottom.out_dim} "
                          f"!= transcript cut dim {cut_dim}")
    if lane.bottom.in_dim != train.d:
        raise AttackError(f"{where}bottom model and dataset disagree on the feature count")
    dims = lane.config.surrogate_dims
    if dims and dims[0] != cut_dim:
        raise AttackError(f"{where}surrogate input dim {dims[0]} != cut dim {cut_dim}")
    return records


def attack_lanes(lanes: list[AttackLane], train: Dataset,
                 test: Dataset | None = None) -> list[AttackResult]:
    """Run several attacks on one dataset in lock-step; returns each lane's
    result, in lane order (see run_attack for what one attack does).

    The lanes share every attack setting but the seed, and their replayed
    transcript windows have the same batch sizes in the same order; each
    keeps its own transcript, bottom model, leaked labels, surrogate and
    dummy labels. Surrogates and dummy labels are stacked along a lane axis,
    so one tape walk per batch serves every lane, and each lane computes
    exactly what it would alone. With one lane nothing is stacked.
    """
    if not lanes:
        raise AttackError("no attacks to run")
    count = len(lanes)
    config = lanes[0].config
    records = [_check_lane(lane, train, f"lane {r}: " if count > 1 else "")
               for r, lane in enumerate(lanes)]
    for r, (lane, recs) in enumerate(zip(lanes, records)):
        if replace(lane.config, seed=config.seed) != config or \
                [x.indices.shape for x in recs] != [x.indices.shape for x in records[0]] or \
                lane.leaked.labels.shape != lanes[0].leaked.labels.shape:
            raise AttackError(
                f"lane {r}: attacks run in lock-step need the same settings (except "
                "the seed), replayed batch sizes and leaked-set size")
    cut_dim = records[0][0].activations.shape[1]
    dims = list(config.surrogate_dims) if config.surrogate_dims else [cut_dim, 1]

    surrogates = []
    dummies = []
    for lane in lanes:
        init_seed = int(np.random.SeedSequence([lane.config.seed, 0x5A]).generate_state(1)[0])
        surrogates.append(build_network(dims, activation=config.activation,
                                        seed=init_seed, role="surrogate"))
        rng = np.random.default_rng(np.random.SeedSequence([lane.config.seed, 0xDB]))
        dummies.append(rng.standard_normal((train.n, dims[-1])))
    if count == 1:
        surrogate, bottom = surrogates[0], lanes[0].bottom
    else:
        surrogate = stack_networks(surrogates)
        try:
            bottom = stack_networks([lane.bottom for lane in lanes])
        except ValueError as exc:
            raise AttackError(f"attacks cannot run in lock-step: {exc}") from exc
    dummy = stack_lanes(dummies)

    state = AttackState(
        surrogate=surrogate,
        dummy_labels=dummy,
        alpha=config.alpha,
        surrogate_opt=Adam.for_network(surrogate, lr=config.lr),
        dummy_opt=RowwiseAdam(dummy.shape, lr=config.lr),
        epochs=config.epochs,
    )

    # The bottom model is frozen and the records and leaked pairs never
    # change, so each batch's indices, activations and recorded gradient, and
    # the leaked activations with their broadcast labels, are formed once.
    batch_idx = [stack_lanes([rec.indices for rec in batch]) for batch in zip(*records)]
    batch_cuts = [bottom.forward_values(train.features[idx]) for idx in batch_idx]
    batch_grads = [constant(stack_lanes([rec.gradient for rec in batch]))
                   for batch in zip(*records)]
    leaked_cut = bottom.forward_values(stack_lanes([lane.leaked.features for lane in lanes]))
    leaked_cut_t = constant(leaked_cut)
    leaked_target = completion_target(stack_lanes([lane.leaked.labels for lane in lanes]),
                                      surrogate.out_dim)

    loss_traces: list[list[float]] = [[] for _ in lanes]
    inversion_traces: list[list[float]] = [[] for _ in lanes]
    # this epoch's per-batch losses, one row per lane
    totals = np.empty((count, len(batch_idx)))
    inversions = np.empty((count, len(batch_idx)))
    for epoch in range(config.epochs):
        for batch_no, (idx, cut_values, recorded_grad) in enumerate(
                zip(batch_idx, batch_cuts, batch_grads)):
            try:
                tape = Tape()
                handles = surrogate.attach(tape)
                dummy_batch = tape.leaf(gather_rows(state.dummy_labels, idx))
                gi_loss, _ = gradient_inversion_loss(tape, surrogate, cut_values,
                                                     dummy_batch, recorded_grad)
                mc_loss = model_completion_loss(tape, surrogate, leaked_cut_t, leaked_target)
                total = add(gi_loss, smul(mc_loss, config.alpha))
                *w_grads, d_grad = backward(total, [*handles, dummy_batch])
                surrogate.set_parameters(state.surrogate_opt.step(
                    surrogate.parameters(), [g.data for g in w_grads]))
                state.dummy_opt.step(state.dummy_labels, idx, d_grad.data)
            except AutogradError as exc:
                raise AttackError(
                    f"attack epoch {epoch}, batch {batch_no} diverged: {exc}") from exc
            finally:
                surrogate.detach()
            totals[:, batch_no] = total.data.reshape(count)
            inversions[:, batch_no] = gi_loss.data.reshape(count)
        for traces, values in ((loss_traces, totals), (inversion_traces, inversions)):
            for trace, per_lane in zip(traces, values):
                trace.append(float(np.mean(per_lane)))

    results = []
    for r, (lane, sur, dummy_r, leaked_cut_r) in enumerate(zip(
            lanes, surrogates if count == 1 else surrogate.split(),
            split_lanes(state.dummy_labels, count), split_lanes(leaked_cut, count))):
        leaked = lane.leaked
        if lane.evaluation_column is None:
            label_column = _best_column(dummy_r[leaked.indices], leaked.labels)
            model_column = _best_column(sur.forward_values(leaked_cut_r), leaked.labels)
        else:
            if not 0 <= lane.evaluation_column < sur.out_dim:
                raise AttackError(f"evaluation column {lane.evaluation_column} out of range")
            label_column = model_column = lane.evaluation_column
        inferred = dummy_r[:, [label_column]].copy()
        train_metrics = evaluate_attack(inferred, train.labels)

        test_predictions = None
        test_metrics = None
        if test is not None:
            completed = sur.forward_values(lane.bottom.forward_values(test.features))
            test_predictions = completed[:, [model_column]]
            test_metrics = evaluate_attack(test_predictions, test.labels)

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
