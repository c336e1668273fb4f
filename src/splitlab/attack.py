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

from dataclasses import dataclass, field

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
from .nn import Adam, FcNetwork, build_network
from .protocol import Transcript

__all__ = [
    "AttackError",
    "AttackConfig",
    "AttackState",
    "AttackResult",
    "RowwiseAdam",
    "gradient_inversion_loss",
    "model_completion_loss",
    "run_attack",
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
    are left exactly as they were."""

    def __init__(self, shape: tuple[int, int], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.counts = np.zeros(shape[0], dtype=np.int64)

    def step(self, values: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
        if grad.shape != (len(rows), values.shape[1]):
            raise ValueError(f"gradient shape {grad.shape} does not match rows")
        if not np.isfinite(grad).all():
            raise ValueError("non-finite gradient")
        self.counts[rows] += 1
        t = self.counts[rows][:, None].astype(np.float64)
        self.m[rows] = self.beta1 * self.m[rows] + (1 - self.beta1) * grad
        self.v[rows] = self.beta2 * self.v[rows] + (1 - self.beta2) * grad * grad
        m_hat = self.m[rows] / (1 - self.beta1 ** t)
        v_hat = self.v[rows] / (1 - self.beta2 ** t)
        values[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


@dataclass
class AttackState:
    """Mutable attacker state across epochs."""

    surrogate: FcNetwork
    dummy_labels: np.ndarray  # n_train x out_dim
    alpha: float
    surrogate_opt: Adam
    dummy_opt: RowwiseAdam
    epochs: int

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.dummy_labels.shape[1] != self.surrogate.out_dim:
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
                            dummy_batch: Tensor, recorded_grad: np.ndarray
                            ) -> tuple[Tensor, Tensor]:
    """Per-batch inversion loss for a surrogate already attached to `tape` and
    a dummy-label batch living on it.

    Returns (loss, match_term) where match_term measures how well the
    gradient induced by (surrogate, dummy labels) at the recorded activations
    reproduces the recorded gradient; the loss adds the anchor term
    mse(surrogate(cut), dummy). Both are differentiable in the surrogate
    parameters and the dummy labels.

    Gradients on the wire carry the mean-reduction of the batch loss, so
    their entries shrink with batch size; squaring that in a raw mse would
    leave the match term orders of magnitude below the anchor term and the
    inversion would stall. Both gradients are therefore compared in
    per-sample units (scaled by the batch row count), which makes the match
    term batch-size invariant and keeps the two terms commensurate.
    """
    if recorded_grad.shape != (cut_values.shape[0], surrogate.in_dim):
        raise AttackError(
            f"recorded gradient shape {recorded_grad.shape} does not match batch")
    cut = tape.leaf(cut_values)
    pred = surrogate.forward(cut)
    anchor = mse(pred, dummy_batch)
    (induced,) = backward(anchor, [cut], create_graph=True)
    per_sample = float(cut_values.shape[0])
    match = smul(mse(constant(recorded_grad), induced), per_sample ** 2)
    return add(match, anchor), match


def model_completion_loss(tape: Tape, surrogate: FcNetwork, leaked_cut: np.ndarray,
                          leaked_labels: np.ndarray) -> Tensor:
    """Fine-tuning loss on the leaked pairs: mse between the surrogate's
    outputs at the leaked activations and the leaked labels.

    When the surrogate is wider than one column (dimension-matched against a
    label-extension defense) the attacker cannot tell which output column
    carries the label, so the leaked labels are broadcast against every
    column; committing to a single column happens only at evaluation time."""
    if leaked_labels.size == 0:
        raise AttackError("leaked set is empty")
    pred = surrogate.forward(constant(leaked_cut))
    target = np.repeat(leaked_labels, surrogate.out_dim, axis=1)
    return mse(pred, constant(target))


def _best_column(candidates: np.ndarray, reference: np.ndarray) -> int:
    """Column of `candidates` closest (mean absolute) to the reference column;
    ties go to the lowest index."""
    errors = np.abs(candidates - reference).mean(axis=0)
    return int(np.argmin(errors))


def evaluate_attack(inferred: np.ndarray, truth: np.ndarray) -> MetricPair:
    return metric_pair(inferred, truth)


def run_attack(transcript: Transcript, bottom: FcNetwork, train: Dataset,
               leaked: LeakedSet, config: AttackConfig,
               test: Dataset | None = None,
               evaluation_column: int | None = None) -> AttackResult:
    """Full attack: joint optimization of surrogate and dummy labels against
    the transcript, then evaluation of the inferred training labels and, when
    a test split is given, of the completed model's test predictions.

    With a multi-column surrogate the reported metrics read one column of the
    dummy labels / completed model. `evaluation_column=None` lets the attacker
    pick it by agreement with its leaked labels (strongest attacker);
    an explicit index scores the attack at a caller-known column instead,
    e.g. the defender's secret label slot when measuring what leaked about
    the real labels.
    """
    records = transcript.last_epochs(config.transcript_window)
    if not records:
        raise AttackError("transcript has no records")
    cut_dim = records[0].activations.shape[1]
    if bottom.out_dim != cut_dim:
        raise AttackError(
            f"bottom model output dim {bottom.out_dim} != transcript cut dim {cut_dim}")
    if bottom.in_dim != train.d:
        raise AttackError("bottom model and dataset disagree on the feature count")

    dims = list(config.surrogate_dims) if config.surrogate_dims else [cut_dim, 1]
    if dims[0] != cut_dim:
        raise AttackError(f"surrogate input dim {dims[0]} != cut dim {cut_dim}")

    init_seed = int(np.random.SeedSequence([config.seed, 0x5A]).generate_state(1)[0])
    surrogate = build_network(dims, activation=config.activation,
                              seed=init_seed, role="surrogate")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xDB]))
    dummy = rng.standard_normal((train.n, surrogate.out_dim))

    state = AttackState(
        surrogate=surrogate,
        dummy_labels=dummy,
        alpha=config.alpha,
        surrogate_opt=Adam.for_network(surrogate, lr=config.lr),
        dummy_opt=RowwiseAdam(dummy.shape, lr=config.lr),
        epochs=config.epochs,
    )

    # The bottom model is frozen, so per-record activations and the leaked
    # activations never change; compute them once.
    cuts = [bottom.forward_values(train.features[r.indices]) for r in records]
    leaked_cut = bottom.forward_values(leaked.features)

    loss_trace: list[float] = []
    inversion_trace: list[float] = []
    for epoch in range(config.epochs):
        totals = []
        inversions = []
        for batch_no, (rec, cut_values) in enumerate(zip(records, cuts)):
            try:
                tape = Tape()
                handles = surrogate.attach(tape)
                dummy_batch = tape.leaf(state.dummy_labels[rec.indices])
                gi_loss, _ = gradient_inversion_loss(tape, surrogate, cut_values,
                                                     dummy_batch, rec.gradient)
                mc_loss = model_completion_loss(tape, surrogate, leaked_cut,
                                                leaked.labels)
                total = add(gi_loss, smul(mc_loss, config.alpha))
                *w_grads, d_grad = backward(total, [*handles, dummy_batch])
                surrogate.set_parameters(state.surrogate_opt.step(
                    surrogate.parameters(), [g.data for g in w_grads]))
                state.dummy_opt.step(state.dummy_labels, rec.indices, d_grad.data)
            except AutogradError as exc:
                raise AttackError(
                    f"attack epoch {epoch}, batch {batch_no} diverged: {exc}") from exc
            finally:
                surrogate.detach()
            totals.append(total.item())
            inversions.append(gi_loss.item())
        loss_trace.append(float(np.mean(totals)))
        inversion_trace.append(float(np.mean(inversions)))

    if evaluation_column is None:
        label_column = _best_column(state.dummy_labels[leaked.indices], leaked.labels)
        model_column = _best_column(surrogate.forward_values(leaked_cut), leaked.labels)
    else:
        if not 0 <= evaluation_column < surrogate.out_dim:
            raise AttackError(f"evaluation column {evaluation_column} out of range")
        label_column = model_column = evaluation_column
    inferred = state.dummy_labels[:, [label_column]].copy()
    train_metrics = evaluate_attack(inferred, train.labels)

    test_predictions = None
    test_metrics = None
    if test is not None:
        completed = surrogate.forward_values(bottom.forward_values(test.features))
        test_predictions = completed[:, [model_column]]
        test_metrics = evaluate_attack(test_predictions, test.labels)

    return AttackResult(
        inferred_labels=inferred,
        test_predictions=test_predictions,
        train_metrics=train_metrics,
        test_metrics=test_metrics,
        loss_trace=loss_trace,
        inversion_trace=inversion_trace,
        label_column=label_column,
        model_column=model_column,
        dummy_labels=state.dummy_labels,
    )
