import numpy as np
import pytest

from splitlab.attack import (
    AttackConfig,
    AttackError,
    AttackLane,
    RowwiseAdam,
    attack_lanes,
    completion_target,
    evaluate_attack,
    gradient_inversion_loss,
    model_completion_loss,
    run_attack,
)
from splitlab.autograd import Tape, add, backward, constant, smul
from splitlab.data import sample_leaked, split_standardize, synth_regression
from splitlab.defense import NoDefense
from splitlab.metrics import mean_value_baseline
from splitlab.nn import build_network
from splitlab.protocol import SplitSession, Transcript, train_split

from oracles import loop_mae_mse


@pytest.fixture(scope="module")
def frozen_run():
    """A protocol run with lr=0: recorded activations and gradients refer to
    exactly the parameters the attacker later works with."""
    ds = synth_regression(240, 4, noise_std=0.05, seed=31)
    train, test = split_standardize(ds, seed=31)
    bottom = build_network([4, 4], seed=1, role="bottom")
    top = build_network([4, 1], seed=2, role="top")
    session = SplitSession(bottom, top, NoDefense(), lr=0.0, batch_size=48,
                           epochs=2, seed=7)
    _, transcript, _ = train_split(session, train)
    return session, transcript, train, test


@pytest.fixture(scope="module")
def trained_run():
    ds = synth_regression(400, 4, noise_std=0.1, seed=17)
    train, test = split_standardize(ds, seed=17)
    bottom = build_network([4, 4], seed=3, role="bottom")
    top = build_network([4, 1], seed=4, role="top")
    session = SplitSession(bottom, top, NoDefense(), lr=0.01, batch_size=32,
                           epochs=30, seed=5)
    _, transcript, _ = train_split(session, train)
    return session, transcript, train, test


def test_gradient_match_is_zero_at_the_truth(frozen_run):
    # Copying the label party's top model into the surrogate and the true
    # labels into the dummy labels must reproduce every recorded gradient.
    session, transcript, train, _ = frozen_run
    for rec in transcript.last_epochs(1):
        surrogate = session.top.copy(role="surrogate")
        tape = Tape()
        surrogate.attach(tape)
        cut = session.bottom.forward_values(train.features[rec.indices])
        dummy_batch = tape.leaf(train.labels[rec.indices])
        _, match = gradient_inversion_loss(tape, surrogate, cut, dummy_batch,
                                           rec.gradient)
        assert match.item() < 1e-10


def test_anchor_term_zero_when_dummy_equals_prediction(frozen_run):
    session, transcript, train, _ = frozen_run
    rec = transcript.records[0]
    surrogate = session.top.copy(role="surrogate")
    cut = session.bottom.forward_values(train.features[rec.indices])

    tape = Tape()
    surrogate.attach(tape)
    dummy_batch = tape.leaf(surrogate.forward_values(cut))
    loss, match = gradient_inversion_loss(tape, surrogate, cut, dummy_batch,
                                          rec.gradient)
    # anchor = loss - match vanishes by construction
    assert loss.item() - match.item() == pytest.approx(0.0, abs=1e-15)


def test_inversion_loss_gradient_wrt_dummy_matches_fd(frozen_run):
    session, transcript, train, _ = frozen_run
    rec = transcript.records[0]
    cut = session.bottom.forward_values(train.features[rec.indices])
    rng = np.random.default_rng(3)
    dummy0 = rng.normal(size=(len(rec.indices), 1))
    surrogate = build_network([4, 1], seed=11, role="surrogate")

    def loss_at(dummy_values):
        tape = Tape()
        surrogate.attach(tape)
        batch = tape.leaf(dummy_values)
        loss, _ = gradient_inversion_loss(tape, surrogate, cut, batch, rec.gradient)
        surrogate.detach()
        return loss, batch

    loss, batch_handle = loss_at(dummy0)
    (analytic,) = backward(loss, [batch_handle])

    step = 1e-4
    numeric = np.zeros_like(dummy0)
    for i in range(dummy0.shape[0]):
        up, down = dummy0.copy(), dummy0.copy()
        up[i, 0] += step
        down[i, 0] -= step
        numeric[i, 0] = (loss_at(up)[0].item() - loss_at(down)[0].item()) / (2 * step)
    diff = np.abs(analytic.data - numeric)
    assert (diff <= np.maximum(1e-6, 1e-3 * np.abs(numeric))).all()


def test_inversion_loss_gradient_wrt_weights_matches_fd(frozen_run):
    session, transcript, train, _ = frozen_run
    rec = transcript.records[0]
    cut = session.bottom.forward_values(train.features[rec.indices])
    rng = np.random.default_rng(13)
    dummy0 = rng.normal(size=(len(rec.indices), 1))
    w0 = rng.normal(size=(4, 1)) * 0.5

    def loss_at(w_values):
        surrogate = build_network([4, 1], seed=0, role="surrogate")
        surrogate.layers[0].weight = w_values.copy()
        tape = Tape()
        handles = surrogate.attach(tape)
        batch = tape.leaf(dummy0)
        loss, _ = gradient_inversion_loss(tape, surrogate, cut, batch, rec.gradient)
        return loss, handles

    loss, handles = loss_at(w0)
    (analytic, _) = backward(loss, handles[:2])[0], None

    step = 1e-4
    numeric = np.zeros_like(w0)
    for i in range(w0.shape[0]):
        up, down = w0.copy(), w0.copy()
        up[i, 0] += step
        down[i, 0] -= step
        numeric[i, 0] = (loss_at(up)[0].item() - loss_at(down)[0].item()) / (2 * step)
    diff = np.abs(analytic.data - numeric)
    assert (diff <= np.maximum(1e-6, 1e-3 * np.abs(numeric))).all()


def test_model_completion_exact_predictor_zero(frozen_run):
    session, _, train, _ = frozen_run
    leaked = sample_leaked(train, 0.05, seed=1)
    surrogate = session.top.copy(role="surrogate")
    leaked_cut = session.bottom.forward_values(leaked.features)
    exact = surrogate.forward_values(leaked_cut)

    tape = Tape()
    surrogate.attach(tape)
    loss = model_completion_loss(tape, surrogate, leaked_cut, exact)
    assert loss.item() == 0.0


def test_model_completion_zero_weights_gives_mean_square(frozen_run):
    session, _, train, _ = frozen_run
    leaked = sample_leaked(train, 0.1, seed=2)
    surrogate = build_network([4, 1], seed=5)
    surrogate.layers[0].weight = np.zeros((4, 1))
    leaked_cut = session.bottom.forward_values(leaked.features)

    tape = Tape()
    surrogate.attach(tape)
    loss = model_completion_loss(tape, surrogate, leaked_cut, leaked.labels)
    assert loss.item() == pytest.approx(float((leaked.labels ** 2).mean()), abs=1e-12)


def test_model_completion_gradient_matches_fd(frozen_run):
    session, _, train, _ = frozen_run
    leaked = sample_leaked(train, 0.1, seed=3)
    leaked_cut = session.bottom.forward_values(leaked.features)
    rng = np.random.default_rng(23)
    w0 = rng.normal(size=(4, 1))

    def loss_at(w):
        surrogate = build_network([4, 1], seed=0)
        surrogate.layers[0].weight = w.copy()
        tape = Tape()
        handles = surrogate.attach(tape)
        return model_completion_loss(tape, surrogate, leaked_cut, leaked.labels), handles

    loss, handles = loss_at(w0)
    (analytic,) = backward(loss, [handles[0]])

    step = 1e-4
    numeric = np.zeros_like(w0)
    for i in range(4):
        up, down = w0.copy(), w0.copy()
        up[i, 0] += step
        down[i, 0] -= step
        numeric[i, 0] = (loss_at(up)[0].item() - loss_at(down)[0].item()) / (2 * step)
    diff = np.abs(analytic.data - numeric)
    assert (diff <= np.maximum(1e-6, 1e-3 * np.abs(numeric))).all()


def test_model_completion_rejects_empty_leak():
    surrogate = build_network([4, 1], seed=0)
    tape = Tape()
    surrogate.attach(tape)
    with pytest.raises(AttackError):
        model_completion_loss(tape, surrogate, np.zeros((0, 4)), np.zeros((0, 1)))


def test_evaluate_attack_examples():
    exact = evaluate_attack(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
    assert (exact.mae, exact.mse) == (0.0, 0.0)
    off = evaluate_attack(np.array([[0.0], [0.0]]), np.array([[1.0], [-1.0]]))
    assert (off.mae, off.mse) == (1.0, 1.0)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(30, 1)), rng.normal(size=(30, 1))
    got = evaluate_attack(a, b)
    mae, mse = loop_mae_mse(a, b)
    assert abs(got.mae - mae) < 1e-12 and abs(got.mse - mse) < 1e-12


def test_rowwise_adam_touches_only_given_rows():
    opt = RowwiseAdam((6, 2), lr=0.1)
    values = np.zeros((6, 2))
    rows = np.array([1, 4])
    opt.step(values, rows, np.ones((2, 2)))
    untouched = np.delete(values, rows, axis=0)
    assert np.array_equal(untouched, np.zeros((4, 2)))
    assert (values[rows] != 0).all()
    assert opt.counts.tolist() == [0, 1, 0, 0, 1, 0]


def test_alpha_zero_total_trace_equals_inversion_trace(trained_run):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=5)
    cfg = AttackConfig(alpha=0.0, epochs=3, seed=9, transcript_window=2)
    result = run_attack(transcript, session.bottom, train, leaked, cfg)
    assert result.loss_trace == result.inversion_trace


def test_attack_is_deterministic(trained_run):
    session, transcript, train, test = trained_run
    leaked = sample_leaked(train, 0.02, seed=6)
    cfg = AttackConfig(epochs=3, seed=12, transcript_window=2)
    r1 = run_attack(transcript, session.bottom, train, leaked, cfg, test=test)
    r2 = run_attack(transcript, session.bottom, train, leaked, cfg, test=test)
    assert np.array_equal(r1.inferred_labels, r2.inferred_labels)
    assert r1.loss_trace == r2.loss_trace
    assert r1.train_metrics == r2.train_metrics
    assert r1.test_metrics == r2.test_metrics


def test_attack_loss_mostly_decreases(trained_run):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=7)
    cfg = AttackConfig(epochs=12, seed=3, transcript_window=5)
    result = run_attack(transcript, session.bottom, train, leaked, cfg)
    drops = sum(b <= a for a, b in zip(result.loss_trace, result.loss_trace[1:]))
    assert drops / (len(result.loss_trace) - 1) >= 0.9


def test_attack_beats_mean_baseline_without_defense(trained_run):
    session, transcript, train, test = trained_run
    leaked = sample_leaked(train, 0.02, seed=8)
    cfg = AttackConfig(epochs=25, seed=1, transcript_window=30)
    result = run_attack(transcript, session.bottom, train, leaked, cfg, test=test)
    baseline = mean_value_baseline(train.labels, train.labels)
    assert result.train_metrics.mae < baseline.mae
    assert result.test_metrics is not None


def test_attack_validations(trained_run):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=9)
    wrong_bottom = build_network([4, 7], seed=0)
    with pytest.raises(AttackError):
        run_attack(transcript, wrong_bottom, train, leaked, AttackConfig(epochs=1))
    with pytest.raises(AttackError):
        run_attack(transcript, session.bottom, train, leaked,
                   AttackConfig(epochs=1, surrogate_dims=[5, 1]))
    from splitlab.protocol import Transcript
    with pytest.raises(AttackError):
        run_attack(Transcript(), session.bottom, train, leaked, AttackConfig(epochs=1))


def test_divergence_names_epoch_batch_and_op(frozen_run):
    session, transcript, train, _ = frozen_run
    from splitlab.protocol import Transcript, TranscriptRecord
    blown = Transcript([TranscriptRecord(r.epoch, r.indices, r.activations, r.gradient * 1e300)
                        for r in transcript.records])
    leaked = sample_leaked(train, 0.05, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AttackError, match=r"attack epoch 0, batch 0 diverged: "
                                              r"non-finite values produced by 'mse'"):
            run_attack(blown, session.bottom, train, leaked, AttackConfig(epochs=1))


def test_rowwise_adam_lanes_step_each_lane_alone():
    rng = np.random.default_rng(19)
    stacked = RowwiseAdam((3, 6, 2), lr=0.1)
    alone = [RowwiseAdam((6, 2), lr=0.1) for _ in range(3)]
    values = rng.normal(size=(3, 6, 2))
    singles = [v.copy() for v in values]
    for _ in range(3):
        rows = np.stack([rng.permutation(6)[:4] for _ in range(3)])
        grad = rng.normal(size=(3, 4, 2))
        stacked.step(values, rows, grad)
        for opt, v, r, g in zip(alone, singles, rows, grad):
            opt.step(v, r, g)
    for lane, (opt, v) in enumerate(zip(alone, singles)):
        assert values[lane].tobytes() == v.tobytes()
        assert np.array_equal(stacked.counts[lane], opt.counts)


def test_model_completion_accepts_prewrapped_constants(frozen_run):
    session, _, train, _ = frozen_run
    leaked = sample_leaked(train, 0.05, seed=4)
    surrogate = build_network([4, 3, 2], seed=8)
    leaked_cut = session.bottom.forward_values(leaked.features)
    tape = Tape()
    surrogate.attach(tape)
    plain = model_completion_loss(tape, surrogate, leaked_cut, leaked.labels)
    wrapped = model_completion_loss(tape, surrogate, constant(leaked_cut),
                                    completion_target(leaked.labels, 2))
    assert plain.data.tobytes() == wrapped.data.tobytes()


@pytest.mark.parametrize("width", [1, 2])
def test_lock_step_attack_matches_separate_attacks(width):
    ds = synth_regression(240, 4, noise_std=0.1, seed=13)
    train, test = split_standardize(ds, seed=13)
    lanes = []
    for lane, seed in enumerate((3, 8, 3)):
        bottom = build_network([4, 6, 4], seed=seed, role="bottom")
        top = build_network([4, 1], seed=seed + 1, role="top")
        session = SplitSession(bottom, top, NoDefense(), lr=0.01, batch_size=48,
                               epochs=3, seed=seed + lane)
        _, transcript, _ = train_split(session, train)
        leaked = sample_leaked(train, 0.05, seed=20 + lane)
        # a hidden surrogate layer takes the second-order inversion through it
        cfg = AttackConfig(epochs=2, seed=30 + lane, transcript_window=2,
                           surrogate_dims=[4, 3, width])
        lanes.append(AttackLane(transcript, session.bottom, leaked, cfg,
                                evaluation_column=[None, width - 1, None][lane]))
    together = attack_lanes(lanes, train, test=test)
    for lane, got in zip(lanes, together):
        want = run_attack(lane.transcript, lane.bottom, train, lane.leaked, lane.config,
                          test=test, evaluation_column=lane.evaluation_column)
        assert got.dummy_labels.tobytes() == want.dummy_labels.tobytes()
        assert got.inferred_labels.tobytes() == want.inferred_labels.tobytes()
        assert got.test_predictions.tobytes() == want.test_predictions.tobytes()
        assert got.loss_trace == want.loss_trace
        assert got.inversion_trace == want.inversion_trace
        assert (got.label_column, got.model_column) == (want.label_column, want.model_column)
        assert (got.train_metrics, got.test_metrics) == (want.train_metrics, want.test_metrics)


def test_lock_step_attack_rejects_mismatched_lanes(trained_run):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=9)
    base = AttackLane(transcript, session.bottom, leaked, AttackConfig(epochs=1, seed=1))
    other = AttackLane(transcript, session.bottom, leaked, AttackConfig(epochs=2, seed=2))
    with pytest.raises(AttackError, match="lane 1"):
        attack_lanes([base, other], train)
    empty = AttackLane(Transcript(), session.bottom, leaked, AttackConfig(epochs=1))
    with pytest.raises(AttackError, match="lane 1: transcript has no records"):
        attack_lanes([base, empty], train)
