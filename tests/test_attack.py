import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from splitlab import attack as attack_module
from splitlab.attack import (
    AttackConfig,
    AttackError,
    AttackLane,
    RowwiseAdam,
    attack_lanes,
    gradient_inversion_loss,
    model_completion_loss,
    run_attack,
)
from splitlab.autograd import StepPlan, Tape, add, backward, constant, smul
from splitlab.data import sample_leaked, split_standardize, synth_regression
from splitlab.defense import NoDefense
from splitlab.harness import _failed_lane
from splitlab.metrics import mean_value_baseline
from splitlab.nn import Adam, FcNetwork, Layer, build_network, stack_lanes, stack_networks
from splitlab.protocol import SplitSession, Transcript, TranscriptRecord, train_split

from oracles import per_record_replay


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
    for rec in transcript.last_epochs(1).records:
        surrogate = session.top.copy(role="surrogate")
        tape = Tape()
        params = surrogate.attach(tape)
        cut = tape.leaf(session.bottom.forward_values(train.features[rec.indices]))
        dummy_batch = tape.leaf(train.labels[rec.indices])
        _, match = gradient_inversion_loss(surrogate, params, cut, dummy_batch, rec.gradient)
        assert match.item() < 1e-10


@pytest.mark.parametrize("untaped", [np.asarray, constant], ids=["array", "constant"])
def test_gradient_inversion_loss_refuses_an_untaped_cut(frozen_run, untaped):
    # the induced gradient is taken w.r.t. the cut, so it must be a leaf the
    # caller made on the tape
    session, transcript, train, _ = frozen_run
    rec = transcript.records[0]
    surrogate = session.top.copy(role="surrogate")
    tape = Tape()
    params = surrogate.attach(tape)
    cut = untaped(session.bottom.forward_values(train.features[rec.indices]))
    with pytest.raises(AttackError, match=r"^the cut activations must be a tape leaf, not an "
                                          rf"untaped {type(cut).__name__}$"):
        gradient_inversion_loss(surrogate, params, cut, tape.leaf(train.labels[rec.indices]),
                                rec.gradient)


def test_anchor_term_zero_when_dummy_equals_prediction(frozen_run):
    session, transcript, train, _ = frozen_run
    rec = transcript.records[0]
    surrogate = session.top.copy(role="surrogate")
    cut = session.bottom.forward_values(train.features[rec.indices])

    tape = Tape()
    params = surrogate.attach(tape)
    dummy_batch = tape.leaf(surrogate.forward_values(cut))
    loss, match = gradient_inversion_loss(surrogate, params, tape.leaf(cut), dummy_batch,
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
        params = surrogate.attach(tape)
        batch = tape.leaf(dummy_values)
        loss, _ = gradient_inversion_loss(surrogate, params, tape.leaf(cut), batch,
                                          rec.gradient)
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
        params = surrogate.attach(tape)
        batch = tape.leaf(dummy0)
        loss, _ = gradient_inversion_loss(surrogate, params, tape.leaf(cut), batch,
                                          rec.gradient)
        return loss, params

    loss, params = loss_at(w0)
    (analytic, _) = backward(loss, params[:2])[0], None

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

    loss = model_completion_loss(surrogate, surrogate.attach(Tape()), leaked_cut, exact)
    assert loss.item() == 0.0


def test_model_completion_zero_weights_gives_mean_square(frozen_run):
    session, _, train, _ = frozen_run
    leaked = sample_leaked(train, 0.1, seed=2)
    surrogate = build_network([4, 1], seed=5)
    surrogate.layers[0].weight = np.zeros((4, 1))
    leaked_cut = session.bottom.forward_values(leaked.features)

    loss = model_completion_loss(surrogate, surrogate.attach(Tape()), leaked_cut, leaked.labels)
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
        params = surrogate.attach(Tape())
        return model_completion_loss(surrogate, params, leaked_cut, leaked.labels), params

    loss, params = loss_at(w0)
    (analytic,) = backward(loss, [params[0]])

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
    with pytest.raises(AttackError):
        model_completion_loss(surrogate, surrogate.attach(Tape()), np.zeros((0, 4)),
                              np.zeros((0, 1)))


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
    cfg = AttackConfig(alpha=0.0, epochs=3, seed=9)
    result = run_attack(transcript.last_epochs(2), session.bottom, train, leaked, cfg)
    assert result.loss_trace == result.inversion_trace


def test_attack_is_deterministic(trained_run):
    session, transcript, train, test = trained_run
    leaked = sample_leaked(train, 0.02, seed=6)
    cfg = AttackConfig(epochs=3, seed=12)
    window = transcript.last_epochs(2)
    r1 = run_attack(window, session.bottom, train, leaked, cfg, test=test)
    r2 = run_attack(window, session.bottom, train, leaked, cfg, test=test)
    assert np.array_equal(r1.inferred_labels, r2.inferred_labels)
    assert r1.loss_trace == r2.loss_trace
    assert r1.train_metrics == r2.train_metrics
    assert r1.test_metrics == r2.test_metrics


def test_attack_loss_mostly_decreases(trained_run):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=7)
    cfg = AttackConfig(epochs=12, seed=3)
    result = run_attack(transcript.last_epochs(5), session.bottom, train, leaked, cfg)
    drops = sum(b <= a for a, b in zip(result.loss_trace, result.loss_trace[1:]))
    assert drops / (len(result.loss_trace) - 1) >= 0.9


def test_attack_beats_mean_baseline_without_defense(trained_run):
    session, transcript, train, test = trained_run
    leaked = sample_leaked(train, 0.02, seed=8)
    cfg = AttackConfig(epochs=25, seed=1)
    result = run_attack(transcript.last_epochs(30), session.bottom, train, leaked, cfg,
                        test=test)
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


def test_a_record_naming_one_sample_twice_is_refused_before_any_step(trained_run,
                                                                      monkeypatch):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=9)
    records = list(transcript.records)
    bad = records[285]
    indices = bad.indices.copy()
    indices[1] = indices[0]
    records[285] = TranscriptRecord(bad.epoch, indices, bad.activations, bad.gradient)

    def no_capture(*args, **kwargs):
        raise AssertionError("an attack step was captured")

    monkeypatch.setattr(attack_module, "_capture_step", no_capture)
    with pytest.raises(AttackError, match=rf"^transcript epoch 28, batch 5 names sample "
                                          rf"index {indices[0]} more than once$"):
        run_attack(Transcript(records).last_epochs(2), session.bottom, train, leaked,
                   AttackConfig(epochs=1))


def test_a_gradient_of_another_width_is_refused_before_any_step(trained_run, monkeypatch):
    # each record is whole on its own, and only its width differs from the
    # first record's
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=9)
    records = list(transcript.records)
    bad = records[283]
    records[283] = TranscriptRecord(bad.epoch, bad.indices, bad.activations[:, :3],
                                    bad.gradient[:, :3])

    def no_capture(*args, **kwargs):
        raise AssertionError("an attack step was captured")

    monkeypatch.setattr(attack_module, "_capture_step", no_capture)
    with pytest.raises(AttackError, match=r"^transcript epoch 28, batch 3 has a gradient of "
                                          r"width 3, not the first record's 4$"):
        run_attack(Transcript(records).last_epochs(2), session.bottom, train, leaked,
                   AttackConfig(epochs=1))


def test_a_record_with_no_samples_is_refused_before_any_step(trained_run, monkeypatch):
    session, transcript, train, _ = trained_run
    leaked = sample_leaked(train, 0.02, seed=9)
    records = list(transcript.records)
    width = records[0].gradient.shape[1]
    records[284] = TranscriptRecord(records[284].epoch, np.zeros(0, np.int64),
                                    np.zeros((0, width)), np.zeros((0, width)))

    def no_capture(*args, **kwargs):
        raise AssertionError("an attack step was captured")

    monkeypatch.setattr(attack_module, "_capture_step", no_capture)
    with pytest.raises(AttackError, match=r"^transcript epoch 28, batch 4 holds no samples$"):
        run_attack(Transcript(records).last_epochs(2), session.bottom, train, leaked,
                   AttackConfig(epochs=1))


def test_checking_a_transcript_makes_no_copy_of_its_indices():
    # 2000 records of 64: a copy of every replayed index would be 1 MB
    train, _ = split_standardize(synth_regression(160, 4, seed=3), seed=3)
    rng = np.random.default_rng(0)
    gradient = rng.normal(size=(64, 3))
    records = [TranscriptRecord(k // 2, rng.permutation(train.n)[:64], None, gradient)
               for k in range(2000)]
    index_bytes = sum(rec.indices.nbytes for rec in records)
    lane = AttackLane(Transcript(records), build_network([4, 3], seed=1, role="bottom"),
                      sample_leaked(train, 0.1, seed=0), AttackConfig(epochs=1))
    tracemalloc.start()
    try:
        attack_module._check_lane(lane, train, "")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < index_bytes / 10


def test_a_lock_step_attack_holds_no_second_copy_of_the_gradients():
    # 2 lanes of 500 records of 32 x 16: 4.1 MB of recorded gradients,
    # which a stack of every record's lanes would copy whole
    train, _ = split_standardize(synth_regression(200, 4, seed=3), seed=3)
    lanes = []
    for lane in range(2):
        rng = np.random.default_rng(lane)
        records = [TranscriptRecord(epoch, batch, None, rng.normal(scale=0.02, size=(32, 16)))
                   for epoch in range(100)
                   for batch in rng.permutation(train.n).reshape(-1, 32)]
        bottom = build_network([4, 16], seed=lane, role="bottom")
        lanes.append(AttackLane(Transcript(records), bottom, sample_leaked(train, 0.1, seed=lane),
                                AttackConfig(epochs=1, seed=lane)))
    gradient_bytes = sum(rec.gradient.nbytes for lane in lanes for rec in lane.transcript.records)
    tracemalloc.start()
    try:
        attack_lanes(lanes, train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 0.17 of it: the stacked indices (1/16 of it) and the plans
    assert peak < gradient_bytes / 4


def test_a_bad_record_is_named_by_its_epoch_and_batch_in_any_window(tmp_path):
    # epochs out of file order: the window keeps the records of epoch 2 at
    # file indices 1 and 3, and the bad one is that epoch's second batch.
    # With first=0 the window's first record also names sample 0 twice: an
    # index out of range is refused before any repeat, in any record.
    train, _ = split_standardize(synth_regression(40, 4, seed=2), seed=2)
    assert train.n == 32
    rng = np.random.default_rng(0)
    bottom = build_network([4, 3], seed=1, role="bottom")
    leaked = sample_leaked(train, 0.1, seed=0)
    message = ("^transcript epoch 2, batch 1 holds sample index 99, "
               "outside the 32 training samples$")
    for first in (1, 0):
        records = [TranscriptRecord(epoch, np.array([0, last]), rng.normal(size=(2, 3)),
                                    rng.normal(size=(2, 3)))
                   for epoch, last in ((0, 1), (2, first), (1, 1), (2, 99))]
        path = tmp_path / f"shuffled-{first}.transcript"
        Transcript(records).save(path)
        for window in (Transcript(records).last_epochs(1), Transcript.load(path, last_epochs=1)):
            with pytest.raises(AttackError, match=message):
                run_attack(window, bottom, train, leaked, AttackConfig(epochs=1))


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
        cfg = AttackConfig(epochs=2, seed=30 + lane, surrogate_dims=[4, 3, width])
        lanes.append(AttackLane(transcript.last_epochs(2), session.bottom, leaked, cfg,
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


@pytest.mark.parametrize("setting", ["epochs", "surrogate_dims", "replayed batch sizes",
                                     "leaked-set size", "bottom-model architecture"])
def test_lock_step_attack_names_the_lane_the_setting_and_both_values(trained_run, setting,
                                                                     monkeypatch):
    session, transcript, train, _ = trained_run
    base = AttackLane(transcript.last_epochs(2), session.bottom,
                      sample_leaked(train, 0.02, seed=9), AttackConfig(epochs=1, seed=1))
    other, here, there = {
        "epochs": (dict(config=AttackConfig(epochs=2, seed=2)), 2, 1),
        "surrogate_dims": (dict(config=AttackConfig(epochs=1, seed=2, surrogate_dims=[4, 2, 1])),
                           [4, 2, 1], None),
        # 320 training rows in batches of 32: 10 records an epoch
        "replayed batch sizes": (dict(transcript=transcript.last_epochs(1)), [32] * 10,
                                 [32] * 20),
        "leaked-set size": (dict(leaked=sample_leaked(train, 0.05, seed=9)), 16, 6),
        "bottom-model architecture": (dict(bottom=build_network([4, 6, 4], activation="tanh")),
                                      "[4, 6, 4] (tanh, identity)", "[4, 4] (identity)"),
    }[setting]

    def no_capture(*args, **kwargs):
        raise AssertionError("an attack step was captured")

    message = (f"lane 1: attacks run in lock-step need the same {setting}: "
               f"{here} here, {there} in lane 0")
    monkeypatch.setattr(attack_module, "_capture_step", no_capture)
    with pytest.raises(AttackError, match=rf"^{re.escape(message)}$"):
        attack_lanes([base, replace(base, **other)], train)


@pytest.mark.parametrize("override,message", [
    (dict(alpha=float("nan")), "alpha must be finite and >= 0, got nan"),
    (dict(alpha=float("inf")), "alpha must be finite and >= 0, got inf"),
    (dict(alpha=-0.5), "alpha must be finite and >= 0, got -0.5"),
    (dict(lr=-3), "lr must be finite and > 0, got -3"),
    (dict(lr=0.0), "lr must be finite and > 0, got 0.0"),
    (dict(lr=float("nan")), "lr must be finite and > 0, got nan"),
    (dict(lr=float("inf")), "lr must be finite and > 0, got inf"),
])
def test_attack_config_refuses_a_bad_alpha_or_learning_rate(override, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        AttackConfig(**override)


@pytest.mark.parametrize("field", ["epochs"])
@pytest.mark.parametrize("value", [0, -2])
def test_attack_config_names_the_count_below_one_and_its_value(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got {value}$"):
        AttackConfig(**{field: value})


# --- step plans: one capture per batch shape, every batch runs the plan ------

PLAN_SURROGATES = [([8, 1], "relu"), ([8, 16, 1], "relu"), ([8, 4, 2], "tanh")]


def plan_lanes(dims, act, count, epochs=2):
    """`count` attack lanes on a 240-row training split. Batches of 64 end in
    a short one of 48, so every replayed window holds two batch shapes."""
    ds = synth_regression(300, 4, noise_std=0.1, seed=41)
    train, test = split_standardize(ds, seed=41)
    assert train.n % 64 == 48
    lanes = []
    for lane in range(count):
        bottom = build_network([4, 8], seed=50 + lane, role="bottom")
        top = build_network([8, 1], seed=60 + lane, role="top")
        session = SplitSession(bottom, top, NoDefense(), lr=0.01, batch_size=64,
                               epochs=2, seed=70 + lane)
        _, transcript, _ = train_split(session, train)
        cfg = AttackConfig(lr=0.1, epochs=epochs, seed=80 + lane, surrogate_dims=dims,
                           activation=act)
        lanes.append(AttackLane(transcript.last_epochs(2), bottom,
                                sample_leaked(train, 0.05, seed=90 + lane), cfg))
    return lanes, train, test


def recording_plans(lanes, taped, log):
    """A StepPlan class for attack_lanes that appends each replayed batch's
    outputs to `log`. With taped=True run() tapes the step afresh from its
    arrays instead of replaying, which makes the attack a reference loop
    that tapes every step."""
    cfg = lanes[0].config
    acts = [cfg.activation] * (len(cfg.surrogate_dims) - 2) + ["identity"]
    bottom = lanes[0].bottom if len(lanes) == 1 else stack_networks([l.bottom for l in lanes])
    leaked_cut = bottom.forward_values(stack_lanes([l.leaked.features for l in lanes]))
    leaked_labels = stack_lanes([l.leaked.labels for l in lanes])

    def taped_step(arrays):
        *params, dummy, cut, recorded = arrays
        surrogate = FcNetwork([Layer(w, b, a) for w, b, a in zip(params[::2], params[1::2], acts)])
        tape = Tape()
        params = surrogate.attach(tape)
        dummy_batch = tape.leaf(dummy)
        gi_loss, _ = gradient_inversion_loss(surrogate, params, tape.leaf(cut), dummy_batch,
                                             tape.leaf(recorded))
        mc_loss = model_completion_loss(surrogate, params, leaked_cut, leaked_labels)
        total = add(gi_loss, smul(mc_loss, cfg.alpha))
        grads = backward(total, [*params, dummy_batch])
        return [total.data, gi_loss.data, np.concatenate([g.data for g in grads[:-1]], axis=None),
                grads[-1].data]

    class Recording(StepPlan):
        def run(self, arrays):
            outputs = taped_step(arrays) if taped else super().run(arrays)
            log.append([o.copy() for o in outputs])
            return outputs

    return Recording


@pytest.mark.parametrize("count", [1, 3], ids=["one_lane", "three_lanes"])
@pytest.mark.parametrize("dims,act", PLAN_SURROGATES,
                         ids=[f"{a}{d}" for d, a in PLAN_SURROGATES])
def test_replayed_batches_equal_a_loop_that_tapes_every_step(monkeypatch, dims, act, count):
    lanes, train, test = plan_lanes(dims, act, count)
    runs = []
    for taped in (False, True):
        log = []
        monkeypatch.setattr(attack_module, "StepPlan", recording_plans(lanes, taped, log))
        runs.append((attack_lanes(lanes, train, test=test), log))
    (replayed, replayed_log), (reference, reference_log) = runs
    # 2 epochs x 8 batches, every one of them run from the plans
    assert len(replayed_log) == len(reference_log) == 16
    for got, want in zip(replayed_log, reference_log):
        assert [o.tobytes() for o in got] == [o.tobytes() for o in want]
    for got, want in zip(replayed, reference):
        assert got.dummy_labels.tobytes() == want.dummy_labels.tobytes()
        assert got.test_predictions.tobytes() == want.test_predictions.tobytes()
        assert got.loss_trace == want.loss_trace
        assert got.inversion_trace == want.inversion_trace


def test_an_attack_captures_one_plan_per_batch_shape(monkeypatch):
    # three epochs over full batches and a short final one: two captures, and
    # every step runs them (a fallback to taping would capture more)
    lanes, train, _ = plan_lanes([8, 1], "relu", 1, epochs=3)
    captured = []

    class Counting(StepPlan):
        def __init__(self, inputs, outputs):
            super().__init__(inputs, outputs)
            captured.append(inputs[-1].shape)

    monkeypatch.setattr(attack_module, "StepPlan", Counting)
    run_attack(lanes[0].transcript, lanes[0].bottom, train, lanes[0].leaked, lanes[0].config)
    assert captured == [(64, 8), (48, 8)]


@pytest.mark.parametrize("count", [1, 3], ids=["one_lane", "three_lanes"])
@pytest.mark.parametrize("kind,op", [("overflow", "mse"), ("nan", "leaf")])
def test_divergence_on_a_replayed_batch_is_named_like_the_taped_step(monkeypatch, count,
                                                                     kind, op):
    lanes, train, _ = plan_lanes([8, 16, 1], "relu", count)
    bad = min(1, count - 1)
    records = list(lanes[bad].transcript.records)
    rec = records[2]  # batch 2 of attack epoch 0: a run of the full-batch plan
    if kind == "overflow":
        gradient = rec.gradient * 1e300
    else:
        gradient = rec.gradient.copy()
        gradient[3, 1] = np.nan
    records[2] = TranscriptRecord(rec.epoch, rec.indices, rec.activations, gradient)
    lanes[bad] = replace(lanes[bad], transcript=Transcript(records))
    lane_tag = "" if count == 1 else f" (lane {bad})"
    errors = []
    for taped in (False, True):
        monkeypatch.setattr(attack_module, "StepPlan", recording_plans(lanes, taped, []))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AttackError) as info:
                attack_lanes(lanes, train)
        errors.append(str(info.value))
        assert _failed_lane(info.value) == (None if count == 1 else bad)
    assert re.fullmatch(rf"attack epoch 0, batch 2 diverged: non-finite values "
                        rf"produced by '{op}'{re.escape(lane_tag)}", errors[0])
    assert errors[1] == errors[0]


# --- the cut table and the blocks: the replay equals a step per record -------

def lane_batches(lanes):
    """Each replayed batch's indices, stacked over the lanes."""
    return [stack_lanes([rec.indices for rec in batch])
            for batch in zip(*(lane.transcript.records for lane in lanes))]


@pytest.mark.parametrize("count", [1, 3], ids=["one_lane", "three_lanes"])
def test_each_step_reads_its_batch_rows_of_the_cut_table(monkeypatch, count):
    # batches of 64 and a short final one of 48: every step's activations are
    # the bytes a forward pass over that batch alone gives
    lanes, train, _ = plan_lanes([8, 1], "relu", count)
    cuts = []

    class Recording(StepPlan):
        def run(self, arrays):
            cuts.append(arrays[-2].copy())
            return super().run(arrays)

    monkeypatch.setattr(attack_module, "StepPlan", Recording)
    attack_lanes(lanes, train)
    bottom = stack_networks([lane.bottom for lane in lanes])
    batches = lane_batches(lanes)
    assert [idx.shape[-1] for idx in batches] == [64, 64, 64, 48] * 2
    want = [bottom.forward_values(train.features[idx]) for idx in batches] * 2
    assert [c.tobytes() for c in cuts] == [w.tobytes() for w in want]


@pytest.mark.parametrize("lanes", [None, 3])
def test_one_rowwise_adam_step_over_a_block_equals_a_step_per_record(lanes):
    rng = np.random.default_rng(23)
    lead = () if lanes is None else (lanes,)
    shape = (*lead, 20, 3)
    per_record, per_block = RowwiseAdam(shape, lr=0.1), RowwiseAdam(shape, lr=0.1)
    values = rng.normal(size=shape)
    blocked = values.copy()
    for _ in range(3):
        order = rng.permutation(20) if lanes is None else np.stack(
            [rng.permutation(20) for _ in range(lanes)])
        rows = [order[..., :6], order[..., 6:12], order[..., 12:16]]  # disjoint records
        grads = [rng.normal(size=(*r.shape, 3)) for r in rows]
        for r, g in zip(rows, grads):
            per_record.step(values, r, g)
        per_block.step(blocked, np.concatenate(rows, axis=-1), np.concatenate(grads, axis=-2))
    assert blocked.tobytes() == values.tobytes()
    for name in ("counts", "m", "v"):
        assert getattr(per_block, name).tobytes() == getattr(per_record, name).tobytes()
    # rows left out of some blocks: the rows' step counts differ
    assert per_record.counts.max() == 3 and per_record.counts.min() < 3


def test_blocks_of_a_training_transcript_are_its_epochs():
    lanes, _, _ = plan_lanes([8, 1], "relu", 3)
    batches = lane_batches(lanes)
    assert attack_module._blocks(batches, (3, 240)) == [range(0, 4), range(4, 8)]


def handmade_lane(rows, seed, train):
    """A lane over records of the given rows, all of epoch 0. Activations
    are NaN: the attack must not read them."""
    rng = np.random.default_rng(seed)
    records = [TranscriptRecord(0, np.array(r), np.full((len(r), 4), np.nan),
                                rng.normal(scale=0.02, size=(len(r), 4))) for r in rows]
    bottom = build_network([4, 4], seed=seed, role="bottom")
    return AttackLane(Transcript(records), bottom, sample_leaked(train, 0.1, seed=seed),
                      AttackConfig(lr=0.05, epochs=3, seed=seed, surrogate_dims=[4, 3, 1]))


def reference_replay(lanes, train):
    """The attack's state after a replay of one step per record
    (oracles.per_record_replay): the dummy labels, the surrogate's flat
    buffer and the loss and inversion traces."""
    count, config = len(lanes), lanes[0].config
    dims = config.surrogate_dims
    surrogates, dummies = [], []
    for lane in lanes:
        init_seed = int(np.random.SeedSequence([lane.config.seed, 0x5A]).generate_state(1)[0])
        surrogates.append(build_network(dims, activation=config.activation, seed=init_seed,
                                        role="surrogate"))
        rng = np.random.default_rng(np.random.SeedSequence([lane.config.seed, 0xDB]))
        dummies.append(rng.standard_normal((train.n, dims[-1])))
    surrogate = stack_networks(surrogates)
    dummy = stack_lanes(dummies)
    bottom = stack_networks([lane.bottom for lane in lanes])
    leaked_cut = bottom.forward_values(stack_lanes([lane.leaked.features for lane in lanes]))
    leaked_labels = stack_lanes([lane.leaked.labels for lane in lanes])
    records = []
    for batch in zip(*(lane.transcript.records for lane in lanes)):
        rows = stack_lanes([rec.indices for rec in batch])
        records.append((rows, bottom.forward_values(train.features[rows]),
                        stack_lanes([rec.gradient for rec in batch])))
    surrogate_opt = Adam.for_network(surrogate, lr=config.lr)
    plans = {}

    def run_step(dummy_batch, cut, recorded):
        if cut.shape not in plans:
            plans[cut.shape] = attack_module._capture_step(surrogate, cut.shape, leaked_cut,
                                                           leaked_labels, config.alpha)
        return plans[cut.shape].run([*surrogate.parameters(), dummy_batch, cut, recorded])

    traces = per_record_replay(records, config.epochs, run_step,
                               lambda grad: surrogate_opt.step(surrogate.flat, grad),
                               dummy, RowwiseAdam(dummy.shape, lr=config.lr).step)
    return dummy, surrogate.flat, traces


def assert_replay_matches_the_reference(monkeypatch, lanes, train):
    steps = []

    class Watching(Adam):
        def step(self, params, grad):
            steps.append(params)
            super().step(params, grad)

    monkeypatch.setattr(attack_module, "Adam", Watching)
    results = attack_lanes(lanes, train)
    dummy, surrogate_flat, (loss_traces, inversion_traces) = reference_replay(lanes, train)
    assert steps[-1].tobytes() == surrogate_flat.tobytes()
    for r, result in enumerate(results):
        want = dummy if len(lanes) == 1 else dummy[r]
        assert result.dummy_labels.tobytes() == want.tobytes()
        assert result.loss_trace == loss_traces[r]
        assert result.inversion_trace == inversion_traces[r]


def test_replay_with_rows_shared_mid_epoch_equals_a_step_per_record(monkeypatch):
    train, _ = split_standardize(synth_regression(40, 4, seed=2), seed=2)
    assert train.n == 32
    # record 2 shares rows 12-15 with record 1, and record 4 row 0 with record 2
    rows = [range(0, 8), range(8, 16), [*range(12, 16), 0, 1, 2, 3], range(16, 24),
            [0, *range(24, 31)], [31, 4, 5]]
    lane = handmade_lane(rows, 3, train)
    batches = [rec.indices for rec in lane.transcript.records]
    assert attack_module._blocks(batches, (32,)) == [range(0, 2), range(2, 4), range(4, 6)]
    assert_replay_matches_the_reference(monkeypatch, [lane], train)


def test_two_lanes_that_share_rows_at_different_records_equal_a_step_per_record(
        monkeypatch):
    train, _ = split_standardize(synth_regression(40, 4, seed=2), seed=2)
    # lane 0 repeats a row at record 2, lane 1 at record 4: blocks end at both
    first = [range(0, 6), range(6, 12), range(9, 15), range(15, 21), range(21, 27), [27, 28]]
    second = [range(0, 6), range(6, 12), range(12, 18), range(18, 24), range(14, 20), [24, 25]]
    lanes = [handmade_lane(first, 5, train), handmade_lane(second, 6, train)]
    batches = lane_batches(lanes)
    assert attack_module._blocks(batches, (2, 32)) == [range(0, 2), range(2, 4), range(4, 6)]
    assert_replay_matches_the_reference(monkeypatch, lanes, train)
