import numpy as np
import pytest

from splitlab.data import split_standardize, synth_regression
from splitlab.defense import (
    AdaptiveLabelExtension,
    GradientCompression,
    GradientNoise,
    LabelNoise,
    NoDefense,
    RandomLabelExtension,
)
from splitlab.metrics import mean_value_baseline, metric_pair
from splitlab.nn import build_network
from splitlab.protocol import (
    ProtocolError,
    SplitSession,
    Transcript,
    predict,
    train_lanes,
    train_split,
)


def make_session(train, cut_dim=4, defense=NoDefense(), lr=0.01, batch_size=32,
                 epochs=3, seed=0, bottom_hidden=(), top_hidden=()):
    from splitlab.defense import target_dim
    bottom = build_network([train.d, *bottom_hidden, cut_dim], seed=seed, role="bottom")
    top = build_network([cut_dim, *top_hidden, target_dim(defense)], seed=seed + 1, role="top")
    return SplitSession(bottom, top, defense, lr=lr, batch_size=batch_size,
                        epochs=epochs, seed=seed)


@pytest.fixture(scope="module")
def small_data():
    ds = synth_regression(200, 3, noise_std=0.05, seed=21)
    return split_standardize(ds, seed=21)


def test_record_count_invariant(small_data):
    train, _ = small_data
    session = make_session(train, epochs=3, batch_size=48)
    _, transcript, _ = train_split(session, train)
    import math
    assert len(transcript) == 3 * math.ceil(train.n / 48)


def test_batches_partition_each_epoch(small_data):
    train, _ = small_data
    session = make_session(train, epochs=2, batch_size=30)
    _, transcript, _ = train_split(session, train)
    for epoch in range(2):
        seen = np.concatenate([r.indices for r in transcript.records if r.epoch == epoch])
        assert sorted(seen.tolist()) == list(range(train.n))


def test_lr_zero_freezes_parameters_but_fills_transcript(small_data):
    train, _ = small_data
    session = make_session(train, lr=0.0, epochs=2)
    before = [p.copy() for p in session.bottom.parameters() + session.top.parameters()]
    _, transcript, _ = train_split(session, train)
    after = session.bottom.parameters() + session.top.parameters()
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert len(transcript) > 0


def test_linear_task_converges_close_to_least_squares():
    ds = synth_regression(500, 4, noise_std=0.1, seed=3, nonlinearity=0.0)
    train, _ = split_standardize(ds, seed=3)
    # least-squares oracle on the same design: the attainable floor
    design = np.hstack([train.features, np.ones((train.n, 1))])
    w, *_ = np.linalg.lstsq(design, train.labels, rcond=None)
    floor = float(((design @ w - train.labels) ** 2).mean())

    session = make_session(train, cut_dim=4, epochs=200, batch_size=50, seed=5)
    _, _, trace = train_split(session, train)
    assert trace[-1] < 0.05
    assert trace[-1] < max(4 * floor, 0.05)


def test_received_gradient_matches_recomputation_online(small_data):
    train, _ = small_data
    session = make_session(train, epochs=2, batch_size=40, bottom_hidden=(8,))
    train_split(session, train, consistency_check=True)  # raises on mismatch


def test_fixed_seeds_give_bit_identical_transcripts(small_data):
    train, _ = small_data

    def run():
        session = make_session(train, epochs=2, batch_size=32, seed=11)
        _, transcript, trace = train_split(session, train)
        return transcript, trace

    t1, trace1 = run()
    t2, trace2 = run()
    assert trace1 == trace2
    for a, b in zip(t1.records, t2.records):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.activations, b.activations)
        assert np.array_equal(a.gradient, b.gradient)


def test_compression_sparsity_in_transcript(small_data):
    train, _ = small_data
    rate = 0.5
    session = make_session(train, defense=GradientCompression(keep_rate=rate), epochs=1)
    _, transcript, _ = train_split(session, train)
    for r in transcript.records:
        assert np.count_nonzero(r.gradient) == int(np.floor(rate * r.gradient.size))


def test_adaptive_extension_nonlabel_columns_contribute_zero_loss(small_data):
    # With adaptive targets the whole-batch loss equals the loss restricted to
    # the label column (scaled by the width), every step.
    train, _ = small_data
    defense = AdaptiveLabelExtension(dims=4, label_index=2)
    session = make_session(train, defense=defense, epochs=1, batch_size=50)

    from splitlab.defense import adaptive_targets
    cut = session.bottom.forward_values(train.features[:50])
    y = train.labels[:50]
    targets = adaptive_targets(session.top, cut, y, 2)
    out = session.top.forward_values(cut)
    per_column = ((out - targets) ** 2).mean(axis=0)
    assert np.array_equal(per_column[[0, 1, 3]], np.zeros(3))
    _, _, trace = train_split(session, train)
    assert np.isfinite(trace).all()


def test_predict_extension_returns_label_column(small_data):
    train, _ = small_data
    defense = RandomLabelExtension(dims=4, label_index=2, noise_std=1.0)
    session = make_session(train, defense=defense, epochs=1)
    out = predict(session, train.features[:10])
    full = session.top.forward_values(session.bottom.forward_values(train.features[:10]))
    assert out.shape == (10, 1)
    assert np.array_equal(out[:, 0], full[:, 2])


def test_predict_no_defense_is_plain_composition(small_data):
    train, _ = small_data
    session = make_session(train, epochs=1)
    out = predict(session, train.features[:7])
    full = session.top.forward_values(session.bottom.forward_values(train.features[:7]))
    assert np.array_equal(out, full)


def test_trained_predictions_beat_mean_baseline(small_data):
    train, _ = small_data
    session = make_session(train, cut_dim=4, bottom_hidden=(8,), epochs=60,
                           batch_size=32, seed=2)
    train_split(session, train)
    fit = metric_pair(predict(session, train.features), train.labels)
    baseline = mean_value_baseline(train.labels, train.labels)
    assert fit.mae < baseline.mae


def test_session_validations(small_data):
    train, _ = small_data
    bottom = build_network([train.d, 4], seed=0)
    top_wrong = build_network([5, 1], seed=1)
    with pytest.raises(ProtocolError):
        SplitSession(bottom, top_wrong, NoDefense())
    top_narrow = build_network([4, 1], seed=1)
    with pytest.raises(ProtocolError):
        SplitSession(bottom, top_narrow, RandomLabelExtension(dims=4, label_index=0))
    ok = SplitSession(bottom, top_narrow, NoDefense(), batch_size=10_000)
    with pytest.raises(ProtocolError):
        train_split(ok, train)


def test_transcript_roundtrip(tmp_path, small_data):
    train, _ = small_data
    session = make_session(train, epochs=2, batch_size=64)
    _, transcript, _ = train_split(session, train)
    path = tmp_path / "run.transcript"
    transcript.save(path)
    loaded = Transcript.load(path)
    assert len(loaded) == len(transcript)
    for a, b in zip(transcript.records, loaded.records):
        assert a.epoch == b.epoch
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.activations, b.activations)
        assert np.array_equal(a.gradient, b.gradient)


def test_transcript_last_epochs(small_data):
    train, _ = small_data
    session = make_session(train, epochs=3, batch_size=64)
    _, transcript, _ = train_split(session, train)
    last = transcript.last_epochs(1)
    assert {r.epoch for r in last} == {2}
    assert transcript.epochs == 3


def test_transcript_rejects_garbage(tmp_path):
    p = tmp_path / "bad.transcript"
    p.write_bytes(b"definitely not a transcript")
    with pytest.raises(ProtocolError):
        Transcript.load(p)


@pytest.fixture
def saved_transcript(tmp_path, small_data):
    train, _ = small_data
    session = make_session(train, epochs=2, batch_size=64)
    _, transcript, _ = train_split(session, train)
    path = tmp_path / "run.transcript"
    transcript.save(path)
    return path, len(transcript)


def test_transcript_rejects_truncated_file(saved_transcript):
    path, count = saved_transcript
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(ProtocolError, match=rf"{path.name}: record {count - 1} gradient truncated"):
        Transcript.load(path)
    # a cut inside a record header is reported the same way, not as struct.error
    path.write_bytes(blob[:8 + 8 + 4])
    with pytest.raises(ProtocolError, match=rf"{path.name}: record 0 header truncated"):
        Transcript.load(path)


def test_transcript_rejects_trailing_bytes(saved_transcript):
    path, count = saved_transcript
    path.write_bytes(path.read_bytes() + b"\0" * 5)
    with pytest.raises(ProtocolError, match=rf"{path.name}: 5 trailing bytes after the last of {count} records"):
        Transcript.load(path)


def test_divergence_raises_with_context_before_any_update(small_data):
    train, _ = small_data
    session = make_session(train, epochs=1, batch_size=64)
    session.bottom.layers[0].weight[:] = 1e308
    before = [p.copy() for p in session.bottom.parameters() + session.top.parameters()]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ProtocolError, match=r"epoch 0, batch 0: non-finite values produced by 'matmul'"):
            train_split(session, train)
    after = session.bottom.parameters() + session.top.parameters()
    assert all(np.array_equal(b, a) for b, a in zip(before, after))
    assert session.top_opt.step_count == session.bottom_opt.step_count == 0


# --- lock-step lanes: each lane trains exactly as it would alone -------------

LANE_DEFENSES = {
    "none": [NoDefense(), NoDefense(), NoDefense()],
    "label_noise": [LabelNoise(0.1), LabelNoise(1.0, "gaussian"), LabelNoise(0.0)],
    "gradient_noise": [GradientNoise(0.01), GradientNoise(0.1, "gaussian"), GradientNoise(0.0)],
    "compression": [GradientCompression(0.25), GradientCompression(0.75),
                    GradientCompression(1.0)],
    "random_extension": [RandomLabelExtension(3, 0), RandomLabelExtension(3, 2, 0.5),
                         RandomLabelExtension(3, 1, 2.0)],
    "adaptive_extension": [AdaptiveLabelExtension(3, 1), AdaptiveLabelExtension(3, 0),
                           AdaptiveLabelExtension(3, 2)],
}


def lane_sessions(train, defenses):
    return [make_session(train, defense=d, epochs=3, batch_size=48, seed=seed,
                         bottom_hidden=(6,), top_hidden=(5,))
            for seed, d in zip((4, 9, 4), defenses)]


def assert_same_records(a, b):
    assert len(a.records) == len(b.records)
    for x, y in zip(a.records, b.records):
        assert x.epoch == y.epoch
        assert x.indices.tobytes() == y.indices.tobytes()
        assert x.activations.tobytes() == y.activations.tobytes()
        assert x.gradient.tobytes() == y.gradient.tobytes()


def assert_same_state(a, b):
    for net_a, net_b in ((a.bottom, b.bottom), (a.top, b.top)):
        for p, q in zip(net_a.parameters(), net_b.parameters()):
            assert p.tobytes() == q.tobytes()
    for opt_a, opt_b in ((a.bottom_opt, b.bottom_opt), (a.top_opt, b.top_opt)):
        assert opt_a.step_count == opt_b.step_count
        for p, q in zip(opt_a.m + opt_a.v, opt_b.m + opt_b.v):
            assert p.tobytes() == q.tobytes()


@pytest.mark.parametrize("kind", sorted(LANE_DEFENSES))
def test_lock_step_lanes_match_separate_runs(small_data, kind):
    train, _ = small_data
    defenses = LANE_DEFENSES[kind]
    alone = lane_sessions(train, defenses)
    together = lane_sessions(train, defenses)
    outcomes = train_lanes(together, train)
    for session, twin, (transcript, trace) in zip(alone, together, outcomes):
        _, expected, expected_trace = train_split(session, train)
        assert trace == expected_trace
        assert_same_records(transcript, expected)
        assert_same_state(twin, session)


def test_lock_step_keep_epochs_trims_only_old_records(small_data):
    train, _ = small_data
    defenses = LANE_DEFENSES["label_noise"][:2]
    full = train_lanes(lane_sessions(train, defenses)[:2], train)
    kept = train_lanes(lane_sessions(train, defenses)[:2], train, keep_epochs=1)
    for (transcript, trace), (trimmed, trimmed_trace) in zip(full, kept):
        assert trimmed_trace == trace
        assert_same_records(trimmed, Transcript(transcript.last_epochs(1)))


def test_lock_step_consistency_check_holds_per_lane(small_data):
    train, _ = small_data
    train_lanes(lane_sessions(train, LANE_DEFENSES["adaptive_extension"]), train,
                consistency_check=True)  # raises on mismatch


def test_lock_step_rejects_incompatible_sessions(small_data):
    train, _ = small_data
    mixed = lane_sessions(train, [NoDefense(), LabelNoise(0.1), NoDefense()])
    with pytest.raises(ProtocolError, match="lane 1"):
        train_lanes(mixed, train)
    wider = [make_session(train, top_hidden=(5,)), make_session(train, top_hidden=(6,))]
    with pytest.raises(ProtocolError, match="lock-step"):
        train_lanes(wider, train)
    with pytest.raises(ProtocolError):
        train_lanes([], train)


def test_lock_step_divergence_names_the_lane(small_data):
    train, _ = small_data
    sessions = lane_sessions(train, LANE_DEFENSES["none"])
    sessions[2].bottom.layers[0].weight[:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ProtocolError, match=r"epoch 0, batch 0: non-finite values "
                                                r"produced by 'matmul' \(lane 2\)"):
            train_lanes(sessions, train)
