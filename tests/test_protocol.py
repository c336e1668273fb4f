import re
import struct
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from splitlab import protocol as protocol_module
from splitlab.autograd import StepPlan, Tape, backward, mse, mul, sum_all
from splitlab.data import split_standardize, synth_regression
from splitlab.defense import (
    AdaptiveLabelExtension,
    Defense,
    GradientCompression,
    GradientNoise,
    LabelNoise,
    NoDefense,
    RandomLabelExtension,
)
from splitlab.metrics import mean_value_baseline, metric_pair
from splitlab.nn import FcNetwork, Layer, build_network, gather_rows, stack_networks
from splitlab.protocol import (
    ProtocolError,
    SplitSession,
    Transcript,
    TranscriptRecord,
    TranscriptWriter,
    predict,
    train_lanes,
    train_split,
)


def make_session(train, cut_dim=4, defense=NoDefense(), lr=0.01, batch_size=32,
                 epochs=3, seed=0, bottom_hidden=(), top_hidden=()):
    bottom = build_network([train.d, *bottom_hidden, cut_dim], seed=seed, role="bottom")
    top = build_network([cut_dim, *top_hidden, defense.output_dim], seed=seed + 1, role="top")
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


@pytest.mark.parametrize("lr", [-0.01, float("nan"), float("inf")])
def test_session_refuses_a_negative_or_non_finite_learning_rate(small_data, lr):
    train, _ = small_data
    with pytest.raises(ProtocolError, match=rf"^lr must be finite and >= 0, got {lr}$"):
        make_session(train, lr=lr)


@pytest.mark.parametrize("field", ["batch_size", "epochs"])
@pytest.mark.parametrize("value", [0, -3])
def test_session_names_the_count_below_one_and_its_value(small_data, field, value):
    train, _ = small_data
    with pytest.raises(ProtocolError, match=rf"^{field} must be >= 1, got {value}$"):
        make_session(train, **{field: value})


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
    assert {r.epoch for r in last.records} == {2}
    assert transcript.epochs == 3


# every malformed file is refused the same by a whole load and a replay load
LOAD_MODES = pytest.mark.parametrize("activations", [True, False], ids=["whole", "replay"])


@LOAD_MODES
def test_transcript_rejects_garbage(tmp_path, activations):
    p = tmp_path / "bad.transcript"
    p.write_bytes(b"definitely not a transcript")
    with pytest.raises(ProtocolError, match=f"^{re.escape(str(p))}: not a transcript file$"):
        Transcript.load(p, activations=activations)


@pytest.fixture
def saved_transcript(tmp_path, small_data):
    train, _ = small_data
    session = make_session(train, epochs=3, batch_size=64)
    _, transcript, _ = train_split(session, train)
    path = tmp_path / "run.transcript"
    transcript.save(path)
    return path, len(transcript)


@LOAD_MODES
def test_transcript_rejects_truncated_file(saved_transcript, activations):
    path, count = saved_transcript
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(ProtocolError, match=rf"{path.name}: record {count - 1} gradient truncated"):
        Transcript.load(path, activations=activations)
    # a cut inside a record header is reported the same way, not as struct.error
    path.write_bytes(blob[:8 + 8 + 4])
    with pytest.raises(ProtocolError, match=rf"{path.name}: record 0 header truncated"):
        Transcript.load(path, activations=activations)


@LOAD_MODES
def test_transcript_rejects_trailing_bytes(saved_transcript, activations):
    path, count = saved_transcript
    path.write_bytes(path.read_bytes() + b"\0" * 5)
    with pytest.raises(ProtocolError, match=rf"{path.name}: 5 trailing bytes after the last of {count} records"):
        Transcript.load(path, activations=activations)


# --- windowed reads and streamed writes ---------------------------------------

def test_a_windowed_load_equals_last_epochs_of_the_full_load(saved_transcript):
    path, _ = saved_transcript
    full = Transcript.load(path)
    for k in (1, 2, 3, None):
        window = Transcript.load(path, last_epochs=k)
        expected = full if k is None else full.last_epochs(k)
        assert_same_records(window, expected)
        assert window.epochs == full.epochs


def test_a_windowed_load_keeps_records_by_epoch_not_by_position(tmp_path):
    # epochs out of file order: the window is the rule of last_epochs, so the
    # record of epoch 1 between the two of epoch 2 is skipped
    rng = np.random.default_rng(0)
    records = [TranscriptRecord(epoch, np.arange(2), rng.normal(size=(2, 3)),
                                rng.normal(size=(2, 3))) for epoch in (0, 2, 1, 2)]
    path = tmp_path / "shuffled.transcript"
    Transcript(records).save(path)
    window = Transcript.load(path, last_epochs=1)
    assert_same_records(window, Transcript([records[1], records[3]]))


def test_a_streamed_transcript_file_equals_the_saved_one(tmp_path, small_data):
    train, _ = small_data
    held, streamed = (make_session(train, epochs=2, batch_size=48) for _ in range(2))
    _, transcript, _ = train_split(held, train)
    transcript.save(tmp_path / "saved")
    with TranscriptWriter(tmp_path / "streamed") as writer:
        _, unfilled, _ = train_split(streamed, train, sink=writer.append)
    assert len(unfilled) == 0
    assert (tmp_path / "streamed").read_bytes() == (tmp_path / "saved").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["saved", "streamed"]


@pytest.mark.parametrize("appended", [0, 1, 3])
def test_the_writer_fills_in_the_record_count_when_it_closes(tmp_path, appended):
    rng = np.random.default_rng(appended)
    records = [TranscriptRecord(epoch, rng.permutation(4)[:2], rng.normal(size=(2, 3)),
                                rng.normal(size=(2, 3))) for epoch in range(appended)]
    writer = TranscriptWriter(tmp_path / "streamed")
    for record in records:
        writer.append(record)
    writer.close()
    Transcript(records).save(tmp_path / "saved")
    blob = (tmp_path / "streamed").read_bytes()
    assert struct.unpack_from("<Q", blob, 8) == (appended,)
    assert blob == (tmp_path / "saved").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["saved", "streamed"]
    assert_same_records(Transcript.load(tmp_path / "streamed"), Transcript(records))


def test_the_writer_leaves_no_file_when_its_block_raises(tmp_path):
    with pytest.raises(ValueError):
        with TranscriptWriter(tmp_path / "run.transcript"):
            raise ValueError("training failed")
    assert list(tmp_path.iterdir()) == []


def test_the_writer_refuses_a_record_without_activations_and_leaves_no_file(tmp_path):
    rng = np.random.default_rng(4)
    whole = TranscriptRecord(0, np.arange(2), rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    replayed = TranscriptRecord(1, np.arange(2), None, rng.normal(size=(2, 3)))
    message = "^the record of epoch 1 has no activations: a transcript file holds whole records$"
    with pytest.raises(ProtocolError, match=message):
        with TranscriptWriter(tmp_path / "streamed") as writer:
            writer.append(whole)
            writer.append(replayed)
    with pytest.raises(ProtocolError, match=message):
        Transcript([whole, replayed]).save(tmp_path / "saved")
    assert list(tmp_path.iterdir()) == []


def test_a_record_kept_for_replay_ties_its_index_count_to_the_gradient_rows():
    assert TranscriptRecord(0, np.arange(2), None, np.zeros((2, 3))).activations is None
    with pytest.raises(ProtocolError, match="^index count does not match batch size$"):
        TranscriptRecord(0, np.arange(3), None, np.zeros((2, 3)))


@pytest.mark.parametrize("window,activations",
                         [(w, True) for w in (None, 1, 2)] + [(w, False) for w in (None, 1, 2)],
                         ids=["None", "1", "2", "None-replay", "1-replay", "2-replay"])
def test_every_header_is_checked_whatever_the_window(saved_transcript, window, activations):
    path, count = saved_transcript
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(ProtocolError, match=rf"{path.name}: record {count - 1} gradient truncated"):
        Transcript.load(path, last_epochs=window, activations=activations)
    path.write_bytes(blob + b"\0" * 5)
    with pytest.raises(ProtocolError, match=rf"{path.name}: 5 trailing bytes after the last of {count} records"):
        Transcript.load(path, last_epochs=window, activations=activations)

    # record 0 (epoch 0, outside windows 1 and 2) with matrix headers
    # rewritten to keep every size: 64 x 4 becomes 4 x 64 for the gradient
    # only, then 32 x 8 for both
    (n_idx,) = struct.unpack_from("<I", blob, 20)
    at_activations = 16 + 8 + 8 * n_idx
    rows, cols = struct.unpack_from("<II", blob, at_activations)
    at_gradient = at_activations + 8 + 8 * rows * cols
    for shapes, message in ((((rows, cols), (cols, rows)), "activation / gradient shapes differ"),
                            (((rows // 2, cols * 2),) * 2, "index count does not match batch size")):
        bad = bytearray(blob)
        for at, shape in zip((at_activations, at_gradient), shapes):
            struct.pack_into("<II", bad, at, *shape)
        path.write_bytes(bytes(bad))
        with pytest.raises(ProtocolError, match=re.escape(f"{path.name}: record 0: {message}")):
            Transcript.load(path, last_epochs=window, activations=activations)


def test_a_replay_load_equals_the_whole_load_without_activations(saved_transcript):
    path, _ = saved_transcript
    epochs = Transcript.load(path).epochs
    for k in (None, *range(1, epochs + 1)):
        whole = Transcript.load(path, last_epochs=k)
        replay = Transcript.load(path, last_epochs=k, activations=False)
        assert [r.epoch for r in replay.records] == [r.epoch for r in whole.records]
        for a, b in zip(replay.records, whole.records):
            assert a.activations is None and b.activations is not None
            assert a.indices.dtype == b.indices.dtype == np.int64
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.gradient.tobytes() == b.gradient.tobytes()


def test_a_replay_load_allocates_no_activations(tmp_path):
    # 250 records of 64 x 64: 8.2 MB of gradients and as much of
    # activations, well above the reader's 1 MB buffer
    rng = np.random.default_rng(0)
    path = tmp_path / "run.transcript"
    with TranscriptWriter(path) as writer:
        for k in range(250):
            writer.append(TranscriptRecord(k // 10, rng.permutation(1000)[:64],
                                           rng.normal(size=(64, 64)), rng.normal(size=(64, 64))))
    peaks = {}
    for activations in (True, False):
        tracemalloc.start()
        try:
            transcript = Transcript.load(path, activations=activations)
            _, peaks[activations] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    held = sum(r.indices.nbytes + r.gradient.nbytes for r in transcript.records)
    # the reader's buffer, and per record its header's layout, its record
    # and its views: about 600 bytes, where one activation matrix is 32 kB
    slack = protocol_module._READ_BUFFER + 2048 * len(transcript)
    assert peaks[False] <= held + slack
    assert peaks[False] < 0.6 * peaks[True]


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


def test_a_second_training_call_starts_adam_afresh(small_data):
    # a session holds no optimizer state: training it again is training a
    # fresh session from the parameters the first call left
    train, _ = small_data
    settings = dict(defense=GradientNoise(0.01), epochs=2, batch_size=48, bottom_hidden=(6,))
    session = make_session(train, **settings)
    _, first, _ = train_split(session, train)
    fresh = make_session(train, **settings)
    fresh.bottom.set_parameters(session.bottom.parameters())
    fresh.top.set_parameters(session.top.parameters())
    _, again, trace = train_split(session, train)
    _, expected, expected_trace = train_split(fresh, train)
    assert trace == expected_trace
    assert_same_records(again, expected)
    assert_same_state(session, fresh)
    assert first.records[0].activations.tobytes() != again.records[0].activations.tobytes()


# --- lock-step lanes: each lane trains exactly as it would alone -------------

@dataclass(frozen=True)
class HalfLabels(Defense):
    """Forms its targets from the epoch-start snapshot by a rule of its own:
    half the labels."""

    name = "half_labels"
    uses_snapshot = True

    @staticmethod
    def snapshot_targets(top, cut, y_batch, label_columns):
        return 0.5 * y_batch


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
    # groups of one top-model width whose lanes differ in defense kind: each
    # lane takes its targets from its own source and sends the gradient its
    # own rule makes
    "mixed_width_1": [NoDefense(), LabelNoise(0.1), GradientNoise(0.01, "gaussian"),
                      GradientCompression(0.25), RandomLabelExtension(1, 0, 0.5),
                      AdaptiveLabelExtension(1, 0)],
    "mixed_width_3": [RandomLabelExtension(3, 0), AdaptiveLabelExtension(3, 1),
                      RandomLabelExtension(3, 2, 0.5), AdaptiveLabelExtension(3, 2)],
    # two snapshot rules in one group: each lane applies its own class's rule
    "mixed_snapshot_rules": [AdaptiveLabelExtension(1, 0), HalfLabels(), NoDefense()],
}


def lane_sessions(train, defenses):
    return [make_session(train, defense=d, epochs=3, batch_size=48, seed=seed,
                         bottom_hidden=(6,), top_hidden=(5,))
            for seed, d in zip((4, 9, 4, 7, 2, 9), defenses)]


def train_keeping(sessions, train, keep_epochs=None):
    """train_lanes with a sink per lane that keeps its whole records: each
    lane's (transcript, per-epoch mean loss)."""
    transcripts = [Transcript() for _ in sessions]
    traces = train_lanes(sessions, train, [t.records.append for t in transcripts],
                         keep_epochs=keep_epochs)
    return list(zip(transcripts, traces))


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


@pytest.mark.parametrize("kind", sorted(LANE_DEFENSES))
def test_lock_step_lanes_match_separate_runs(small_data, kind):
    train, _ = small_data
    defenses = LANE_DEFENSES[kind]
    alone = lane_sessions(train, defenses)
    together = lane_sessions(train, defenses)
    outcomes = train_keeping(together, train)
    for session, twin, (transcript, trace) in zip(alone, together, outcomes):
        _, expected, expected_trace = train_split(session, train)
        assert trace == expected_trace
        assert_same_records(transcript, expected)
        assert_same_state(twin, session)


def test_lock_step_keep_epochs_trims_only_old_records(small_data):
    train, _ = small_data
    defenses = LANE_DEFENSES["label_noise"][:2]
    full = train_keeping(lane_sessions(train, defenses)[:2], train)
    kept = train_keeping(lane_sessions(train, defenses)[:2], train, keep_epochs=1)
    for (transcript, trace), (trimmed, trimmed_trace) in zip(full, kept):
        assert trimmed_trace == trace
        assert_same_records(trimmed, transcript.last_epochs(1))


def test_lock_step_rejects_incompatible_sessions(small_data):
    train, _ = small_data
    # defense kinds may differ, top-model widths may not
    train_keeping(lane_sessions(train, [NoDefense(), LabelNoise(0.1), NoDefense()]), train)
    widths = lane_sessions(train, [NoDefense(), RandomLabelExtension(3, 0), NoDefense()])
    with pytest.raises(ProtocolError, match="lane 1: .* need the same top-model width"):
        train_keeping(widths, train)
    rates = [make_session(train, lr=0.01), make_session(train, lr=0.02)]
    with pytest.raises(ProtocolError, match=re.escape(
            "lane 1: sessions trained in lock-step need the same learning rate: "
            "0.02 here, 0.01 in lane 0")):
        train_keeping(rates, train)
    with pytest.raises(ProtocolError):
        train_keeping([], train)


def test_lock_step_training_takes_one_sink_per_lane(small_data):
    train, _ = small_data
    sessions = lane_sessions(train, LANE_DEFENSES["none"])
    with pytest.raises(ProtocolError, match=r"^2 record sinks for 3 sessions$"):
        train_lanes(sessions, train, [print, print])


@pytest.mark.parametrize("kind,per_batch", [("none", 1), ("mixed_width_1", 2),
                                            ("mixed_snapshot_rules", 3)])
def test_each_target_source_gathers_its_rows_once_per_batch(monkeypatch, small_data, kind,
                                                           per_batch):
    # the table lanes, the labels' lanes included, are one source; each
    # snapshot rule is another, which gathers the labels it writes in
    train, _ = small_data
    gathers = []

    def counting(table, idx):
        gathers.append(idx.shape)
        return gather_rows(table, idx)

    monkeypatch.setattr(protocol_module, "gather_rows", counting)
    train_keeping(lane_sessions(train, LANE_DEFENSES[kind]), train)
    # 3 epochs x 4 batches
    assert len(gathers) == 12 * per_batch


@pytest.mark.parametrize("lanes,message", [
    (dict(top_hidden=[(5,), (6,)]),
     "sessions trained in lock-step need the same top-model architecture: "
     "[4, 6, 1] (relu, identity) here, [4, 5, 1] (relu, identity) in lane 0"),
    (dict(bottom_hidden=[(6,), (6, 2)]),
     "sessions trained in lock-step need the same bottom-model architecture: "
     "[3, 6, 2, 4] (relu, relu, identity) here, [3, 6, 4] (relu, identity) in lane 0"),
    (dict(batch_size=[32, 500]), "batch size 500 exceeds the 160 training samples"),
], ids=["top_architecture", "bottom_architecture", "batch_size"])
def test_a_lock_step_refusal_names_the_lane_the_setting_and_both_values(small_data, lanes,
                                                                        message):
    train, _ = small_data
    (name, values), = lanes.items()
    sessions = [make_session(train, **{name: value}) for value in values]
    with pytest.raises(ProtocolError, match=rf"^lane 1: {re.escape(message)}$"):
        train_keeping(sessions, train)


def test_lock_step_divergence_names_the_lane(small_data):
    train, _ = small_data
    sessions = lane_sessions(train, LANE_DEFENSES["none"])
    sessions[2].bottom.layers[0].weight[:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ProtocolError, match=r"epoch 0, batch 0: non-finite values "
                                                r"produced by 'matmul' \(lane 2\)"):
            train_keeping(sessions, train)


# --- step plans: one capture per batch shape, every batch runs the plans -----

def lane_group(train, kind, count):
    """`count` lanes of LANE_DEFENSES[kind]. Batches of 48 over the 160-row
    training split end in a short one of 16, so each epoch has two batch
    shapes."""
    assert train.n % 48 == 16
    return lane_sessions(train, LANE_DEFENSES[kind])[:count]


def taping_replay(sessions, log):
    """A stand-in for protocol._replay_step that tapes the step afresh from
    its arrays instead of replaying the plans, which makes train_lanes a
    reference loop that tapes every step; it appends each step's outputs to
    `log`."""
    acts = [[l.activation for l in net.layers] for net in (sessions[0].bottom, sessions[0].top)]

    def network(params, activations):
        return FcNetwork([Layer(w, b, a) for w, b, a in zip(params[::2], params[1::2],
                                                             activations)])

    def step(plans, bottom_params, top_params, x_batch, targets_of, sent_of):
        bottom, top = network(bottom_params, acts[0]), network(top_params, acts[1])
        tape = Tape()
        x = tape.leaf(x_batch)
        bottom_params = bottom.attach(tape)
        cut = bottom.forward(x, bottom_params)
        targets = tape.leaf(targets_of(cut.data))
        top_params = top.attach(tape)
        loss = mse(top.forward(cut, top_params), targets)
        *top_grads, cut_grad = backward(loss, [*top_params, cut])
        sent = tape.leaf(sent_of(cut_grad.data))
        bottom_grads = backward(sum_all(mul(cut, sent)), bottom_params)
        outputs = (cut.data, targets.data, loss.data, flat([*top_grads, *bottom_grads]),
                   sent.data)
        log.append(outputs)
        return outputs

    return step


def logging_replay(log):
    """protocol._replay_step, appending each replayed step's outputs to `log`."""
    replay = protocol_module._replay_step

    def step(*args):
        outputs = replay(*args)
        log.append(outputs)
        return outputs

    return step


def flat(grads):
    """Taped gradients back to back, in the layout of a flat buffer (the top
    and the bottom model's, top first, for a training step)."""
    return np.concatenate([g.data for g in grads], axis=None)


def step_bytes(outputs):
    return [a.tobytes() for a in outputs]


@pytest.mark.parametrize("count", [1, 3], ids=["one_lane", "three_lanes"])
@pytest.mark.parametrize("kind", sorted(LANE_DEFENSES))
def test_replayed_batches_equal_a_loop_that_tapes_every_step(monkeypatch, small_data, kind,
                                                             count):
    train, _ = small_data
    runs = []
    for taped in (False, True):
        sessions, log = lane_group(train, kind, count), []
        step = taping_replay(sessions, log) if taped else logging_replay(log)
        with monkeypatch.context() as m:
            m.setattr(protocol_module, "_replay_step", step)
            runs.append((sessions, train_keeping(sessions, train), log))
    (replayed, replayed_out, replayed_log), (reference, reference_out, reference_log) = runs
    # 3 epochs x 4 batches, every one of them run from the plans
    assert len(replayed_log) == len(reference_log) == 12
    for got, want in zip(replayed_log, reference_log):
        assert step_bytes(got) == step_bytes(want)
    for session, twin, (transcript, trace), (expected, expected_trace) in zip(
            replayed, reference, replayed_out, reference_out):
        assert trace == expected_trace
        assert_same_records(transcript, expected)
        assert_same_state(session, twin)


def test_training_captures_one_set_of_plans_per_batch_shape_per_call(monkeypatch, small_data):
    # full batches and a short final one: one plan captured for each per
    # call, and every step runs it (a fallback to taping would capture more)
    train, _ = small_data
    captured = []

    class Counting(StepPlan):
        def __init__(self, inputs, outputs, **links):
            super().__init__(inputs, outputs, **links)
            captured.append(inputs[0].shape)

    monkeypatch.setattr(protocol_module, "StepPlan", Counting)
    for count in (1, 3):
        captured.clear()
        train_keeping(lane_group(train, "none", count), train)
        lead = () if count == 1 else (count,)
        assert captured == [(*lead, 48, 3), (*lead, 16, 3)]


def test_the_training_plan_runs_the_bottom_forward_once():
    # 4 lanes, batch 16, an [8, 16, 8] bottom and an [8, 1] top: the forward
    # (5 ops), the label party's part (10: the transpose of the top's 8 x 1
    # weight is bound as a view of it) and the feature party's backward over
    # the forward's own values (12)
    bottom = stack_networks([build_network([8, 16, 8], seed=s) for s in range(4)])
    top = stack_networks([build_network([8, 1], seed=10 + s) for s in range(4)])
    assert len(protocol_module._capture_step(bottom, top, (4, 16, 8))) == 5 + 10 + 12


@dataclass(frozen=True)
class Watching(Defense):
    """Trains on the plain labels and sends the raw gradient, noting for each
    call of its rules whether the cut or the cut gradient it was given was
    finite. With poison_lane set, its third targets call (epoch 0, batch 2)
    returns NaN targets in that lane."""

    name = "watching"
    uses_snapshot = True
    changes_gradient = True
    poison_lane: int | None = None
    seen: list = field(default_factory=list, compare=False)

    def snapshot_targets(self, top, cut, y_batch, label_columns):
        self.seen.append(("cut", bool(np.isfinite(cut).all())))
        targets = y_batch.copy()
        if self.poison_lane is not None and len(self.seen) - self.grad_calls() == 3:
            targets[self.poison_lane if targets.ndim == 3 else ...] = np.nan
        return targets

    def outgoing_gradient(self, grad, seed, epoch, batch_no):
        self.seen.append(("grad", bool(np.isfinite(grad).all())))
        return grad.copy()

    def grad_calls(self):
        return sum(kind == "grad" for kind, _ in self.seen)


@pytest.mark.parametrize("count", [1, 3], ids=["one_lane", "three_lanes"])
@pytest.mark.parametrize("where", ["cut", "cut_gradient"])
def test_defense_rules_never_see_a_non_finite_cut_or_cut_gradient(monkeypatch, small_data,
                                                                  where, count):
    train, _ = small_data
    bad = min(1, count - 1)
    lane_tag = "" if count == 1 else f" (lane {bad})"
    runs = []
    for taped in (False, True):
        # one log for every lane's defense; lane 0's forms every lane's targets
        seen = []
        defenses = [Watching(bad if where == "cut_gradient" else None, seen)
                    for _ in range(count)]
        sessions = lane_sessions(train, defenses)[:count]
        if where == "cut":
            sessions[bad].bottom.layers[0].weight[:] = 1e308
        step = taping_replay(sessions, []) if taped else logging_replay([])
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            m.setattr(protocol_module, "_replay_step", step)
            with pytest.raises(ProtocolError) as info:
                train_keeping(sessions, train)
        runs.append((str(info.value), seen))
    (replayed, seen), (taped_message, taped_seen) = runs
    assert replayed == taped_message == {
        "cut": f"epoch 0, batch 0: non-finite values produced by 'matmul'{lane_tag}",
        "cut_gradient": f"epoch 0, batch 2: non-finite values produced by 'leaf'{lane_tag}",
    }[where]
    assert all(finite for _, finite in seen)
    if where == "cut":
        # the taped step, too, refuses the cut at the op that made it
        assert seen == [] and taped_seen == []
    else:
        # batches 0 and 1 complete; batch 2 stops before its gradient is sent
        assert seen == ([("cut", True)] + [("grad", True)] * count) * 2 + [("cut", True)]


@dataclass(frozen=True)
class SendAt(Defense):
    """Sends the raw gradient, except at one (epoch, batch), where every
    entry sent is `value`."""

    name = "send_at"
    changes_gradient = True
    value: float = 0.0
    at: tuple = (-1, -1)

    def outgoing_gradient(self, grad, seed, epoch, batch_no):
        return np.full_like(grad, self.value) if (epoch, batch_no) == self.at else grad.copy()


@pytest.mark.parametrize("count", [1, 3], ids=["one_lane", "three_lanes"])
@pytest.mark.parametrize("kind,value", [("overflow", 1e308), ("nan", np.nan)])
def test_divergence_on_a_replayed_batch_is_named_like_the_taped_step(monkeypatch, small_data,
                                                                     count, kind, value):
    # an overflowing sent gradient overflows the feature party's relay
    # sum(cut * sent): in its product where some cut entry exceeds 1.8
    # (lane 0 here), else in its sum
    op = {("overflow", 1): "mul", ("overflow", 3): "sum_all"}.get((kind, count), "leaf")
    train, _ = small_data
    bad = min(1, count - 1)
    # batch 2 of epoch 0: a run of the plans captured for full batches
    defenses = [SendAt(value, (0, 2)) if r == bad else SendAt() for r in range(count)]
    lane_tag = "" if count == 1 else f" (lane {bad})"
    errors = []
    for taped in (False, True):
        sessions = lane_sessions(train, defenses)[:count]
        step = taping_replay(sessions, []) if taped else logging_replay([])
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            m.setattr(protocol_module, "_replay_step", step)
            with pytest.raises(ProtocolError) as info:
                train_keeping(sessions, train)
        errors.append(str(info.value))
        assert info.value.__cause__.lane == (None if count == 1 else bad)
    assert errors[0] == (f"epoch 0, batch 2: non-finite values produced by '{op}'"
                         f"{lane_tag}")
    assert errors[1] == errors[0]
