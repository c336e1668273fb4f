import numpy as np
import pytest

from splitlab.autograd import Tape, backward, constant, mse
from splitlab.data import split_standardize
from splitlab.defense import (
    AdaptiveLabelExtension,
    GradientCompression,
    GradientNoise,
    LabelNoise,
    NoDefense,
    RandomLabelExtension,
    adaptive_targets,
    batch_noise_seed,
    compress_gradient,
    defense_from_dict,
    defense_to_dict,
    extend_labels_random,
    noise_gradient,
    noise_labels,
    sufficiency_check,
)
from splitlab.harness import ExperimentConfig, build_session, load_dataset
from splitlab.nn import build_network
from splitlab.protocol import train_split

from oracles import central_diff


# -- noise --------------------------------------------------------------------

@pytest.mark.parametrize("defense", [NoDefense(), GradientNoise(0.1), GradientCompression(0.5),
                                     AdaptiveLabelExtension(3, 1)], ids=lambda d: d.name)
def test_a_defense_that_draws_no_table_trains_on_the_labels(defense):
    labels = np.arange(6.0).reshape(6, 1)
    assert defense.target_table(labels, seed=4) is labels


def test_noise_scale_zero_is_identity():
    y = np.arange(6, dtype=float).reshape(-1, 1)
    out = noise_labels(y, "laplace", 0.0, seed=1)
    assert np.array_equal(out, y)
    assert out is not y


def test_laplace_moments():
    # Var(Laplace(b)) = 2 b^2
    y = np.zeros((100_000, 1))
    out = noise_labels(y, "laplace", 1.0, seed=42)
    assert abs(out.mean()) < 0.02
    assert abs(out.var() - 2.0) < 0.10  # within 5% of 2b^2


def test_gaussian_moments():
    y = np.zeros((100_000, 1))
    out = noise_labels(y, "gaussian", 0.5, seed=7)
    assert abs(out.mean()) < 0.02
    assert abs(out.var() - 0.25) < 0.0125


def test_noise_deterministic_per_seed():
    y = np.ones((50, 1))
    assert np.array_equal(noise_labels(y, "laplace", 1.0, 9), noise_labels(y, "laplace", 1.0, 9))
    assert not np.array_equal(noise_labels(y, "laplace", 1.0, 9), noise_labels(y, "laplace", 1.0, 10))


def test_noise_leaves_input_unmodified():
    y = np.ones((10, 1))
    snapshot = y.copy()
    noise_labels(y, "gaussian", 2.0, seed=0)
    assert np.array_equal(y, snapshot)


def test_gradient_noise_shape_and_batch_seeds():
    g = np.random.default_rng(0).normal(size=(16, 8))
    s1 = batch_noise_seed(123, epoch=4, batch_no=0)
    s2 = batch_noise_seed(123, epoch=4, batch_no=1)
    assert s1 != s2
    a = noise_gradient(g, "laplace", 0.5, s1)
    b = noise_gradient(g, "laplace", 0.5, s2)
    assert a.shape == g.shape
    assert not np.array_equal(a, b)  # same content, different batch -> different noise


def test_noise_distribution_validation():
    with pytest.raises(ValueError):
        noise_labels(np.ones((2, 1)), "cauchy", 1.0, 0)
    with pytest.raises(ValueError):
        LabelNoise(scale=-1.0)


# -- compression ---------------------------------------------------------------

def test_compress_top2_by_magnitude():
    g = np.array([[3.0, -1.0, 0.5, 2.0]])
    out = compress_gradient(g, 0.5)
    assert np.array_equal(out, [[3.0, 0.0, 0.0, 2.0]])


def test_compress_keep_rate_one_is_identity():
    g = np.random.default_rng(3).normal(size=(4, 5))
    assert np.array_equal(compress_gradient(g, 1.0), g)


def test_compress_nonzero_count():
    rng = np.random.default_rng(11)
    for rate in (0.1, 0.33, 0.5, 0.9):
        g = rng.normal(size=(8, 7))
        out = compress_gradient(g, rate)
        expected = int(np.floor(rate * g.size))
        assert int(np.count_nonzero(out)) == expected


def test_compress_entries_are_zero_or_original():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(6, 6))
    out = compress_gradient(g, 0.4)
    assert np.all((out == 0) | (out == g))
    assert not np.shares_memory(out, g)


def test_compress_tie_breaks_toward_lower_flat_index():
    g = np.array([[1.0, -1.0, 1.0, -1.0]])
    out = compress_gradient(g, 0.5)
    assert np.array_equal(out, [[1.0, -1.0, 0.0, 0.0]])


# -- label extension -------------------------------------------------------------

def test_random_extension_degenerate_single_dim():
    y = np.arange(5, dtype=float).reshape(-1, 1)
    matrix = extend_labels_random(y, dims=1, label_index=0, noise_std=1.0, seed=0)
    assert np.array_equal(matrix, y)


def test_random_extension_preserves_label_column_and_moments():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(20_000, 1))
    matrix = extend_labels_random(y, dims=4, label_index=2, noise_std=1.5, seed=8)
    assert matrix.shape == (20_000, 4)
    assert np.array_equal(matrix[:, 2], y[:, 0])
    noise_cols = np.delete(matrix, 2, axis=1)
    assert abs(noise_cols.mean()) < 0.05
    assert abs(noise_cols.std() - 1.5) < 0.075  # within 5% of the requested sigma


def test_random_extension_deterministic():
    y = np.ones((100, 1))
    a = extend_labels_random(y, 3, 1, 1.0, seed=4)
    b = extend_labels_random(y, 3, 1, 1.0, seed=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_random_extension_refuses_non_finite_labels(bad):
    y = np.ones((4, 1))
    y[2, 0] = bad
    with pytest.raises(ValueError, match="^labels must be finite$"):
        extend_labels_random(y, 3, 1, 1.0, seed=4)


def test_adaptive_targets_match_outputs_except_label_column():
    rng = np.random.default_rng(6)
    top = build_network([8, 3], seed=2)
    e = rng.normal(size=(10, 8))
    y = rng.normal(size=(10, 1))
    targets = adaptive_targets(top, e, y, label_index=1)
    outputs = top.forward_values(e)
    assert np.array_equal(targets[:, [0, 2]], outputs[:, [0, 2]])
    assert np.array_equal(targets[:, 1], y[:, 0])


def test_adaptive_targets_zero_loss_when_predictions_equal_labels():
    top = build_network([4, 2], seed=3)
    e = np.random.default_rng(7).normal(size=(6, 4))
    out = top.forward_values(e)
    y = out[:, [0]].copy()
    targets = adaptive_targets(top, e, y, label_index=0)
    assert float(((out - targets) ** 2).mean()) == 0.0


def test_adaptive_targets_gradient_structure():
    # At the moment targets are formed, dMSE/d(output col j != t) = 0 and
    # dMSE/d(output col t) = 2 (pred_t - y_t) / (batch * dims).
    rng = np.random.default_rng(8)
    top = build_network([5, 3], seed=9)
    e = rng.normal(size=(7, 5))
    y = rng.normal(size=(7, 1))
    t = 2
    targets = adaptive_targets(top, e, y, label_index=t)
    out0 = top.forward_values(e)

    tape = Tape()
    pred = tape.leaf(out0)
    loss = mse(pred, constant(targets))
    (g,) = backward(loss, [pred])

    expected_t = 2.0 * (out0[:, t] - y[:, 0]) / (out0.shape[0] * out0.shape[1])
    assert np.abs(g.data[:, t] - expected_t).max() < 1e-12
    assert np.abs(np.delete(g.data, t, axis=1)).max() == 0.0

    numeric = central_diff(lambda v: float(((v - targets) ** 2).mean()), out0, step=1e-6)
    assert np.abs(g.data - numeric).max() < 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_adaptive_extension_never_moves_the_non_label_columns_of_a_linear_top(seed):
    # Small profile. A linear top gives every output column its own weights
    # and bias. Each epoch's targets are the epoch-start snapshot's outputs,
    # which the non-label columns still equal, so their residual, gradient
    # and Adam move are exactly zero all through training, and every sent
    # gradient is the label column's residual times that column's weights:
    # rank one (s2/s1 measured at most 3.1e-16 over seeds 0-5).
    cfg = ExperimentConfig(seed=seed, synth_n=500, batch_size=16,
                           defense={"name": "adaptive_extension"})
    assert cfg.top_hidden == ()
    train, _ = split_standardize(load_dataset(cfg), ratio=cfg.split_ratio, seed=seed)
    defense = defense_from_dict(cfg.defense, cut_dim=cfg.cut_dim, seed=seed)
    session = build_session(cfg, defense, train.d, seed)
    before = [p.copy() for p in session.top.parameters()]
    _, transcript, _ = train_split(session, train)
    label = defense.label_column
    for old, new in zip(before, session.top.parameters()):
        assert np.delete(new, label, axis=1).tobytes() == np.delete(old, label, axis=1).tobytes()
        assert not np.array_equal(new[:, label], old[:, label])
    assert len(transcript) == cfg.epochs * 25
    for record in transcript.records:
        s = np.linalg.svd(record.gradient, compute_uv=False)
        assert s[1] < 1e-12 * s[0]


def test_extension_validation():
    with pytest.raises(ValueError):
        RandomLabelExtension(dims=0, label_index=0)
    with pytest.raises(ValueError):
        AdaptiveLabelExtension(dims=4, label_index=4)


# -- sufficiency check ------------------------------------------------------------

def test_sufficiency_square_case():
    rep = sufficiency_check(8, 8, 100)
    assert rep.unknowns == 872
    assert rep.equations == 800
    assert rep.underdetermined


def test_sufficiency_scalar_labels_not_underdetermined():
    rep = sufficiency_check(1, 8, 100)
    assert rep.unknowns == 109
    assert rep.equations == 800
    assert not rep.underdetermined


def test_sufficiency_dims_at_least_cut_dim_always_underdetermined():
    # dims == cut_dim: unknowns - equations = dims + dims^2 > 0 for every n
    counts = [1, 2, 3, 10, 100, 10_000, 1_000_000]
    for dims in (1, 2, 8, 16):
        for n in counts:
            assert sufficiency_check(dims, dims, n).underdetermined
            assert sufficiency_check(dims + 3, dims, n).underdetermined


def test_sufficiency_validation():
    with pytest.raises(ValueError):
        sufficiency_check(0, 1, 1)


# -- config plumbing ---------------------------------------------------------------

def test_defense_roundtrip_through_dict():
    cases = [
        NoDefense(),
        LabelNoise(scale=0.7, distribution="gaussian"),
        GradientNoise(scale=0.05),
        GradientCompression(keep_rate=0.25),
        RandomLabelExtension(dims=6, label_index=3, noise_std=2.0),
        AdaptiveLabelExtension(dims=4, label_index=0),
    ]
    for d in cases:
        assert defense_from_dict(defense_to_dict(d), cut_dim=8) == d


def test_defense_defaults_from_cut_dim_and_seed():
    d = defense_from_dict({"name": "random_extension"}, cut_dim=8, seed=5)
    assert d.dims == 8
    assert 0 <= d.label_index < 8
    again = defense_from_dict({"name": "random_extension"}, cut_dim=8, seed=5)
    assert d == again


def test_defense_unknown_name_and_params():
    with pytest.raises(ValueError):
        defense_from_dict({"name": "blur"}, cut_dim=4)
    with pytest.raises(ValueError):
        defense_from_dict({"name": "label_noise", "keep_rate": 0.5}, cut_dim=4)
    # noise_std is the random extension's only: nothing draws with it here
    with pytest.raises(ValueError, match=r"unexpected defense parameters \['noise_std'\]"):
        defense_from_dict({"name": "adaptive_extension", "noise_std": 1.0}, cut_dim=4)
    with pytest.raises(TypeError, match="noise_std"):
        AdaptiveLabelExtension(dims=2, label_index=0, noise_std=1.0)


def test_target_dim():
    assert NoDefense().output_dim == 1
    assert LabelNoise().output_dim == 1
    assert RandomLabelExtension(dims=5, label_index=1).output_dim == 5


def test_label_column():
    assert NoDefense().label_column == 0
    assert LabelNoise().label_column == 0
    assert GradientNoise().label_column == 0
    assert GradientCompression().label_column == 0
    assert RandomLabelExtension(dims=5, label_index=3).label_column == 3
    assert AdaptiveLabelExtension(dims=4, label_index=2).label_column == 2


def test_defense_to_dict_format():
    # the `defense_resolved` entry of a run's manifest
    assert defense_to_dict(NoDefense()) == {"name": "none"}
    assert defense_to_dict(LabelNoise(0.7, "gaussian")) == {
        "name": "label_noise", "scale": 0.7, "distribution": "gaussian"}
    assert defense_to_dict(GradientNoise()) == {
        "name": "gradient_noise", "scale": 1.0, "distribution": "laplace"}
    assert defense_to_dict(GradientCompression(0.25)) == {
        "name": "gradient_compression", "keep_rate": 0.25}
    assert defense_to_dict(RandomLabelExtension(6, 3, 2.0)) == {
        "name": "random_extension", "dims": 6, "label_index": 3, "noise_std": 2.0}
    assert defense_to_dict(AdaptiveLabelExtension(4, 0)) == {
        "name": "adaptive_extension", "dims": 4, "label_index": 0}


@pytest.mark.parametrize("spec,param", [
    ({"name": "random_extension", "dims": 2.7}, "dims"),
    ({"name": "adaptive_extension", "dims": True}, "dims"),
    ({"name": "random_extension", "dims": 4, "label_index": 1.5}, "label_index"),
    ({"name": "random_extension", "label_index": False}, "label_index"),
    ({"name": "label_noise", "scale": float("nan")}, "scale"),
    ({"name": "gradient_noise", "scale": float("inf")}, "scale"),
    ({"name": "label_noise", "scale": True}, "scale"),
    ({"name": "gradient_compression", "keep_rate": float("nan")}, "keep_rate"),
    ({"name": "gradient_compression", "keep_rate": "x"}, "keep_rate"),
    ({"name": "random_extension", "noise_std": float("nan")}, "noise_std"),
    ({"name": "adaptive_extension", "noise_std": float("-inf")}, "noise_std"),
    ({"name": "random_extension", "dims": 0}, "dims"),
])
def test_defense_parameters_are_checked_by_field_type(spec, param):
    with pytest.raises(ValueError, match=param):
        defense_from_dict(spec, cut_dim=4, seed=1)


def test_defense_parameters_accept_whole_floats_and_numerals():
    assert defense_from_dict({"name": "random_extension", "dims": 3.0, "label_index": "2"},
                             cut_dim=8) == RandomLabelExtension(3, 2)
    assert defense_from_dict({"name": "label_noise", "scale": 2}, cut_dim=8) == LabelNoise(2.0)


@pytest.mark.parametrize("make", [
    lambda: LabelNoise(scale=float("nan")),
    lambda: GradientNoise(scale=float("inf")),
    lambda: GradientCompression(keep_rate=float("nan")),
    lambda: RandomLabelExtension(dims=2, label_index=0, noise_std=float("nan")),
    lambda: RandomLabelExtension(dims=2, label_index=0, noise_std=float("inf")),
])
def test_non_finite_parameters_are_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()


def test_defense_string_parameter_takes_only_a_string():
    with pytest.raises(ValueError, match="distribution must be a string, got 5"):
        defense_from_dict({"name": "label_noise", "distribution": 5}, cut_dim=4)
