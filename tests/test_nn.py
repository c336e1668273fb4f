import json

import numpy as np
import pytest

from splitlab.autograd import Tape, backward, constant, mse
from splitlab.nn import Adam, FcNetwork, Layer, build_network, load_checkpoint, save_checkpoint

from oracles import loop_matmul


def loop_forward(net, x):
    """Independent forward pass: explicit loops, no numpy matmul."""
    h = x
    for layer in net.layers:
        z = loop_matmul(h, layer.weight)
        z = z + np.repeat(layer.bias, z.shape[0], axis=0)
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        elif layer.activation == "tanh":
            z = np.tanh(z)
        h = z
    return h


def test_build_network_shapes():
    net = build_network([13, 16, 8], seed=1)
    assert [l.weight.shape for l in net.layers] == [(13, 16), (16, 8)]
    assert net.layers[0].activation == "relu"
    assert net.layers[1].activation == "identity"
    assert all((l.bias == 0).all() for l in net.layers)


def test_build_network_deterministic():
    a = build_network([8, 1], seed=77)
    b = build_network([8, 1], seed=77)
    assert np.array_equal(a.layers[0].weight, b.layers[0].weight)


def test_build_network_rejects_bad_specs():
    with pytest.raises(ValueError):
        build_network([5])
    with pytest.raises(ValueError):
        build_network([5, 0, 1])


def test_zero_weight_network_outputs_zero():
    net = build_network([4, 1], seed=0)
    net.layers[0].weight = np.zeros((4, 1))
    x = np.random.default_rng(0).normal(size=(6, 4))
    assert np.array_equal(net.forward_values(x), np.zeros((6, 1)))


def test_identity_layer_passthrough():
    net = FcNetwork([Layer(np.eye(3), np.zeros((1, 3)), "identity")])
    x = np.random.default_rng(1).normal(size=(5, 3))
    assert np.allclose(net.forward_values(x), x)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(4)
    net = build_network([5, 7, 2], activation="tanh", seed=9)
    x = rng.normal(size=(6, 5))
    assert np.abs(net.forward_values(x) - loop_forward(net, x)).max() < 1e-12


def test_taped_forward_matches_plain_forward():
    rng = np.random.default_rng(12)
    net = build_network([4, 6, 3], seed=2)
    x = rng.normal(size=(5, 4))
    tape = Tape()
    net.attach(tape)
    out = net.forward(constant(x))
    net.detach()
    assert np.array_equal(out.data, net.forward_values(x))


def test_forward_shape_mismatch():
    net = build_network([4, 2], seed=0)
    with pytest.raises(ValueError):
        net.forward_values(np.ones((3, 5)))


def test_dims_must_chain():
    with pytest.raises(ValueError):
        FcNetwork([
            Layer(np.zeros((3, 4)), np.zeros((1, 4)), "relu"),
            Layer(np.zeros((5, 1)), np.zeros((1, 1)), "identity"),
        ])


def test_adam_zero_gradient_keeps_parameters():
    opt = Adam([(2, 2)], lr=0.01)
    p = np.ones((2, 2))
    (new,) = opt.step([p], [np.zeros((2, 2))])
    assert np.array_equal(new, p)
    assert opt.step_count == 1
    assert np.array_equal(opt.m[0], np.zeros((2, 2)))


def test_adam_first_step_formula():
    # After one step with constant gradient g: m_hat = g, v_hat = g^2, so the
    # move is -lr * g / (|g| + eps), about -lr * sign(g).
    g = 0.37
    lr = 0.01
    opt = Adam([(1, 1)], lr=lr)
    (new,) = opt.step([np.array([[5.0]])], [np.array([[g]])])
    expected = 5.0 - lr * g / (abs(g) + opt.epsilon)
    assert new[0, 0] == pytest.approx(expected, abs=1e-15)


def test_adam_lr_zero_is_identity():
    rng = np.random.default_rng(2)
    opt = Adam([(3, 2)], lr=0.0)
    p = rng.normal(size=(3, 2))
    (new,) = opt.step([p], [rng.normal(size=(3, 2))])
    assert np.array_equal(new, p)


def test_adam_deterministic_over_100_steps():
    def run():
        rng = np.random.default_rng(55)
        opt = Adam([(2, 3)], lr=0.01)
        p = rng.normal(size=(2, 3))
        for _ in range(100):
            (p,) = opt.step([p], [rng.normal(size=(2, 3))])
        return p

    assert np.array_equal(run(), run())


def test_adam_rejects_bad_gradients():
    opt = Adam([(2, 2)])
    with pytest.raises(ValueError):
        opt.step([np.zeros((2, 2))], [np.zeros((2, 3))])
    with pytest.raises(ValueError):
        opt.step([np.zeros((2, 2))], [np.full((2, 2), np.nan)])


def test_linear_regression_converges():
    # A single linear layer on exactly-linear data should essentially
    # interpolate within 500 full-batch Adam steps.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200, 4))
    w_true = rng.normal(size=(4, 1))
    y = x @ w_true

    net = build_network([4, 1], seed=3)
    opt = Adam.for_network(net, lr=0.01)
    final = np.inf
    for _ in range(500):
        tape = Tape()
        handles = net.attach(tape)
        loss = mse(net.forward(constant(x)), constant(y))
        grads = backward(loss, handles)
        net.set_parameters(opt.step(net.parameters(), [g.data for g in grads]))
        net.detach()
        final = loss.item()
    assert final < 1e-3


def test_checkpoint_roundtrip(tmp_path):
    net = build_network([5, 4, 2], activation="tanh", seed=6, role="top")
    path = tmp_path / "net.json"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.role == "top"
    assert loaded.dims == net.dims
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_checkpoint_missing_field_names_path_layer_and_field(tmp_path):
    net = build_network([5, 4, 2], seed=6, role="bottom")
    path = tmp_path / "bottom.json"
    save_checkpoint(net, path)
    payload = json.loads(path.read_text())
    del payload["layers"][1]["weight"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"bottom\.json: layer 1: missing 'weight'"):
        load_checkpoint(path)


def test_checkpoint_size_mismatch_names_path_layer_and_field(tmp_path):
    net = build_network([5, 4, 2], seed=6, role="bottom")
    path = tmp_path / "bottom.json"
    save_checkpoint(net, path)
    payload = json.loads(path.read_text())
    payload["layers"][0]["in_dim"] = 6
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"bottom\.json: layer 0: 'weight' has 20 values, expected 6 x 4"):
        load_checkpoint(path)
