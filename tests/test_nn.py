import json

import numpy as np
import pytest

from splitlab.autograd import Tape, backward, constant, mse
from splitlab.nn import (
    Adam,
    FcNetwork,
    Layer,
    build_network,
    gather_rows,
    load_checkpoint,
    save_checkpoint,
    split_lanes,
    stack_lanes,
    stack_networks,
)

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


def test_stacked_networks_compute_each_network_alone():
    rng = np.random.default_rng(6)
    nets = [build_network([4, 5, 2], activation="tanh", seed=s) for s in (1, 2, 3)]
    stack = stack_networks(nets)
    assert (stack.lanes, stack.in_dim, stack.out_dim, stack.dims) == (3, 4, 2, [4, 5, 2])
    xs = rng.normal(size=(3, 6, 4))
    tape = Tape()
    stack.attach(tape)
    taped = stack.forward(constant(xs))
    stack.detach()
    for lane, net in enumerate(nets):
        assert np.array_equal(stack.forward_values(xs)[lane], net.forward_values(xs[lane]))
        assert np.array_equal(taped.data[lane], net.forward_values(xs[lane]))
    for net, back in zip(nets, stack.split()):
        assert back.lanes is None
        assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), back.parameters()))


def test_stack_networks_rejects_different_architectures():
    with pytest.raises(ValueError):
        stack_networks([build_network([4, 2], seed=0), build_network([4, 3], seed=0)])
    with pytest.raises(ValueError):
        stack_networks([build_network([4, 5, 2], activation="relu", seed=0),
                        build_network([4, 5, 2], activation="tanh", seed=0)])


def test_stacked_adam_steps_each_lane_as_alone():
    rng = np.random.default_rng(14)
    opts = [Adam([(2, 3), (1, 3)], lr=0.05) for _ in range(3)]
    params = [[rng.normal(size=(2, 3)), rng.normal(size=(1, 3))] for _ in range(3)]
    grads = [[[rng.normal(size=(2, 3)), rng.normal(size=(1, 3))] for _ in range(3)]
             for _ in range(4)]
    stacked = Adam.stack(opts)
    p_stack = [np.stack(ps) for ps in zip(*params)]
    for step in grads:
        p_stack = stacked.step(p_stack, [np.stack(gs) for gs in zip(*step)])
        params = [opt.step(p, g) for opt, p, g in zip(opts, params, step)]
    for lane, (opt, back) in enumerate(zip(opts, stacked.split())):
        assert back.step_count == opt.step_count == 4
        for a, b in zip(params[lane], p_stack):
            assert np.array_equal(a, b[lane])
        for a, b in zip(opt.m + opt.v, back.m + back.v):
            assert np.array_equal(a, b)
    opts[0].step(params[0], grads[0][0])
    with pytest.raises(ValueError):
        Adam.stack(opts)


def test_lane_array_helpers():
    one = np.arange(6.0).reshape(3, 2)
    assert stack_lanes([one]) is one
    assert split_lanes(one, 1)[0] is one
    both = stack_lanes([one, one + 10])
    assert both.shape == (2, 3, 2)
    assert np.array_equal(split_lanes(both, 2)[1], one + 10)
    idx = np.array([[2, 0], [1, 1]])
    assert np.array_equal(gather_rows(both, idx), [one[[2, 0]], one[[1, 1]] + 10])
    assert np.array_equal(gather_rows(one, idx), one[idx])


def test_checkpoint_rejects_a_lane_stack(tmp_path):
    stack = stack_networks([build_network([3, 2], seed=s) for s in (0, 1)])
    with pytest.raises(ValueError, match="lane stack"):
        save_checkpoint(stack, tmp_path / "stack.json")
