import json

import numpy as np
import pytest

from splitlab.autograd import AutogradError, Tape, backward, constant, mse
from splitlab.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    Adam,
    FcNetwork,
    Layer,
    build_network,
    gather_rows,
    load_checkpoint,
    save_checkpoint,
    split_lanes,
    stack_joined,
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
    out = net.forward(constant(x), net.attach(tape))
    assert np.array_equal(out.data, net.forward_values(x))


def test_one_network_attached_to_two_tapes_computes_the_same_on_each():
    # each attach makes leaves of its own; nothing is undone in between
    rng = np.random.default_rng(13)
    net = build_network([4, 6, 2], activation="tanh", seed=3)
    x, y = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    runs = []
    for _ in range(2):
        params = net.attach(Tape())
        loss = mse(net.forward(constant(x), params), constant(y))
        runs.append([loss.data.tobytes()] + [g.data.tobytes() for g in backward(loss, params)])
    assert runs[0] == runs[1]


def test_attach_leaves_the_network_as_it_was():
    net = build_network([4, 6, 2], seed=3)
    before = dict(vars(net))
    values = net.flat.tobytes()
    layers = [(l.weight, l.bias, l.activation) for l in net.layers]
    params = net.attach(Tape())
    assert vars(net).keys() == before.keys()
    assert all(vars(net)[name] is value for name, value in before.items())
    assert all(l.weight is w and l.bias is b and l.activation == a
               for l, (w, b, a) in zip(net.layers, layers))
    assert net.flat.tobytes() == values
    # the leaves hold copies: moving the network leaves them alone
    net.flat[...] = 0.0
    assert any(p.data.any() for p in params)


@pytest.mark.parametrize("count", [0, 2, 6], ids=["none", "one_layer_short", "one_too_many"])
def test_forward_refuses_a_wrong_leaf_count(count):
    net = build_network([4, 6, 2], seed=3)
    params = (net.attach(Tape()) * 2)[:count]
    with pytest.raises(AutogradError, match=rf"^{count} parameter leaves given, the "
                                            r"network's 2 layers take 4$"):
        net.forward(constant(np.zeros((3, 4))), params)


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
    p = np.ones(4)
    opt.step(p, np.zeros(4))
    assert np.array_equal(p, np.ones(4))
    assert opt.step_count == 1
    assert np.array_equal(opt.m, np.zeros(4))


def test_adam_first_step_formula():
    # After one step with constant gradient g: m_hat = g, v_hat = g^2, so the
    # move is -lr * g / (|g| + eps), about -lr * sign(g).
    g = 0.37
    lr = 0.01
    opt = Adam([(1, 1)], lr=lr)
    new = np.array([5.0])
    opt.step(new, np.array([g]))
    expected = 5.0 - lr * g / (abs(g) + ADAM_EPSILON)
    assert new[0] == pytest.approx(expected, abs=1e-15)


def test_adam_lr_zero_is_identity():
    rng = np.random.default_rng(2)
    opt = Adam([(3, 2)], lr=0.0)
    p = rng.normal(size=6)
    new = p.copy()
    opt.step(new, rng.normal(size=6))
    assert np.array_equal(new, p)


def test_adam_deterministic_over_100_steps():
    def run():
        rng = np.random.default_rng(55)
        opt = Adam([(2, 3)], lr=0.01)
        p = rng.normal(size=6)
        for _ in range(100):
            opt.step(p, rng.normal(size=6))
        return p

    assert np.array_equal(run(), run())


def test_adam_rejects_bad_gradients():
    opt = Adam([(2, 2)])
    with pytest.raises(ValueError):
        opt.step(np.zeros(4), np.zeros(6))
    with pytest.raises(ValueError):
        opt.step(np.zeros(6), np.zeros(4))
    with pytest.raises(ValueError):
        opt.step(np.zeros(4), [np.zeros((2, 2))])
    assert opt.step_count == 0


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
        params = net.attach(tape)
        loss = mse(net.forward(constant(x), params), constant(y))
        grads = backward(loss, params)
        opt.step(net.flat, np.concatenate([g.data for g in grads], axis=None))
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
    taped = stack.forward(constant(xs), stack.attach(tape))
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
    shapes = [(2, 3), (1, 3)]
    opts = [Adam(shapes, lr=0.05) for _ in range(3)]
    params = [[rng.normal(size=(2, 3)), rng.normal(size=(1, 3))] for _ in range(3)]
    grads = [[[rng.normal(size=(2, 3)), rng.normal(size=(1, 3))] for _ in range(3)]
             for _ in range(4)]
    stacked = Adam([(3, *s) for s in shapes], lr=0.05)
    p_stack = np.concatenate([np.stack(ps) for ps in zip(*params)], axis=None)
    flats = [np.concatenate(p, axis=None) for p in params]
    for step in grads:
        stacked.step(p_stack, np.concatenate([np.stack(gs) for gs in zip(*step)], axis=None))
        for opt, p, g in zip(opts, flats, step):
            opt.step(p, np.concatenate(g, axis=None))
    # param-major: each parameter holds every lane before the next parameter
    p_lanes = [p_stack[:18].reshape(3, 6), p_stack[18:].reshape(3, 3)]
    m_lanes = [stacked.m[:18].reshape(3, 6), stacked.m[18:].reshape(3, 3)]
    v_lanes = [stacked.v[:18].reshape(3, 6), stacked.v[18:].reshape(3, 3)]
    assert stacked.step_count == 4
    for lane, opt in enumerate(opts):
        assert opt.step_count == 4
        for alone, lanes in ((flats[lane], p_lanes), (opt.m, m_lanes), (opt.v, v_lanes)):
            assert alone.tobytes() == np.concatenate([p[lane] for p in lanes]).tobytes()


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


def test_lane_helpers_keep_a_single_network_or_optimizer_as_it_is():
    net = build_network([3, 4, 2], seed=0)
    assert stack_networks([net]) is net
    assert net.split() == [net]
    assert len(stack_networks([net, net.copy()]).split()) == 2


def test_checkpoint_rejects_a_lane_stack(tmp_path):
    stack = stack_networks([build_network([3, 2], seed=s) for s in (0, 1)])
    with pytest.raises(ValueError, match="lane stack"):
        save_checkpoint(stack, tmp_path / "stack.json")


# --- flat store: every parameter is a view into one buffer per network -------

def reference_adam(m, v, grad, t, lr):
    """The Adam update as the textbook expression, out of place."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    return m, v, lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def test_parameters_are_views_into_one_flat_buffer():
    net = build_network([3, 4, 2], seed=1)
    params = net.parameters()
    assert net.flat.shape == (sum(p.size for p in params),)
    assert np.array_equal(np.concatenate(params, axis=None), net.flat)
    assert all(np.shares_memory(p, net.flat) for p in params)


def test_an_in_place_write_through_a_layer_is_seen_by_the_next_step():
    rng = np.random.default_rng(3)
    net = build_network([3, 4, 2], seed=1)
    opt = Adam.for_network(net, lr=0.05)
    grads = [rng.normal(size=p.shape) for p in net.parameters()]
    net.layers[1].weight[0, :] = 7.0
    net.layers[0].bias = np.full((1, 4), -2.0)  # assignment copies into the view
    written = [p.copy() for p in net.parameters()]
    assert net.layers[1].weight[0, 0] == 7.0 and net.flat[12:16].tolist() == [-2.0] * 4
    opt.step(net.flat, np.concatenate(grads, axis=None))
    for p, w, g in zip(net.parameters(), written, grads):
        _, _, move = reference_adam(np.zeros_like(g), np.zeros_like(g), g, 1, 0.05)
        assert p.tobytes() == (w - move).tobytes()
    x = rng.normal(size=(5, 3))
    assert np.array_equal(net.forward_values(x), loop_forward(net, x))


def test_set_parameters_copies_into_the_buffer_without_rebinding_it():
    rng = np.random.default_rng(4)
    net = build_network([3, 4, 2], seed=1)
    flat, views = net.flat, net.parameters()
    new = [rng.normal(size=p.shape) for p in views]
    net.set_parameters(new)
    assert net.flat is flat
    assert all(a is b for a, b in zip(net.parameters(), views))
    assert np.array_equal(flat, np.concatenate(new, axis=None))
    flat[:] = 0.0
    assert all(not np.array_equal(p, np.zeros_like(p)) for p in new)
    with pytest.raises(ValueError):
        net.layers[0].weight = np.zeros((4, 3))


def test_stack_and_split_round_trip_networks_and_optimizers_bytes():
    rng = np.random.default_rng(5)
    nets = [build_network([3, 4, 2], activation="tanh", seed=s) for s in (1, 2, 3)]
    for net in nets:
        opt = Adam.for_network(net, lr=0.05)
        for _ in range(3):
            opt.step(net.flat, np.concatenate([rng.normal(size=p.shape) for p in net.parameters()],
                                              axis=None))
    stack = stack_networks(nets)
    # param-major: each parameter holds every lane before the next parameter
    assert stack.flat.tobytes() == np.concatenate(
        [np.stack(ps) for ps in zip(*(n.parameters() for n in nets))], axis=None).tobytes()
    for net, back in zip(nets, stack.split()):
        assert back.flat.tobytes() == net.flat.tobytes()


def test_checkpoint_files_are_byte_identical_through_stack_and_load(tmp_path):
    nets = [build_network([5, 4, 2], activation="tanh", seed=s, role="top") for s in (6, 7)]
    first, again, lane = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    save_checkpoint(nets[1], first)
    save_checkpoint(load_checkpoint(first), again)
    save_checkpoint(stack_networks(nets).split()[1], lane)
    assert first.read_bytes() == again.read_bytes() == lane.read_bytes()
    payload = json.loads(first.read_text())
    for layer, spec in zip(nets[1].layers, payload["layers"]):
        assert spec["weight"] == layer.weight.reshape(-1).tolist()
        assert spec["bias"] == layer.bias.reshape(-1).tolist()


@pytest.mark.parametrize("lanes", [None, 3], ids=["plain", "lane_stack"])
def test_fused_adam_equals_the_textbook_update_bit_for_bit(lanes):
    rng = np.random.default_rng(9)
    lead = () if lanes is None else (lanes,)
    shapes = [(*lead, 3, 4), (*lead, 1, 4), (*lead, 4, 2), (*lead, 1, 2)]
    opt = Adam(shapes, lr=0.01)
    params = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate(params, axis=None)
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    for t in range(1, 8):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        opt.step(flat, np.concatenate(grads, axis=None))
        for i, g in enumerate(grads):
            ms[i], vs[i], move = reference_adam(ms[i], vs[i], g, t, 0.01)
            params[i] = params[i] - move
        assert flat.tobytes() == np.concatenate(params, axis=None).tobytes()
        assert opt.m.tobytes() == np.concatenate(ms, axis=None).tobytes()
        assert opt.v.tobytes() == np.concatenate(vs, axis=None).tobytes()


def test_joined_stacks_share_one_buffer_and_one_adam_step_equals_one_per_network():
    rng = np.random.default_rng(6)
    tops = [build_network([4, 2], seed=s) for s in (1, 2)]
    bottoms = [build_network([3, 5, 4], seed=s) for s in (3, 4)]
    alone = [stack_networks(tops), stack_networks(bottoms)]
    flat, joined = stack_joined([tops, bottoms])
    # the stacks' buffers are consecutive blocks of one buffer, top first
    assert flat.tobytes() == np.concatenate([net.flat for net in alone]).tobytes()
    assert all(np.shares_memory(net.flat, flat) for net in joined)
    assert [net.flat.tobytes() for net in joined] == [net.flat.tobytes() for net in alone]
    # a group of one is a copy, not the network itself
    _, (single,) = stack_joined([[tops[0]]])
    assert single is not tops[0] and not np.shares_memory(single.flat, tops[0].flat)
    assert single.flat.tobytes() == tops[0].flat.tobytes()

    opts = [Adam.for_network(net, lr=0.05) for net in alone]
    # one Adam over the joined shapes, in block order
    joint = Adam([p.shape for net in joined for p in net.parameters()], lr=0.05)
    for _ in range(3):
        grads = [rng.normal(size=net.flat.shape) for net in alone]
        for net, opt, grad in zip(alone, opts, grads):
            opt.step(net.flat, grad)
        joint.step(flat, np.concatenate(grads))
    assert [net.flat.tobytes() for net in joined] == [net.flat.tobytes() for net in alone]
    assert joint.m.tobytes() == np.concatenate([opt.m for opt in opts]).tobytes()
    assert joint.v.tobytes() == np.concatenate([opt.v for opt in opts]).tobytes()
    assert joint.step_count == opts[0].step_count == opts[1].step_count == 3


@pytest.mark.parametrize("lanes", [None, 3], ids=["plain", "lane_stack"])
@pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
def test_forward_values_equals_the_allocating_pass_and_leaves_its_input(act, lanes):
    rng = np.random.default_rng(23)
    nets = [build_network([5, 7, 4, 2], activation=act, seed=s) for s in range(lanes or 1)]
    net = nets[0] if lanes is None else stack_networks(nets)
    for p in net.parameters():
        p[...] = rng.normal(size=p.shape)  # nonzero biases, so the add shows
    x = rng.normal(size=(9, 5) if lanes is None else (lanes, 9, 5))
    given = x.copy()
    h = x
    for layer in net.layers:
        h = h @ layer.weight + layer.bias
        h = {"relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh,
             "identity": lambda v: v}[layer.activation](h)
    got = net.forward_values(x)
    assert got.shape == h.shape and got.tobytes() == h.tobytes()
    assert x.tobytes() == given.tobytes()
