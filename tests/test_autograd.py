import numpy as np
import pytest

from splitlab import autograd as ag
from splitlab.autograd import (
    AutogradError,
    Tape,
    add,
    add_bias,
    activation,
    backward,
    constant,
    matmul,
    mse,
    mul,
    relu,
    relu_grad,
    smul,
    spread,
    sub,
    sum_all,
    sum_rows,
    tanh,
    tile_rows,
    transpose,
)

from splitlab.nn import build_network, stack_networks

from oracles import assert_grad_close, central_diff, loop_matmul, loop_mse


def select_column(x, j):
    """Column j as a rows x 1 tensor, per lane: a slice written from the
    primitives, as a matmul by a constant picker."""
    picker = np.zeros((*x.shape[:-2], x.cols, 1))
    picker[..., j, 0] = 1.0
    return matmul(x, picker)


def test_matmul_identity():
    out = matmul([[1.0, 0.0], [0.0, 1.0]], [[3.0], [4.0]])
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_hand_product():
    out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
    assert out.data[0, 0] == 11.0


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert np.abs(matmul(a, b).data - loop_matmul(a, b)).max() < 1e-12


def test_matmul_dim_mismatch():
    with pytest.raises(AutogradError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_add_bias_zero():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(add_bias(x, [[0.0, 0.0]]).data, x)


def test_add_bias_broadcast():
    assert np.array_equal(add_bias([[1.0, 2.0]], [[10.0, 20.0]]).data, [[11.0, 22.0]])


def test_add_bias_shape_error():
    with pytest.raises(AutogradError):
        add_bias(np.ones((2, 3)), np.ones((1, 2)))


def test_bias_gradient_of_sum_counts_rows():
    # d(sum of x + b broadcast)/db_j equals the number of rows.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    b0 = rng.normal(size=(1, 3))
    tape = Tape()
    b = tape.leaf(b0)
    loss = sum_all(add_bias(constant(x), b))
    (gb,) = backward(loss, [b])
    assert np.allclose(gb.data, np.full((1, 3), 5.0))
    numeric = central_diff(lambda v: (x + v).sum(), b0)
    assert_grad_close(gb.data, numeric)


def test_relu_values():
    assert np.array_equal(relu([[-1.0, 2.0]]).data, [[0.0, 2.0]])


def test_identity_passthrough():
    x = constant([[1.0, -2.0]])
    assert activation(x, "identity") is x


def test_unknown_activation():
    with pytest.raises(AutogradError):
        activation([[1.0]], "softplus")


def test_tanh_gradient_matches_fd():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(2, 3))
    tape = Tape()
    x = tape.leaf(x0)
    loss = sum_all(tanh(x))
    (g,) = backward(loss, [x])
    numeric = central_diff(lambda v: np.tanh(v).sum(), x0)
    assert np.abs(g.data - numeric).max() < 1e-6


def test_mse_zero_when_equal():
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert mse(x, x).item() == 0.0


def test_mse_unit_case():
    assert mse([[0.0], [0.0]], [[1.0], [1.0]]).item() == 1.0


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 3))
    assert abs(mse(p, t).item() - loop_mse(p, t)) < 1e-12


def test_mse_shape_error():
    with pytest.raises(AutogradError):
        mse(np.ones((2, 2)), np.ones((2, 3)))


def test_backward_square():
    tape = Tape()
    x = tape.leaf([[3.0]])
    (g,) = backward(mul(x, x), [x])
    assert g.data[0, 0] == 6.0


def test_double_backward_cube():
    # d^2(x^3)/dx^2 = 6x -> 12 at x = 2.
    tape = Tape()
    x = tape.leaf([[2.0]])
    y = mul(mul(x, x), x)
    (g1,) = backward(y, [x], create_graph=True)
    assert g1.data[0, 0] == pytest.approx(12.0)  # 3x^2
    (g2,) = backward(g1, [x])
    assert g2.data[0, 0] == pytest.approx(12.0)  # 6x


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(AutogradError):
        backward(add(x, x), [x])


def test_backward_rejects_foreign_tensor():
    tape = Tape()
    other = Tape()
    x = tape.leaf([[1.0]])
    y = other.leaf([[1.0]])
    with pytest.raises(AutogradError):
        backward(mul(x, x), [y])


def test_mixing_tapes_is_an_error():
    a = Tape().leaf([[1.0]])
    b = Tape().leaf([[1.0]])
    with pytest.raises(AutogradError):
        mul(a, b)


def test_nonfinite_is_rejected():
    with pytest.raises(AutogradError):
        constant([[np.inf]])
    with pytest.raises(AutogradError):
        Tape().leaf([[np.nan]])


@pytest.mark.parametrize("create_graph", [False, True])
def test_nonfinite_intermediate_names_its_op(create_graph):
    # tanh would saturate the overflowed matmul to a finite loss, but the
    # matmul itself raises and records nothing, so backward over the tape
    # afterwards, first or second order, still sees only finite values
    tape = Tape()
    x = tape.leaf([[1e200]])
    w = tape.leaf([[1e200]])
    with np.errstate(over="ignore"):
        with pytest.raises(AutogradError, match="non-finite values produced by 'matmul'"):
            sum_all(tanh(matmul(x, w)))
    assert len(tape) == 2
    gx, gw = backward(sum_all(tanh(mul(x, constant([[0.0]])))), [x, w],
                      create_graph=create_graph)
    assert gx.data.tolist() == [[0.0]] and gw.data.tolist() == [[0.0]]


def test_a_leaf_checks_the_operations_recorded_before_it():
    # the first non-finite value in tape order is named: the smul raises at
    # once and records nothing, so a later leaf names only itself
    tape = Tape()
    x = tape.leaf([[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(AutogradError, match="non-finite values produced by 'smul'"):
            smul(x, 10.0)
    assert len(tape) == 1
    with pytest.raises(AutogradError, match="non-finite values produced by 'leaf'"):
        tape.leaf([[np.inf]])


def test_first_order_gradients_come_back_off_the_tape():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    b = tape.leaf([[0.5, -0.5]])
    loss = mse(add_bias(x, b), constant([[0.0, 1.0]]))
    for g in backward(loss, [x, b]):
        assert g.tape is None and g.node is None
    for g in backward(loss, [x, b], create_graph=True):
        assert g.tape is tape and g.node is not None


def test_gradient_for_unused_variable_is_zero():
    tape = Tape()
    x = tape.leaf([[1.5]])
    z = tape.leaf([[2.5]])
    (gz,) = backward(mul(x, x), [z])
    assert np.array_equal(gz.data, [[0.0]])


def test_create_graph_parity_first_order():
    rng = np.random.default_rng(17)
    w0 = rng.normal(size=(3, 2))
    x = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 2))

    def run(create_graph):
        tape = Tape()
        w = tape.leaf(w0)
        loss = mse(matmul(constant(x), w), constant(t))
        return backward(loss, [w], create_graph=create_graph)[0].data

    assert np.array_equal(run(False), run(True))


def test_taped_replay_is_deterministic():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 3))

    def run():
        tape = Tape()
        a = tape.leaf(x)
        out = sum_all(tanh(matmul(a, transpose(a))))
        (g,) = backward(out, [a])
        return out.data.copy(), g.data.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


# --- per-primitive gradient checks: central differences at random points ----

def _gradcheck_cases():
    """(name, build) pairs; build(x: leaf Tensor, aux arrays) -> scalar Tensor."""
    rng = np.random.default_rng(0)
    r = rng.normal(size=(2, 3))       # generic weighting so adjoints are non-trivial
    r_t = rng.normal(size=(3, 2))
    r_mat = rng.normal(size=(3, 4))
    r_wide = rng.normal(size=(4, 3))
    one_row = rng.normal(size=(1, 3))

    return [
        ("matmul_left", (2, 3), lambda x: sum_all(mul(matmul(x, constant(r_mat)), constant(np.ones((2, 4)) + r[:, :1])))),
        ("matmul_right", (3, 2), lambda x: sum_all(mul(matmul(constant(r), x), constant(np.ones((2, 2)))))),
        ("transpose", (2, 3), lambda x: sum_all(mul(transpose(x), constant(r_t)))),
        ("add", (2, 3), lambda x: sum_all(mul(add(x, constant(r)), constant(r)))),
        ("sub", (2, 3), lambda x: sum_all(mul(sub(constant(r), x), constant(r)))),
        ("mul", (2, 3), lambda x: sum_all(mul(mul(x, constant(r)), constant(r)))),
        ("smul", (2, 3), lambda x: sum_all(mul(smul(x, -1.7), constant(r)))),
        ("tile_rows", (1, 3), lambda x: sum_all(mul(tile_rows(x, 4), constant(r_wide)))),
        ("add_bias", (1, 3), lambda x: sum_all(mul(tanh(add_bias(constant(r_wide), x)), constant(r_wide)))),
        ("sum_rows", (4, 3), lambda x: sum_all(mul(sum_rows(x), constant(one_row)))),
        ("sum_all", (2, 3), lambda x: smul(sum_all(x), 0.3)),
        ("spread", (1, 1), lambda x: sum_all(mul(spread(x, 2, 3), constant(r)))),
        ("relu", (2, 3), lambda x: sum_all(mul(relu(x), constant(r)))),
        ("relu_grad", (2, 3), lambda x: sum_all(mul(relu_grad(x, constant(r)), constant(r)))),
        ("tanh", (2, 3), lambda x: sum_all(mul(tanh(x), constant(r)))),
        ("select_column", (3, 3), lambda x: sum_all(select_column(x, 1))),
        ("mse", (2, 3), lambda x: mse(x, constant(r))),
        ("composition", (2, 3), lambda x: mse(tanh(matmul(x, constant(r_mat))), constant(np.zeros((2, 4))))),
    ]


@pytest.mark.parametrize("name,shape,build", _gradcheck_cases(),
                         ids=[c[0] for c in _gradcheck_cases()])
def test_primitive_gradients_match_finite_differences(name, shape, build):
    rng = np.random.default_rng(42)
    for _ in range(100):
        x0 = rng.normal(size=shape)
        if name == "relu":
            # keep clear of the kink, where the subgradient convention differs
            x0 = np.where(np.abs(x0) < 0.1, x0 + 0.2 * np.sign(x0 + 0.5), x0)

        tape = Tape()
        x = tape.leaf(x0)
        loss = build(x)
        (g,) = backward(loss, [x])

        def f(v):
            t2 = Tape()
            return build(t2.leaf(v)).item()

        numeric = central_diff(f, x0, step=1e-5)
        assert_grad_close(g.data, numeric, abs_tol=1e-6, rel_tol=1e-4)


# --- second order ------------------------------------------------------------

def _second_order_cases():
    return [
        ("cubic", lambda x: mul(mul(x, x), x)),
        ("tanh_sq", lambda x: mul(tanh(x), tanh(x))),
        ("quartic_mix", lambda x: mul(mul(x, x), tanh(x))),
        # second order through relu_grad, relu's own VJP
        ("relu_cubic", lambda x: mul(mul(relu(x), relu(x)), x)),
    ]


@pytest.mark.parametrize("name,f", _second_order_cases(), ids=[c[0] for c in _second_order_cases()])
def test_double_backward_matches_fd_of_first_derivative(name, f):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x0 = float(rng.normal()) * 0.8 + 0.3

        tape = Tape()
        x = tape.leaf([[x0]])
        (g1,) = backward(f(x), [x], create_graph=True)
        (g2,) = backward(g1, [x])

        def first_derivative(v):
            t = Tape()
            xv = t.leaf([[float(v)]])
            return backward(f(xv), [xv])[0].item()

        step = 1e-4
        numeric = (first_derivative(x0 + step) - first_derivative(x0 - step)) / (2 * step)
        assert g2.item() == pytest.approx(numeric, rel=1e-3, abs=1e-6)


def test_grad_norm_of_inner_gradient_matches_fd():
    # One linear layer with mean-squared loss: differentiate the squared norm
    # of dL/dE with respect to the layer weights, checked against central
    # finite differences (this is the second-order pattern the optimizers of
    # recorded-gradient matching rely on).
    rng = np.random.default_rng(31)
    e0 = rng.normal(size=(5, 4))
    w0 = rng.normal(size=(4, 2)) * 0.7
    y = rng.normal(size=(5, 2))

    def grad_norm_sq(w_val: np.ndarray) -> float:
        tape = Tape()
        e = tape.leaf(e0)
        w = tape.leaf(w_val)
        loss = mse(matmul(e, w), constant(y))
        (ge,) = backward(loss, [e], create_graph=True)
        return sum_all(mul(ge, ge)).item()

    tape = Tape()
    e = tape.leaf(e0)
    w = tape.leaf(w0)
    loss = mse(matmul(e, w), constant(y))
    (ge,) = backward(loss, [e], create_graph=True)
    norm_sq = sum_all(mul(ge, ge))
    (gw,) = backward(norm_sq, [w])

    numeric = central_diff(grad_norm_sq, w0, step=1e-4)
    diff = np.abs(gw.data - numeric)
    assert (diff <= np.maximum(1e-6, 1e-3 * np.abs(numeric))).all()


def test_inner_gradient_through_add_bias_and_mse_matches_fd():
    # Second order through the fused primitives: the squared norm of
    # dL/dE for L = mse(tanh(E W + b), Y), differentiated w.r.t. W, b and
    # the target Y. E is registered last, so the inner backward's walk stops
    # at E and forms no adjoint for W, b or Y.
    rng = np.random.default_rng(37)
    e0 = rng.normal(size=(5, 4))
    w0 = rng.normal(size=(4, 3)) * 0.6
    b0 = rng.normal(size=(1, 3)) * 0.3
    y0 = rng.normal(size=(5, 3))

    def inner_norm_sq(w_val, b_val, y_val):
        tape = Tape()
        w, b, y = tape.leaf(w_val), tape.leaf(b_val), tape.leaf(y_val)
        e = tape.leaf(e0)
        loss = mse(tanh(add_bias(matmul(e, w), b)), y)
        (ge,) = backward(loss, [e], create_graph=True)
        return tape, (w, b, y), sum_all(mul(ge, ge))

    _, leaves, norm_sq = inner_norm_sq(w0, b0, y0)
    grads = backward(norm_sq, list(leaves))

    points = [w0, b0, y0]
    for k, g in enumerate(grads):
        def f(v, k=k):
            args = list(points)
            args[k] = v
            return inner_norm_sq(*args)[2].item()

        numeric = central_diff(f, points[k], step=1e-5)
        assert_grad_close(g.data, numeric, abs_tol=1e-7, rel_tol=1e-4)


# --- lanes: a (lanes, rows, cols) stack computes each lane as it would alone --

LANES = 3


def _lane_ops():
    """(name, shape, op) triples; op(x, c) applies one primitive to x, where
    c maps a per-lane stack of constants to what the same lane sees alone."""
    rng = np.random.default_rng(3)

    def per_lane(*shape):
        return rng.normal(size=(LANES, *shape))

    r = per_lane(2, 3)
    r_mat = per_lane(3, 4)
    r_wide = per_lane(4, 3)
    one_row = per_lane(1, 3)
    return [
        ("matmul_left", (2, 3), lambda x, c: matmul(x, c(r_mat))),
        ("matmul_right", (3, 2), lambda x, c: matmul(c(r), x)),
        ("transpose", (2, 3), lambda x, c: transpose(x)),
        ("add", (2, 3), lambda x, c: add(x, c(r))),
        ("sub", (2, 3), lambda x, c: sub(c(r), x)),
        ("mul", (2, 3), lambda x, c: mul(x, c(r))),
        ("mul_self", (2, 3), lambda x, c: mul(x, x)),
        ("smul", (2, 3), lambda x, c: smul(x, -1.7)),
        ("tile_rows", (1, 3), lambda x, c: tile_rows(x, 4)),
        ("add_bias_bias", (1, 3), lambda x, c: add_bias(c(r_wide), x)),
        ("add_bias_input", (4, 3), lambda x, c: add_bias(x, c(one_row))),
        ("sum_rows", (4, 3), lambda x, c: sum_rows(x)),
        ("sum_all", (2, 3), lambda x, c: sum_all(x)),
        ("spread", (1, 1), lambda x, c: spread(x, 2, 3)),
        ("relu", (2, 3), lambda x, c: relu(x)),
        ("relu_grad", (2, 3), lambda x, c: relu_grad(x, c(r))),
        ("tanh", (2, 3), lambda x, c: tanh(x)),
        ("select_column", (3, 3), lambda x, c: select_column(x, 1)),
        ("mse", (2, 3), lambda x, c: mse(x, c(r))),
        ("mse_target", (2, 3), lambda x, c: mse(c(r), x)),
    ]


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("name,shape,op", _lane_ops(), ids=[c[0] for c in _lane_ops()])
def test_lane_stack_matches_each_lane_alone(name, shape, op, create_graph):
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(LANES, *shape))
    stacked = Tape()
    x = stacked.leaf(x0)
    out = op(x, lambda a: a)
    weight = rng.normal(size=out.shape)
    loss = sum_all(mul(out, constant(weight)))
    (g,) = backward(loss, [x], create_graph=create_graph)
    assert out.shape[0] == LANES and loss.shape == (LANES, 1, 1)
    for lane in range(LANES):
        alone = Tape()
        xl = alone.leaf(x0[lane])
        out_l = op(xl, lambda a: a[lane])
        loss_l = sum_all(mul(out_l, constant(weight[lane])))
        (gl,) = backward(loss_l, [xl], create_graph=create_graph)
        assert out.data[lane].tobytes() == out_l.data.tobytes()
        assert loss.data[lane].tobytes() == loss_l.data.tobytes()
        assert g.data[lane].tobytes() == gl.data.tobytes()


def test_lane_gradient_matches_finite_differences():
    # the gradient of the summed lane losses, checked entry by entry
    rng = np.random.default_rng(12)
    w = rng.normal(size=(LANES, 3, 4))
    b = rng.normal(size=(LANES, 1, 4))
    y = rng.normal(size=(LANES, 2, 4))

    def build(x):
        return mse(tanh(add_bias(matmul(x, constant(w)), constant(b))), constant(y))

    x0 = rng.normal(size=(LANES, 2, 3))
    tape = Tape()
    x = tape.leaf(x0)
    (g,) = backward(build(x), [x])
    numeric = central_diff(lambda v: float(build(Tape().leaf(v)).data.sum()), x0)
    assert_grad_close(g.data, numeric, abs_tol=1e-7, rel_tol=1e-4)


def test_lane_second_order_matches_each_lane_and_finite_differences():
    # the attack's pattern per lane: the squared norm of dL/dE for
    # L = mse(tanh(E W + b), Y), differentiated w.r.t. W
    rng = np.random.default_rng(41)
    e0 = rng.normal(size=(LANES, 5, 4))
    w0 = rng.normal(size=(LANES, 4, 3)) * 0.6
    b0 = rng.normal(size=(LANES, 1, 3)) * 0.3
    y0 = rng.normal(size=(LANES, 5, 3))

    def norm_sq_grad(e_val, w_val, b_val, y_val):
        tape = Tape()
        w = tape.leaf(w_val)
        e = tape.leaf(e_val)
        loss = mse(tanh(add_bias(matmul(e, w), constant(b_val))), constant(y_val))
        (ge,) = backward(loss, [e], create_graph=True)
        norm_sq = sum_all(mul(ge, ge))
        (gw,) = backward(norm_sq, [w])
        return norm_sq, gw

    norm_sq, gw = norm_sq_grad(e0, w0, b0, y0)
    for lane in range(LANES):
        norm_l, gw_l = norm_sq_grad(e0[lane], w0[lane], b0[lane], y0[lane])
        assert norm_sq.data[lane].tobytes() == norm_l.data.tobytes()
        assert gw.data[lane].tobytes() == gw_l.data.tobytes()

    numeric = central_diff(lambda v: float(norm_sq_grad(e0, v, b0, y0)[0].data.sum()),
                           w0, step=1e-5)
    assert_grad_close(gw.data, numeric, abs_tol=1e-7, rel_tol=1e-4)


@pytest.mark.parametrize("create_graph", [False, True])
def test_nonfinite_value_names_its_op_and_lane(create_graph):
    x0 = np.ones((LANES, 1, 1))
    x0[1] = 1e200
    tape = Tape()
    x = tape.leaf(x0)
    w = tape.leaf(np.full((LANES, 1, 1), 1e200))
    with np.errstate(over="ignore"):
        with pytest.raises(AutogradError,
                           match=r"non-finite values produced by 'matmul' \(lane 1\)") as info:
            sum_all(tanh(matmul(x, w)))
    assert info.value.lane == 1
    assert len(tape) == 2
    (gx,) = backward(sum_all(smul(x, 2.0)), [x], create_graph=create_graph)
    assert (gx.data == 2.0).all()
    with pytest.raises(AutogradError, match=r"'constant' \(lane 2\)"):
        constant(np.stack([np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), np.nan)]))


def test_lane_shape_rules():
    tape = Tape()
    stacked = tape.leaf(np.ones((LANES, 2, 3)))
    assert matmul(stacked, np.ones((LANES, 3, 2))).shape == (LANES, 2, 2)
    with pytest.raises(AutogradError):
        matmul(stacked, np.ones((3, 2)))
    with pytest.raises(AutogradError):
        matmul(stacked, np.ones((LANES + 1, 3, 2)))
    with pytest.raises(AutogradError):
        add_bias(stacked, np.ones((1, 3)))
    with pytest.raises(AutogradError):
        add(stacked, np.ones((2, 3)))
    with pytest.raises(AutogradError):
        backward(sum_rows(stacked), [stacked])
    with pytest.raises(AutogradError):
        constant(np.ones((1, 2, 3, 4)))


# --- step plans: a captured step replayed as a flat numpy program ------------

PLAN_NETS = [([8, 1], "relu"), ([8, 16, 1], "relu"), ([8, 4, 2], "tanh")]


def _plan_net(dims, act, lanes):
    nets = [build_network(dims, activation=act, seed=s) for s in range(lanes or 1)]
    return nets[0] if lanes is None else stack_networks(nets)


def _plan_arrays(rng, net, rows, lanes):
    """New values for every input of _attack_like_step, in its input order."""
    lead = () if lanes is None else (lanes,)
    params = [rng.normal(size=p.shape) * 0.5 for p in net.parameters()]
    return [*params, rng.normal(size=(*lead, rows, net.out_dim)),
            rng.normal(size=(*lead, rows, net.in_dim)),
            rng.normal(size=(*lead, rows, net.in_dim)) * 0.1]


def _attack_like_step(net, arrays, create_graph):
    """The attack's second-order step on a network: an inner backward inside
    the loss, then an outer backward to the parameters and the dummy rows.
    Returns the leaves (parameters, dummy, cut, recorded) and the outputs
    (loss, then the gradients)."""
    *params, dummy, cut, recorded = arrays
    net.set_parameters(params)
    tape = Tape()
    params = net.attach(tape)
    y, e, r = tape.leaf(dummy), tape.leaf(cut), tape.leaf(recorded)
    anchor = mse(net.forward(e, params), y)
    (induced,) = backward(anchor, [e], create_graph=True)
    total = add(smul(mse(r, induced), 3.0), anchor)
    grads = backward(total, [*params, y], create_graph=create_graph)
    return [*params, y, e, r], [total, *grads]


@pytest.mark.parametrize("lanes", [None, LANES], ids=["one_lane", "lane_stack"])
@pytest.mark.parametrize("dims,act", PLAN_NETS, ids=[f"{a}{d}" for d, a in PLAN_NETS])
def test_plan_replay_equals_a_fresh_taped_step(dims, act, lanes):
    rng = np.random.default_rng(5)
    net = _plan_net(dims, act, lanes)
    leaves, outputs = _attack_like_step(net, _plan_arrays(rng, net, 6, lanes), True)
    plan = ag.StepPlan(leaves, outputs)
    # the plan drops what no output needs (here the cut's own adjoints)
    assert len(plan) < len(leaves[0].tape) - len(leaves)
    for _ in range(3):
        arrays = _plan_arrays(rng, net, 6, lanes)
        replayed = plan.run(arrays)
        _, taped = _attack_like_step(net, arrays, create_graph=False)
        assert len(replayed) == len(taped)
        for got, want in zip(replayed, taped):
            assert got.shape == want.shape and got.tobytes() == want.data.tobytes()


def test_plan_refuses_inputs_of_another_shape_or_count():
    rng = np.random.default_rng(6)
    net = _plan_net([8, 4, 1], "tanh", None)
    plan = ag.StepPlan(*_attack_like_step(net, _plan_arrays(rng, net, 6, None), True))
    short = _plan_arrays(rng, net, 5, None)
    with pytest.raises(AutogradError, match=r"plan input 4 has shape \(5, 1\), "
                                            r"the plan was captured for \(6, 1\)"):
        plan.run(short)
    with pytest.raises(AutogradError, match="plan takes 7 inputs, got 6"):
        plan.run(short[:-1])


def test_plan_needs_every_leaf_it_reads_as_an_input():
    rng = np.random.default_rng(7)
    net = _plan_net([8, 1], "relu", None)
    leaves, outputs = _attack_like_step(net, _plan_arrays(rng, net, 6, None), True)
    with pytest.raises(AutogradError, match="not one of its inputs"):
        ag.StepPlan(leaves[:-1], outputs)
    with pytest.raises(AutogradError, match="not a leaf"):
        ag.StepPlan([*leaves, outputs[1]], outputs)


@pytest.mark.parametrize("where", ["recorded_overflow", "cut_nan"])
def test_plan_names_the_op_and_lane_the_taped_step_names(where):
    rng = np.random.default_rng(8)
    net = _plan_net([8, 16, 1], "relu", LANES)
    plan = ag.StepPlan(*_attack_like_step(net, _plan_arrays(rng, net, 6, LANES), True))
    arrays = _plan_arrays(rng, net, 6, LANES)
    if where == "recorded_overflow":
        arrays[-1][1] *= 1e300     # the match term overflows in lane 1
    else:
        arrays[-2][2, 0, 0] = np.nan
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (plan.run, lambda a: _attack_like_step(net, a, create_graph=False)):
            with pytest.raises(AutogradError) as info:
                run(arrays)
            errors.append((str(info.value), info.value.lane))
    expected = {"recorded_overflow": ("non-finite values produced by 'mse' (lane 1)", 1),
                "cut_nan": ("non-finite values produced by 'leaf' (lane 2)", 2)}[where]
    assert errors == [expected, expected]


# --- fed leaves: numpy work between the parts of one plan --------------------

def _fed_arrays(rng, bottom, top, rows, lanes):
    """New values for every input of _fed_step, in its input order."""
    lead = () if lanes is None else (lanes,)
    params = [rng.normal(size=p.shape) * 0.5 for p in (*bottom.parameters(), *top.parameters())]
    return [rng.normal(size=(*lead, rows, bottom.in_dim)), *params]


def _feeders(poison=None):
    """The targets from the cut and the sent gradient from the cut gradient;
    poison=(k, lane) makes feeder k put a NaN into that lane."""
    def targets_of(cut):
        return cut[..., :2] * 1.5 - 0.25

    def sent_of(cut_grad):
        return cut_grad * 0.5 + 0.01

    feeders = [targets_of, sent_of]
    if poison is not None:
        k, lane = poison
        clean = feeders[k]

        def poisoned(value):
            out = clean(value)
            out[lane, 0, 0] = np.nan
            return out

        feeders[k] = poisoned
    return feeders


def _fed_step(bottom, top, arrays, feeders, create_graph):
    """The split training step: the targets are fed from the cut, the label
    party's backward stops at the cut, and the sent gradient is fed from the
    cut gradient. Returns the inputs (features, bottom, then top
    parameters), the outputs (cut, loss, top gradients as a group, sent
    gradient, bottom gradients as a group) and the links for StepPlan."""
    x, *params = arrays
    split = len(bottom.parameters())
    bottom.set_parameters(params[:split])
    top.set_parameters(params[split:])
    targets_of, sent_of = feeders
    tape = Tape()
    leaf_x = tape.leaf(x)
    bottom_params = bottom.attach(tape)
    cut = bottom.forward(leaf_x, bottom_params)
    targets = tape.leaf(targets_of(cut.data))
    top_params = top.attach(tape)
    loss = mse(top.forward(cut, top_params), targets)
    *top_grads, cut_grad = backward(loss, [*top_params, cut], create_graph=create_graph)
    sent = tape.leaf(sent_of(cut_grad.data))
    bottom_grads = backward(sum_all(mul(cut, sent)), bottom_params, create_graph=create_graph)
    links = {"fed": [(targets, cut), (sent, cut_grad)]}
    return ([leaf_x, *bottom_params, *top_params],
            [cut, loss, top_grads, sent, bottom_grads], links)


def _fed_plan(seed, lanes):
    rng = np.random.default_rng(seed)
    bottom = _plan_net([5, 6, 3], "relu", lanes)
    top = _plan_net([3, 4, 2], "tanh", lanes)
    inputs, outputs, links = _fed_step(bottom, top, _fed_arrays(rng, bottom, top, 7, lanes),
                                       _feeders(), True)
    return rng, bottom, top, ag.StepPlan(inputs, outputs, **links), outputs


def _taped_values(outputs):
    """A fresh taped step's outputs as a plan returns them."""
    return [np.concatenate([g.data for g in out], axis=None) if isinstance(out, list)
            else out.data for out in outputs]


@pytest.mark.parametrize("lanes", [None, LANES], ids=["one_lane", "lane_stack"])
def test_a_fed_plan_equals_a_fresh_taped_step(lanes):
    rng, bottom, top, plan, _ = _fed_plan(12, lanes)
    for _ in range(3):
        arrays = _fed_arrays(rng, bottom, top, 7, lanes)
        replayed = plan.run(arrays, _feeders())
        _, taped, _ = _fed_step(bottom, top, arrays, _feeders(), False)
        want = _taped_values(taped)
        assert [a.shape for a in replayed] == [a.shape for a in want]
        assert [a.tobytes() for a in replayed] == [a.tobytes() for a in want]
    # the top and bottom gradients come back flat, in the networks' layout
    assert replayed[2].shape == top.flat.shape and replayed[4].shape == bottom.flat.shape


def test_a_fed_plan_names_the_op_and_lane_the_taped_step_names():
    rng, bottom, top, plan, _ = _fed_plan(13, LANES)
    arrays = _fed_arrays(rng, bottom, top, 7, LANES)
    for poison in ((0, 2), (1, 1)):
        seen = []

        def watched(feeder):
            def feed(value):
                seen.append(bool(np.isfinite(value).all()))
                return feeder(value)
            return feed

        errors = []
        for run in (lambda f: plan.run(arrays, f),
                    lambda f: _fed_step(bottom, top, arrays, f, False)):
            with pytest.raises(AutogradError) as info:
                run([watched(f) for f in _feeders(poison)])
            errors.append((str(info.value), info.value.lane))
        assert errors[0] == errors[1] == ("non-finite values produced by 'leaf' "
                                          f"(lane {poison[1]})", poison[1])
        # no feeder ran on a non-finite value
        assert all(seen)


def test_a_feeder_of_the_wrong_shape_is_named():
    rng, bottom, top, plan, _ = _fed_plan(14, None)
    targets_of, sent_of = _feeders()
    arrays = _fed_arrays(rng, bottom, top, 7, None)
    with pytest.raises(AutogradError, match=r"fed leaf 1 has shape \(7, 2\), "
                                            r"the plan was captured for \(7, 3\)"):
        plan.run(arrays, [targets_of, lambda g: g[:, :2]])
    with pytest.raises(AutogradError, match="plan takes 2 feeders, got 1"):
        plan.run(arrays, [targets_of])
    replayed = plan.run(arrays, [targets_of, sent_of])
    _, taped, _ = _fed_step(bottom, top, arrays, [targets_of, sent_of], False)
    assert [a.tobytes() for a in replayed] == [a.tobytes() for a in _taped_values(taped)]


def test_a_plan_refuses_bad_fed_leaves():
    rng = np.random.default_rng(15)
    bottom, top = _plan_net([5, 6, 3], "relu", None), _plan_net([3, 4, 2], "tanh", None)
    inputs, outputs, links = _fed_step(bottom, top, _fed_arrays(rng, bottom, top, 7, None),
                                       _feeders(), True)
    (targets, cut), (sent, cut_grad) = links["fed"]
    with pytest.raises(AutogradError, match=r"plan fed node \d+ is a 'add_bias', not a leaf"):
        ag.StepPlan(inputs, outputs, fed=[(targets, cut), (cut, inputs[0])])
    with pytest.raises(AutogradError, match="is made before its source"):
        ag.StepPlan(inputs, outputs, fed=[(targets, cut), (sent, outputs[-1][0])])
    with pytest.raises(AutogradError, match="not one of its inputs"):
        ag.StepPlan(inputs, outputs, fed=[(targets, cut)])
    with pytest.raises(AutogradError, match="named twice"):
        ag.StepPlan([*inputs, targets], outputs, **links)
    with pytest.raises(AutogradError, match="precede outputs made before it"):
        ag.StepPlan(inputs, [outputs[3], *outputs[:3]], **links)


# --- every kernel through a plan, and the plan's buffer -----------------------

# op -> (input shapes, build): build(*leaves) applies the op to taped leaves
KERNEL_CASES = {
    "matmul": ([(3, 4), (4, 2)], lambda a, b: matmul(a, b)),
    "transpose": ([(3, 4)], lambda a: transpose(a)),
    "add": ([(3, 4), (3, 4)], lambda a, b: add(a, b)),
    "sub": ([(3, 4), (3, 4)], lambda a, b: sub(a, b)),
    "mul": ([(3, 4), (3, 4)], lambda a, b: mul(a, b)),
    "smul": ([(3, 4)], lambda a: smul(a, -1.7)),
    "tile_rows": ([(1, 4)], lambda a: tile_rows(a, 3)),
    "sum_rows": ([(3, 4)], lambda a: sum_rows(a)),
    "sum_all": ([(3, 4)], lambda a: sum_all(a)),
    "spread": ([(1, 1)], lambda a: spread(a, 3, 4)),
    "relu": ([(3, 4)], lambda a: relu(a)),
    "relu_grad": ([(3, 4), (3, 4)], lambda g, x: relu_grad(g, x)),
    "tanh": ([(3, 4)], lambda a: tanh(a)),
    "add_bias": ([(3, 4), (1, 4)], lambda x, b: add_bias(x, b)),
    "mse": ([(3, 4), (3, 4)], lambda p, t: mse(p, t)),
}


def test_the_kernel_table_and_the_vjp_table_name_the_same_ops():
    assert set(ag._FORWARD) == set(ag._VJP) == set(KERNEL_CASES)


def _kernel_step(op, arrays):
    """The op on leaves, then a backward with create_graph from a loss
    quadratic in its result (so every gradient is a node). Returns the
    leaves and the outputs: the op's result, the loss and the gradients."""
    _, build = KERNEL_CASES[op]
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    y = build(*leaves)
    loss = sum_all(mul(y, y))
    # relu_grad has no gradient in x
    wrt = leaves[:1] if op == "relu_grad" else leaves
    return leaves, [y, loss, *backward(loss, wrt, create_graph=True)]


@pytest.mark.parametrize("lanes", [None, LANES], ids=["one_lane", "lane_stack"])
@pytest.mark.parametrize("op", sorted(KERNEL_CASES))
def test_every_kernel_replays_the_taped_bytes(op, lanes):
    rng = np.random.default_rng(23)
    lead = () if lanes is None else (lanes,)
    shapes, _ = KERNEL_CASES[op]

    def draw():
        return [rng.normal(size=(*lead, *shape)) for shape in shapes]

    plan = ag.StepPlan(*_kernel_step(op, draw()))
    for _ in range(2):
        arrays = draw()
        replayed = plan.run(arrays)
        _, taped = _kernel_step(op, arrays)
        assert len(replayed) == len(taped) == 2 + len(shapes) - (op == "relu_grad")
        for got, want in zip(replayed, taped):
            assert got.shape == want.shape and got.tobytes() == want.data.tobytes()


def _buffer_plan(seed):
    rng = np.random.default_rng(seed)
    net = _plan_net([8, 4, 1], "tanh", LANES)
    plan = ag.StepPlan(*_attack_like_step(net, _plan_arrays(rng, net, 6, LANES), True))
    return rng, net, plan


def test_plan_outputs_are_new_arrays_a_later_run_leaves_alone():
    rng, net, plan = _buffer_plan(9)
    arrays = _plan_arrays(rng, net, 6, LANES)
    first = plan.run(arrays)
    before = [out.tobytes() for out in first]
    plan.run(_plan_arrays(rng, net, 6, LANES))
    assert [out.tobytes() for out in first] == before
    _, taped = _attack_like_step(net, arrays, create_graph=False)
    assert before == [t.data.tobytes() for t in taped]


def test_a_run_after_a_refused_run_returns_the_taped_bytes():
    rng, net, plan = _buffer_plan(10)
    bad = _plan_arrays(rng, net, 6, LANES)
    bad[-2][1, 0, 0] = np.nan
    with pytest.raises(AutogradError, match=r"'leaf' \(lane 1\)"):
        plan.run(bad)
    arrays = _plan_arrays(rng, net, 6, LANES)
    replayed = plan.run(arrays)
    _, taped = _attack_like_step(net, arrays, create_graph=False)
    assert [out.tobytes() for out in replayed] == [t.data.tobytes() for t in taped]


@pytest.mark.parametrize("layout", ["strided_view", "fortran", "int"])
def test_plan_inputs_of_any_layout_replay_as_contiguous_float64_copies(layout):
    rng, net, plan = _buffer_plan(11)
    arrays = _plan_arrays(rng, net, 6, LANES)
    if layout == "strided_view":
        given = [np.repeat(a, 2, axis=-1)[..., ::2] for a in arrays]
        assert not all(g.flags.c_contiguous for g in given)
    elif layout == "fortran":
        given = [np.asfortranarray(a) for a in arrays]
        assert not all(g.flags.c_contiguous for g in given)
    else:
        given = [np.rint(a * 4).astype(np.int64) for a in arrays]
    copies = [np.ascontiguousarray(g, dtype=np.float64) for g in given]
    want = [out.tobytes() for out in plan.run(copies)]
    assert [out.tobytes() for out in plan.run(given)] == want


# --- the training step: create_graph changes no first-order byte -------------

def _training_step(bottom, top, x, targets, create_graph):
    """The split training step on one tape: the label party's backward to
    the top parameters and the cut, then the feature party's backward from
    the cut gradient to the bottom parameters. Returns every gradient."""
    tape = Tape()
    bottom_params = bottom.attach(tape)
    cut = bottom.forward(constant(x), bottom_params)
    top_params = top.attach(tape)
    loss = mse(top.forward(cut, top_params), constant(targets))
    *top_grads, cut_grad = backward(loss, [*top_params, cut], create_graph=create_graph)
    relay = sum_all(mul(cut, constant(cut_grad.data)))
    bottom_grads = backward(relay, bottom_params, create_graph=create_graph)
    return [g.data for g in (*top_grads, cut_grad, *bottom_grads)]


@pytest.mark.parametrize("lanes", [None, LANES], ids=["one_lane", "lane_stack"])
@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_create_graph_is_byte_neutral_on_the_training_step(act, lanes):
    rng = np.random.default_rng(19)
    lead = () if lanes is None else (lanes,)
    bottom = _plan_net([4, 6, 3], act, lanes)
    top = stack_networks([build_network([3, 5, 2], activation=act, seed=10 + s)
                          for s in range(lanes or 1)])
    x = rng.normal(size=(*lead, 7, 4))
    targets = rng.normal(size=(*lead, 7, 2))
    plain = _training_step(bottom, top, x, targets, create_graph=False)
    graphed = _training_step(bottom, top, x, targets, create_graph=True)
    assert len(plain) == len(graphed) == 4 + 1 + 4
    assert [g.tobytes() for g in plain] == [g.tobytes() for g in graphed]
