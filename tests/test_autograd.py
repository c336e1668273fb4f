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
    mulc,
    relu,
    select_column,
    smul,
    spread,
    sub,
    sum_all,
    sum_rows,
    tanh,
    tile_rows,
    transpose,
)

from oracles import assert_grad_close, central_diff, loop_matmul, loop_mse


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
    # tanh saturates, so the loss is finite although the matmul overflowed
    tape = Tape()
    x = tape.leaf([[1e200]])
    w = tape.leaf([[1e200]])
    with np.errstate(over="ignore"):
        loss = sum_all(tanh(matmul(x, w)))
    assert np.isfinite(loss.data).all()
    with pytest.raises(AutogradError, match="non-finite values produced by 'matmul'"):
        backward(loss, [x, w], create_graph=create_graph)


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
        ("mulc", (2, 3), lambda x: sum_all(mul(mulc(x, r), constant(r)))),
        ("tile_rows", (1, 3), lambda x: sum_all(mul(tile_rows(x, 4), constant(r_wide)))),
        ("add_bias", (1, 3), lambda x: sum_all(mul(tanh(add_bias(constant(r_wide), x)), constant(r_wide)))),
        ("sum_rows", (4, 3), lambda x: sum_all(mul(sum_rows(x), constant(one_row)))),
        ("sum_all", (2, 3), lambda x: smul(sum_all(x), 0.3)),
        ("spread", (1, 1), lambda x: sum_all(mul(spread(x, 2, 3), constant(r)))),
        ("relu", (2, 3), lambda x: sum_all(mul(relu(x), constant(r)))),
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
