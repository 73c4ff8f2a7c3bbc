"""Tensor engine: per-op gradient checks against central differences, plus
graph bookkeeping semantics (accumulation, no_grad, topological order)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp.autodiff import (
    Parameter,
    ParameterBag,
    Tensor,
    cast,
    concat,
    dropout,
    grad_enabled,
    matmul,
    maximum,
    no_grad,
    softmax,
    uniform_init,
)

from _gradcheck import max_rel_error
from _reference import broadcast_to, leaky_relu, sigmoid, tanh

TOL = 1e-6


def test_add_sub_mul_div_grads(rng):
    err = max_rel_error(lambda xs: ((xs[0] + xs[1]) * xs[0] - xs[1] / xs[0]).sum(),
                        [(3, 4), (3, 4)], rng, scale=2.0)
    assert err < TOL


def test_broadcast_binary_grads(rng):
    err = max_rel_error(lambda xs: (xs[0] * xs[1] + xs[1]).sum(),
                        [(3, 4), (4,)], rng)
    assert err < TOL


def test_neg_grads(rng):
    def build(xs):
        x, y = xs[0], -xs[0]
        return (x * x * x - y * y).sum()

    assert max_rel_error(build, [(5,)], rng, scale=0.8) < TOL


def test_elementwise_unary_grads(rng):
    def build(xs):
        x = xs[0]
        y = tanh(x.exp()) + sigmoid(x) * x.relu() + x.abs()
        return y.sum()

    assert max_rel_error(build, [(4, 3)], rng) < TOL


def test_log_sqrt_grads(rng):
    def build(xs):
        x = xs[0].abs() + 0.5
        return (x.log() + x.sqrt()).sum()

    assert max_rel_error(build, [(6,)], rng) < TOL


def test_clip_grads_interior_and_blocked():
    x = Tensor(np.array([-2.0, 0.3, 2.0]), requires_grad=True)
    x.clip(-1.0, 1.0).sum().backward()
    # pass-through inside the range, zero outside
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_sum_mean_axis_grads(rng):
    def build(xs):
        x = xs[0]
        return (x.sum(axis=0) * x.mean(axis=1, keepdims=True).sum(axis=0)).sum()

    assert max_rel_error(build, [(3, 4)], rng) < TOL


def test_reshape_transpose_grads(rng):
    def build(xs):
        x = xs[0].reshape(2, 6).transpose((1, 0))
        return (x * x).sum()

    assert max_rel_error(build, [(3, 4)], rng) < TOL


def test_swap_last_two_matches_transpose(rng):
    x = rng.standard_normal((2, 3, 4))
    a = Tensor(x).swap_last_two()
    assert a.data.shape == (2, 4, 3)
    assert np.array_equal(a.data, np.swapaxes(x, -1, -2))


def test_broadcast_to_grads(rng):
    def build(xs):
        return (broadcast_to(xs[0], (5, 3, 4)) * 2.0).sum()

    assert max_rel_error(build, [(3, 4)], rng) < TOL


def test_getitem_slice_grads(rng):
    def build(xs):
        x = xs[0]
        return (x[0:2] * x[1:3]).sum() + x[:, 1].sum()

    assert max_rel_error(build, [(3, 4)], rng) < TOL


def test_getitem_fancy_duplicate_indices():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x[np.array([0, 0, 2])].sum().backward()
    assert np.array_equal(x.grad, np.array([2.0, 0.0, 1.0]))


def test_matmul_grads_2d(rng):
    err = max_rel_error(lambda xs: matmul(xs[0], xs[1]).sum(),
                        [(3, 5), (5, 2)], rng)
    assert err < TOL


def test_matmul_grads_batched_weight(rng):
    # batched left operand against a 2-D weight takes the collapsed path
    def build(xs):
        y = matmul(xs[0], xs[1])
        return (y * y).sum()

    assert max_rel_error(build, [(2, 3, 4), (4, 3)], rng) < TOL


def test_matmul_grads_batched_both(rng):
    err = max_rel_error(lambda xs: matmul(xs[0], xs[1]).sum(),
                        [(2, 3, 4), (2, 4, 2)], rng)
    assert err < TOL


def test_matmul_grads_broadcast_batch(rng):
    err = max_rel_error(lambda xs: matmul(xs[0], xs[1]).sum(),
                        [(2, 1, 3, 4), (5, 4, 2)], rng)
    assert err < TOL


def test_matmul_rejects_vectors_and_mismatch():
    with pytest.raises(ValueError, match="ndim >= 2"):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError, match=r"\(2, 3\) and \(2, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_softmax_grads(rng):
    err = max_rel_error(lambda xs: (softmax(xs[0], axis=-1) * xs[1]).sum(),
                        [(3, 5), (3, 5)], rng)
    assert err < TOL


def test_softmax_grads_saturated_exact_oracle(rng):
    # saturated logits make finite differences noisy; compare against the
    # closed-form Jacobian-vector product instead
    x = 6.0 * rng.standard_normal((4, 5))
    gout = rng.standard_normal((4, 5))
    tau = 0.7

    t = Tensor(x, requires_grad=True)
    (softmax(t, axis=-1, temperature=tau) * Tensor(gout)).sum().backward()

    y = np.exp(x / tau - (x / tau).max(-1, keepdims=True))
    y /= y.sum(-1, keepdims=True)
    expected = y * (gout - (gout * y).sum(-1, keepdims=True)) / tau
    assert np.abs(t.grad - expected).max() < 1e-12


def test_softmax_temperature_grads(rng):
    err = max_rel_error(
        lambda xs: (softmax(xs[0], axis=0, temperature=0.8) * xs[1]).sum(),
        [(4, 2), (4, 2)], rng)
    assert err < TOL


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError, match="temperature"):
        softmax(Tensor(np.ones(3)), temperature=0.0)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]])
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 500.0)).data
    assert np.allclose(a, b, atol=1e-12)
    # large logits stay finite thanks to the max shift
    huge = softmax(Tensor(np.array([1e4, 0.0]))).data
    assert np.isfinite(huge).all()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1),
       temp=st.floats(0.05, 10.0, allow_nan=False))
def test_softmax_rows_always_sum_to_one(rows, cols, seed, temp):
    x = 10.0 * np.random.default_rng(seed).standard_normal((rows, cols))
    out = softmax(Tensor(x), axis=-1, temperature=temp).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-9
    assert (out >= 0.0).all()


def test_leaky_relu_grads_and_slope():
    x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
    y = leaky_relu(x, 0.2)
    assert np.allclose(y.data, [-0.4, 3.0])
    y.sum().backward()
    assert np.allclose(x.grad, [0.2, 1.0])


def test_maximum_grads_tie_goes_left():
    a = Tensor(np.array([1.0, 5.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 3.0, 4.0]), requires_grad=True)
    maximum(a, b).sum().backward()
    assert np.array_equal(a.grad, np.array([1.0, 1.0, 0.0]))
    assert np.array_equal(b.grad, np.array([0.0, 0.0, 1.0]))


def test_concat_grads(rng):
    def build(xs):
        y = concat([xs[0], xs[1]], axis=1)
        return (y * y).sum()

    assert max_rel_error(build, [(2, 3), (2, 2)], rng) < TOL


def test_getitem_integer_array_grads(rng):
    idx = np.array([4, 1, 1, 0])

    def build(xs):
        return (xs[0][idx] * Tensor(np.arange(4.0))).sum()

    assert max_rel_error(build, [(5,)], rng) < TOL


def test_dropout_train_scales_and_eval_is_identity(rng):
    x = Tensor(np.ones((200, 10)), requires_grad=True)
    out = dropout(x, 0.4, rng, training=True)
    kept = out.data != 0.0
    assert np.allclose(out.data[kept], 1.0 / 0.6)
    assert 0.3 < 1.0 - kept.mean() < 0.5  # loose band around the rate

    same = dropout(x, 0.4, rng, training=False)
    assert same is x
    with pytest.raises(ValueError, match="rate"):
        dropout(x, 1.0, rng, training=True)
    assert dropout(x, 0.0, rng, training=True) is x


@pytest.mark.parametrize("p, training", [(-0.5, True), (1.5, False), (-0.5, False)])
def test_dropout_checks_its_rate_whether_or_not_it_acts(rng, p, training):
    with pytest.raises(ValueError, match="rate"):
        dropout(Tensor(np.ones(3), requires_grad=True), p, rng, training)


# each op with a Python scalar (or dropout's mask, or leaky_relu's slope)
# next to its numpy reference, where a Python number is weak (NEP 50)
SCALAR_OPS = {
    "add": (lambda t: t + 1.5, lambda a: a + 1.5),
    "sub": (lambda t: t - 1.5, lambda a: a - 1.5),
    "mul": (lambda t: t * 0.3, lambda a: a * 0.3),
    "div": (lambda t: t / 3.0, lambda a: a / 3.0),
    "radd": (lambda t: 1.5 + t, lambda a: 1.5 + a),
    "rsub": (lambda t: 1.0 - t, lambda a: 1.0 - a),
    "rmul": (lambda t: 0.3 * t, lambda a: 0.3 * a),
    "maximum": (lambda t: maximum(t, 0.1), lambda a: np.where(a >= 0.1, a, 0.1)),
    "dropout": (lambda t: dropout(t, 0.25, np.random.default_rng(4), training=True),
                lambda a: a * ((np.random.default_rng(4).random(a.shape) >= 0.25)
                               / 0.75).astype(a.dtype)),
    "leaky_relu": (lambda t: leaky_relu(t, 0.2), lambda a: np.where(a >= 0.0, a, 0.2 * a)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", list(SCALAR_OPS))
def test_scalar_operand_keeps_the_tensor_dtype(rng, op, dtype):
    fn, reference = SCALAR_OPS[op]
    data = rng.standard_normal((3, 4)).astype(dtype)
    out = fn(Tensor(data, requires_grad=True))
    want = reference(data)
    assert out.dtype == dtype and want.dtype == dtype
    assert out.data.tobytes() == want.tobytes()
    grads = out._backward(np.ones_like(out.data))
    assert [g.dtype for g in grads if g is not None] == [np.dtype(dtype)]


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2.0).backward()


def test_diamond_graph_accumulates_once_per_path():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * 2.0
    z = y + y * y  # two paths through y
    z.backward()
    assert np.allclose(x.grad, [2.0 + 8.0 * 3.0])


def test_shared_leaf_double_use():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    (x + x).sum().backward()
    assert np.array_equal(x.grad, np.array([2.0, 2.0]))


def test_repeated_backward_accumulates_until_zero_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)
    (x * 3.0).sum().backward()
    (x * 3.0).sum().backward()
    assert np.allclose(x.grad, [6.0])
    x.zero_grad()
    (x * 3.0).sum().backward()
    assert np.allclose(x.grad, [3.0])


def test_backward_consumes_the_graph_and_a_second_call_raises():
    x = Tensor(np.array([1.0]), requires_grad=True)
    h = x * 3.0
    loss = h.sum()
    loss.backward()
    assert loss._parents == () and h._parents == ()
    with pytest.raises(RuntimeError, match="already consumed"):
        loss.backward()
    assert np.array_equal(x.grad, [3.0])
    assert x._backward is None and x.requires_grad


def test_backward_on_a_leaf_loss_leaves_it_a_leaf():
    x = Tensor(np.array([2.0]), requires_grad=True)
    x.backward()
    x.backward()
    assert x._backward is None and np.array_equal(x.grad, [2.0])


def test_gradient_handed_to_two_parents_is_not_written_in_place():
    # s + a gives one buffer to both s and a; s then hands its gradient to a
    # and b, so adding a's second contribution in place would leak into b
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([1.0]), requires_grad=True)
    a = x * 1.0
    s = a + y * 1.0
    (s + a).sum().backward()
    assert np.array_equal(x.grad, [2.0])
    assert np.array_equal(y.grad, [1.0])


def test_only_leaves_keep_gradients_after_backward(rng):
    p = Parameter("w", rng.standard_normal((3, 2)))
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    h = matmul(x, p)
    out = (tanh(h) + h).sum()
    out.backward()
    assert h.grad is None and out.grad is None
    assert np.abs(p.grad).max() > 0.0 and np.abs(x.grad).max() > 0.0


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        assert not grad_enabled()
        y = (x * 2.0).sum()
    assert y._backward is None and not y.requires_grad
    assert grad_enabled()


def test_tensor_keeps_float32_and_widens_everything_else():
    assert Tensor(np.ones(2, np.float32)).dtype == np.float32
    for value in (np.ones(2, np.float16), np.arange(2), np.array([True]), 1.5, [1, 2]):
        assert Tensor(value).dtype == np.float64


def test_cast_to_the_same_dtype_is_the_tensor_itself():
    x = Tensor(np.ones(3), requires_grad=True)
    assert cast(x, np.float64) is x
    y = cast(x, np.float32)
    assert cast(y, np.float32) is y
    assert y.dtype == np.float32 and y.op == "cast"


def test_cast_backward_returns_the_parents_dtype(rng):
    x = Parameter("w", rng.standard_normal((3, 4)))
    b = rng.standard_normal((4, 2)).astype(np.float32)
    h = matmul(cast(x, np.float32), Tensor(b))
    assert h.dtype == np.float32
    loss = cast(tanh(h), np.float64).sum()
    loss.backward()
    assert loss.dtype == np.float64 and x.grad.dtype == np.float64
    want = Parameter("w", x.data)
    tanh(matmul(want, Tensor(b))).sum().backward()
    assert np.abs(x.grad - want.grad).max() <= 1e-6 * np.abs(want.grad).max()


def test_constant_inputs_get_no_gradient():
    x = Tensor(np.ones(3))
    y = Tensor(np.ones(3), requires_grad=True)
    (x * y).sum().backward()
    assert x.grad is None
    assert np.allclose(y.grad, np.ones(3))


def test_a_chain_keeps_only_the_results_it_still_holds():
    # an add's backward reads no operand, so the graph keeps none of the
    # chain's 1 MB results: only the last two are ever alive at once
    x = Tensor(np.zeros(125_000), requires_grad=True)
    tracemalloc.start()
    try:
        y = x
        for _ in range(20):
            y = y + 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"chain peak {peak / 1e6:.1f} MB"
    y.sum().backward()
    assert np.array_equal(x.grad, np.ones(125_000))


def test_deep_chain_exceeds_recursion_limit():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 1.0
    y.sum().backward()
    assert np.allclose(x.grad, [1.0])


def test_parameter_bag_register_and_state(rng):
    bag = ParameterBag()
    p = bag.register("layer.w", uniform_init(rng, 4, (4, 2)))
    # a parameter is a leaf tensor that only adds its name
    assert isinstance(p, Tensor) and Parameter.__slots__ == ("name",)
    assert p.requires_grad and p._backward is None and p.name == "layer.w"
    assert p.grad is not None and not p.grad.any()
    with pytest.raises(ValueError, match="layer.w"):
        bag.register("layer.w", np.zeros((4, 2)))

    state = bag.state()
    bag2 = ParameterBag()
    bag2.register("layer.w", np.ones((4, 2)))
    bag2.load_state(state)
    assert np.array_equal(bag2["layer.w"].data, p.data)
    assert "layer.w" in bag2 and bag2.names() == ["layer.w"]
    with pytest.raises(ValueError, match="shape"):
        bag2.load_state({"layer.w": np.zeros((1, 1))})
    bag3 = ParameterBag()
    bag3.register("layer.w", np.ones((4, 2)))
    with pytest.raises(KeyError):
        bag3.load_state({"other": np.ones((4, 2))})
    with pytest.raises(ValueError, match="stale.w"):
        bag3.load_state({"layer.w": np.zeros((4, 2)), "stale.w": np.zeros((3,))})
    assert np.array_equal(bag3["layer.w"].data, np.ones((4, 2)))   # nothing loaded


def test_uniform_init_bounds(rng):
    vals = uniform_init(rng, 100, (2000,))
    bound = 1.0 / np.sqrt(100)
    assert vals.min() >= -bound and vals.max() <= bound
    assert vals.std() > 0.3 * bound  # actually spread out, not collapsed
