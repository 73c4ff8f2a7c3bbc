"""Layer primitives checked against independent numpy references."""

import numpy as np
import pytest

from crisp.autodiff import ParameterBag, Tensor, concat, matmul, no_grad
from crisp.nn import LSTM, MLP, Linear, _recurrence

from _gradcheck import max_rel_error


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_lstm(x, wx, wh, b, reverse=False):
    """Plain numpy LSTM over (B, T, in); gate order i, f, g, o."""
    batch, steps, _ = x.shape
    hidden = wh.shape[0]
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    out = np.zeros((batch, steps, hidden))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        z = x[:, t, :] @ wx + h @ wh + b
        i = _sigmoid(z[:, :hidden])
        f = _sigmoid(z[:, hidden:2 * hidden])
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        o = _sigmoid(z[:, 3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t, :] = h
    return out


def composed_lstm(lstm, x, reverse=False):
    """``lstm.run`` as a per-step composition of autodiff ops: gate slices,
    sigmoid/tanh and elementwise products, one graph node each."""
    batch, steps, _ = x.shape
    hd = lstm.hidden_dim
    xz = matmul(x, lstm.wx.tensor) + lstm.b.tensor
    h = Tensor(np.zeros((batch, hd)))
    c = Tensor(np.zeros((batch, hd)))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    outputs = [None] * steps
    for t in order:
        z = xz[:, t, :] + matmul(h, lstm.wh.tensor)
        i = z[:, 0 * hd:1 * hd].sigmoid()
        f = z[:, 1 * hd:2 * hd].sigmoid()
        g = z[:, 2 * hd:3 * hd].tanh()
        o = z[:, 3 * hd:4 * hd].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        outputs[t] = h.reshape(batch, 1, hd)
    return concat(outputs, axis=1)


def test_linear_matches_numpy(rng):
    bag = ParameterBag()
    layer = Linear(bag, "lin", 4, 3, rng)
    x = rng.standard_normal((5, 4))
    out = layer(Tensor(x))
    expected = x @ bag["lin.w"].data + bag["lin.b"].data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_linear_no_bias(rng):
    bag = ParameterBag()
    layer = Linear(bag, "lin", 4, 3, rng, bias=False)
    assert "lin.b" not in bag
    x = rng.standard_normal((2, 4))
    assert np.allclose(layer(Tensor(x)).data, x @ bag["lin.w"].data, atol=1e-12)


def test_lstm_forward_matches_reference(rng):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 3, 4, rng)
    x = rng.standard_normal((2, 6, 3))
    got = lstm.run(Tensor(x)).data
    want = reference_lstm(x, bag["cell.wx"].data, bag["cell.wh"].data,
                          bag["cell.b"].data)
    assert np.allclose(got, want, atol=1e-12)


def test_lstm_reverse_realigns_timesteps(rng):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 3, 4, rng)
    x = rng.standard_normal((2, 5, 3))
    got = lstm.run(Tensor(x), reverse=True).data
    want = reference_lstm(x, bag["cell.wx"].data, bag["cell.wh"].data,
                          bag["cell.b"].data, reverse=True)
    assert np.allclose(got, want, atol=1e-12)
    # the last-processed step of the reverse pass sits at index 0
    first_only = reference_lstm(x[:, :1, :], bag["cell.wx"].data,
                                bag["cell.wh"].data, bag["cell.b"].data)
    assert not np.allclose(got[:, 0, :], first_only[:, 0, :])


def test_lstm_gradients(rng):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 2, 3, rng)

    def build(xs):
        return (lstm.run(xs[0]) ** 2.0).sum()

    assert max_rel_error(build, [(2, 4, 2)], rng) < 1e-6


def test_lstm_reverse_gradients(rng):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 2, 3, rng)

    def build(xs):
        return (lstm.run(xs[0], reverse=True) ** 2.0).sum()

    assert max_rel_error(build, [(2, 4, 2)], rng) < 1e-6


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_node_gradcheck(rng, reverse):
    # pre-activations and recurrent weights both as probed inputs; some
    # gradients are ~1e-4, where a 1e-6 step's rounding alone exceeds 1e-6
    def build(xs):
        return (_recurrence(xs[0], xs[1], reverse) ** 2.0).sum()

    assert max_rel_error(build, [(2, 5, 12), (3, 12)], rng, eps=1e-5) < 1e-6


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_node_matches_composition(rng, reverse):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 3, 5, rng)
    x = rng.standard_normal((4, 7, 3))
    upstream = Tensor(rng.standard_normal((4, 7, 5)))
    runs = {}
    for name, fn in (("fused", lstm.run), ("composed", lambda xt, r: composed_lstm(lstm, xt, r))):
        bag.zero_grads()
        xt = Tensor(x.copy(), requires_grad=True)
        out = fn(xt, reverse)
        (out * upstream).sum().backward()
        runs[name] = (out, xt.grad.copy(),
                      {p: bag[f"cell.{p}"].grad.copy() for p in ("wx", "wh", "b")})
    fused, composed = runs["fused"], runs["composed"]
    assert fused[0].op == "lstm"
    assert np.array_equal(fused[0].data, composed[0].data)
    assert np.allclose(fused[1], composed[1], rtol=0.0, atol=1e-12)
    for p in ("wx", "wh", "b"):
        assert np.allclose(fused[2][p], composed[2][p], rtol=0.0, atol=1e-12), p


def test_lstm_keeps_no_caches_without_grad(rng):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 3, 4, rng)
    x = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    with no_grad():
        out = lstm.run(x)
    assert out._parents == () and out._backward is None and not out.requires_grad
    graphed = lstm.run(x)
    assert np.array_equal(out.data, graphed.data)
    assert graphed.op == "lstm" and graphed._parents[1] is lstm.wh.tensor


def test_lstm_parameter_gradients_flow(rng):
    bag = ParameterBag()
    lstm = LSTM(bag, "cell", 2, 3, rng)
    bag.zero_grads()
    loss = (lstm.run(Tensor(rng.standard_normal((2, 4, 2)))) ** 2.0).sum()
    loss.backward()
    for name in ("cell.wx", "cell.wh", "cell.b"):
        assert np.abs(bag[name].tensor.grad).max() > 0.0


def test_mlp_structure_and_relu(rng):
    bag = ParameterBag()
    mlp = MLP(bag, "head", [4, 8, 2], rng)
    x = rng.standard_normal((3, 4))
    h = np.maximum(x @ bag["head.l0.w"].data + bag["head.l0.b"].data, 0.0)
    want = h @ bag["head.l1.w"].data + bag["head.l1.b"].data
    assert np.allclose(mlp(Tensor(x)).data, want, atol=1e-12)
    with pytest.raises(ValueError, match="at least"):
        MLP(ParameterBag(), "bad", [4], rng)
