"""Temporal encoder: BiLSTM composition, attention algebra, per-step output."""

import numpy as np

from crisp.autodiff import ParameterBag, Tensor
from crisp.temporal import TemporalEncoder

from _gradcheck import max_rel_error, set_encoder_dtype
from test_nn import reference_lstm


def make_encoder(rng, n_features=6):
    """A float64 reference encoder, as the oracles and gradcheck need."""
    bag = ParameterBag()
    return bag, set_encoder_dtype(TemporalEncoder(bag, n_features, rng))


def test_output_shapes(rng):
    bag, enc = make_encoder(rng)
    x = Tensor(0.1 * rng.standard_normal((2, 3, 5, 6)))
    h_step = enc(x)
    assert h_step.shape == (2, 3, 5, 128)


def test_bilstm_matches_directional_oracles(rng):
    bag, enc = make_encoder(rng)
    x = 0.2 * rng.standard_normal((3, 4, 6))
    out = enc.bilstm(Tensor(x)).data
    fwd = reference_lstm(x, enc.fwd.wx.data, enc.fwd.wh.data, enc.fwd.b.data,
                         reverse=False)
    bwd = reference_lstm(x, enc.bwd.wx.data, enc.bwd.wh.data, enc.bwd.b.data,
                         reverse=True)
    assert np.allclose(out[..., :128], fwd, atol=1e-12)
    assert np.allclose(out[..., 128:], bwd, atol=1e-12)


def test_attention_weight_rows_sum_to_one(rng):
    bag, enc = make_encoder(rng)
    h = Tensor(rng.standard_normal((4, 7, 256)))
    out, weights = enc.self_attention(h, return_weights=True)
    assert weights.shape == (4, 4, 7, 7)
    assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)
    assert (weights.data >= 0.0).all()
    assert out.shape == (4, 7, 128)


def test_attention_matches_manual_numpy(rng):
    bag, enc = make_encoder(rng)
    rows, steps = 2, 5
    h = rng.standard_normal((rows, steps, 256))
    out = enc.self_attention(Tensor(h)).data

    wq, wk, wv = enc.wq.data, enc.wk.data, enc.wv.data
    hd = 64
    expected = np.empty((rows, steps, 128))
    for r in range(rows):
        mixed_heads = []
        for head in range(4):
            sl = slice(head * hd, (head + 1) * hd)
            q = (h[r] @ wq)[:, sl]
            k = (h[r] @ wk)[:, sl]
            v = (h[r] @ wv)[:, sl]
            scores = q @ k.T / np.sqrt(hd)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            mixed_heads.append(w @ v)
        # the output projection, then the step projection
        attended = np.concatenate(mixed_heads, axis=-1) @ enc.w_out.data
        expected[r] = attended @ enc.w_step.data
    assert np.allclose(out, expected, atol=1e-10)


def test_assets_are_independent(rng):
    bag, enc = make_encoder(rng)
    x = 0.1 * rng.standard_normal((1, 4, 5, 6))
    h_step = enc(Tensor(x))
    perm = [2, 0, 3, 1]
    h_step_p = enc(Tensor(x[:, perm]))
    assert np.allclose(h_step_p.data, h_step.data[:, perm], atol=1e-12)


def test_batch_rows_are_independent(rng):
    bag, enc = make_encoder(rng)
    x = 0.1 * rng.standard_normal((2, 3, 4, 6))
    h_step = enc(Tensor(x))
    solo = enc(Tensor(x[1:]))
    assert np.allclose(h_step.data[1], solo.data[0], atol=1e-12)


def test_temporal_gradcheck_small(rng):
    bag, enc = make_encoder(rng, n_features=3)

    def build(xs):
        return enc(xs[0]).sum()

    err = max_rel_error(build, [(1, 2, 3, 3)], rng, scale=0.3)
    assert err < 1e-6


def test_parameters_all_receive_gradients(rng):
    bag, enc = make_encoder(rng)
    x = Tensor(0.1 * rng.standard_normal((1, 2, 4, 6)))
    enc(x).sum().backward()
    for name in bag.names():
        grad = bag[name].grad
        assert grad is not None and np.abs(grad).max() > 0.0, name
