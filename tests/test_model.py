"""The model's forward against the joined-embedding composition, its float32
precision policy in training and inference, and its memory."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from crisp import backtest
from crisp.allocation import (DROPOUT_RATE, TEMPERATURE, WEIGHT_CAP, WEIGHT_FLOOR,
                               project_constraints_tensor)
from crisp.autodiff import (Tensor, concat, dropout, leaky_relu, matmul, no_grad, precision,
                            softmax)
from crisp.data import make_windows
from crisp.graphattn import LEAKY_SLOPE
from crisp.model import ENCODER_DTYPE, CrispModel, ModelConfig
from crisp.objectives import loss_from_batch
from crisp.training import AdamState, TrainConfig, adam_step, clip_gradients

from test_nn import composed_lstm

VARIANTS = [{}, {"static_graph": True}, {"gat_heads": 1}, {"use_alloc_lstm": False},
            {"n_features": 27}]
VARIANT_IDS = ["default", "static_graph", "single_head", "no_alloc_lstm", "no_crisis"]


def joined_forward(model, features, prior_adjacency, rng, training,
                   static_adjacency=None):
    """``model.forward`` composed the direct way from the model's parameters.

    Every asset's step embedding is built as [temporal || spatial], with the
    spatial half copied across time; the attention output and step
    projections run one after the other; graph attention loops over heads,
    slicing each head's W_k and a_k out of the joined weights;
    the residual pads the refinement with zeros to the joined width; and
    each LSTM adds ``x @ wx + b`` before its per-step recurrence.
    """
    enc, head = model.temporal, model.head
    b, n, steps, feats = features.shape
    rows = b * n
    flat = Tensor(features.reshape(rows, steps, feats))
    h_bi = concat([composed_lstm(enc.fwd, flat),
                   composed_lstm(enc.bwd, flat, reverse=True)], axis=2)

    def split_heads(w):
        return (matmul(h_bi, w).reshape(rows, steps, enc.n_heads, enc.head_dim)
                .transpose((0, 2, 1, 3)))

    q, k, v = split_heads(enc.wq), split_heads(enc.wk), split_heads(enc.wv)
    scores = matmul(q, k.swap_last_two()) * (1.0 / math.sqrt(enc.head_dim))
    mixed = matmul(softmax(scores, axis=-1), v).transpose((0, 2, 1, 3))
    h_attn = matmul(mixed.reshape(rows, steps, 256), enc.w_out)
    h_step = matmul(h_attn, enc.w_step).reshape(b, n, steps, 128)
    h_spat = model.spatial(Tensor(features.mean(axis=2)), Tensor(prior_adjacency))

    temp_seq = h_step.transpose((0, 2, 1, 3))
    spat_seq = h_spat.reshape(b, 1, n, 128).broadcast_to((b, steps, n, 128))
    z_init = concat([temp_seq, spat_seq], axis=3)                  # (B, T, N, 256)
    alphas = None
    if model.config.static_graph:
        adj = Tensor(static_adjacency.reshape(b, 1, n, n))
        refined = matmul(adj, matmul(z_init, model.w_static)).relu()
    else:
        gat = model.gat
        hd = gat.head_dim
        refined_heads, alpha_heads = [], []
        for k in range(gat.n_heads):
            wz = matmul(z_init, gat.w[:, k * hd:(k + 1) * hd])
            a = gat.a[k]
            src = (wz * a[:hd].reshape(1, 1, 1, hd)).sum(axis=-1)
            dst = (wz * a[hd:].reshape(1, 1, 1, hd)).sum(axis=-1)
            e = src.reshape(b, steps, n, 1) + dst.reshape(b, steps, 1, n)
            alpha = softmax(leaky_relu(e, LEAKY_SLOPE), axis=-1)
            refined_heads.append(matmul(alpha, wz))
            alpha_heads.append(alpha.data[:, steps - 1])
        refined = concat(refined_heads, axis=3)
        alphas = np.stack(alpha_heads, axis=1)
    zeros = Tensor(np.zeros((b, steps, n, 128)))
    z_final = z_init + 0.5 * concat([refined, zeros], axis=3)

    per_asset = z_final.transpose((0, 2, 1, 3)).reshape(rows, steps, 256)
    if head.use_lstm:
        final = composed_lstm(head.lstm, per_asset)[:, steps - 1, :]
    else:
        final = head.pool_proj(per_asset.mean(axis=1))
    h = head.mlp_hidden(final.reshape(b, n, head.hidden)).relu()
    h = dropout(h, DROPOUT_RATE, rng, training)
    raw = head.mlp_out(h).reshape(b, n)
    return project_constraints_tensor(softmax(raw, axis=-1, temperature=TEMPERATURE)), alphas


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_forward_matches_joined_composition(prior, variant):
    model = CrispModel(ModelConfig(init_seed=3, **variant))
    gen = np.random.default_rng(5)
    b, n, steps = 3, model.config.n_assets, 6
    x = gen.standard_normal((b, n, steps, model.config.n_features))
    static = None
    if model.config.static_graph:
        adj = np.abs(gen.standard_normal((b, n, n)))
        static = adj / adj.sum(axis=-1, keepdims=True)
    prev = np.full((b, n), 1.0 / n)
    targets = 0.02 * gen.standard_normal((b, n, 5))
    runs = []
    for forward in (model.forward, lambda *a, **kw: joined_forward(model, *a, **kw)):
        model.zero_grads()
        weights, alphas = forward(x, prior.normalized, np.random.default_rng(11),
                                  training=True, static_adjacency=static)
        loss_from_batch(weights, prev, targets).backward()
        runs.append((weights.data, alphas,
                     {p.name: p.grad.copy() for p in model.parameters()}))
    (got_w, got_a, got_g), (want_w, want_a, want_g) = runs
    assert np.abs(got_w - want_w).max() <= 1e-12
    if want_a is None:
        assert got_a is None
    else:
        assert got_a.shape == want_a.shape
        assert np.abs(got_a - want_a).max() <= 1e-12
    assert got_g.keys() == want_g.keys()
    for name, want in want_g.items():
        rel = np.abs(got_g[name] - want).max() / np.abs(want).max()
        assert rel <= 1e-10, (name, rel)


def _step_peak_bytes(prior, dtype) -> int:
    # one B=16 step of the default model as train() takes it; tracemalloc's
    # peak depends only on the array shapes, so it is the same every run
    model = CrispModel(ModelConfig())
    adam = AdamState.for_model(model)
    gen = np.random.default_rng(0)
    b, n = 16, model.config.n_assets
    x = gen.standard_normal((b, n, model.config.window, model.config.n_features))
    targets = 0.02 * gen.standard_normal((b, n, 5))
    prev = np.full((b, n), 1.0 / n)
    params = model.parameters()
    tracemalloc.start()
    try:
        model.zero_grads()
        with precision(dtype):
            weights, _ = model.forward(x, prior.normalized, gen, training=True)
            loss_from_batch(weights, prev, targets).backward()
        clip_gradients(params, 5.0)
        adam_step(params, adam, 1e-3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_peak_memory(prior):
    peak = _step_peak_bytes(prior, np.float64)
    assert peak < 250e6, f"train step peak {peak / 1e6:.1f} MB"


def test_float32_training_step_peak_memory(prior):
    peak = _step_peak_bytes(prior, np.float32)
    assert peak < 165e6, f"float32 train step peak {peak / 1e6:.1f} MB"


def test_allocate_peak_memory(prior):
    # tracemalloc's peak depends only on the array shapes: 1.93 MB here, and
    # 3.53 MB for the same forward at the float64 policy
    model = CrispModel(ModelConfig())
    x = np.random.default_rng(0).standard_normal(
        (model.config.n_assets, model.config.window, model.config.n_features))
    tracemalloc.start()
    try:
        model.allocate(x, prior.normalized)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6, f"allocate peak {peak / 1e6:.2f} MB"


def _graph(root: Tensor) -> list[Tensor]:
    """Every tensor the graph under ``root`` reaches, constants included."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _b16_step(model, prior, dtype):
    """A B=16 training step's loss under the ``dtype`` policy, backward run."""
    gen = np.random.default_rng(7)
    b, n = 16, model.config.n_assets
    x = gen.standard_normal((b, n, model.config.window, model.config.n_features))
    static = None
    if model.config.static_graph:
        adj = np.abs(gen.standard_normal((b, n, n)))
        static = adj / adj.sum(axis=-1, keepdims=True)
    targets = 0.02 * gen.standard_normal((b, n, 5))
    model.zero_grads()
    with precision(dtype):
        weights, _ = model.forward(x, prior.normalized, np.random.default_rng(11),
                                   training=True, static_adjacency=static)
        loss = loss_from_batch(weights, np.full((b, n), 1.0 / n), targets)
        loss.backward()
    return loss


def test_default_policy_builds_no_cast_node(prior):
    loss = _b16_step(CrispModel(ModelConfig()), prior, np.float64)
    assert all(node.op != "cast" for node in _graph(loss))


@pytest.mark.parametrize("variant", [v for _, v in backtest.VARIANTS.values()],
                         ids=list(backtest.VARIANTS))
def test_float32_step_gradients_match_float64(prior, variant):
    model = CrispModel(ModelConfig(init_seed=3, **variant))
    grads = {}
    for dtype in (np.float64, np.float32):
        loss = _b16_step(model, prior, dtype)
        assert loss.dtype == np.float64
        grads[dtype] = {p.name: p.grad.copy() for p in model.parameters()}
    for name, want in grads[np.float64].items():
        got = grads[np.float32][name]
        assert got.dtype == np.float64
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-4, (name, rel)


def test_float32_policy_keeps_the_whole_encoder_in_float32(prior):
    # walk back from the encoder's exit cast to its entry casts: a float64
    # node or constant anywhere in between is a silent upcast
    model = CrispModel(ModelConfig())
    loss = _b16_step(model, prior, np.float32)
    casts = [node for node in _graph(loss) if node.op == "cast"]
    (exit_cast,) = [c for c in casts if c.dtype == np.float64]
    entries, stack, seen = [], list(exit_cast._parents), set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert node.dtype == np.float32, (node, node.dtype)
        if node.op == "cast":
            entries.append(node)
        else:
            stack.extend(node._parents)
    # wx, wh and b of both LSTM directions, Q, K, V and the folded projection
    assert len(entries) == 10 == len(casts) - 1
    assert all(c._parents[0].dtype == np.float64 for c in entries)
    assert all(p.dtype == np.float64 and p.grad.dtype == np.float64
               for p in model.parameters())


# -- inference: allocate at the training policy against the float64 forward --

# largest gaps measured in the tests below, weights and alphas: 5.3e-11 and
# 1.6e-10 on normalized inputs, 1.1e-10 and 7.7e-10 for the trained
# checkpoint, 5.2e-10 and 1.0e-9 on inputs 100 times larger
_INFERENCE_TOL = 1e-8


def _window_inputs(model, seed=5, scale=1.0):
    """One window of normalized-scale features, and a static adjacency if the
    variant needs one."""
    gen = np.random.default_rng(seed)
    n, cfg = model.config.n_assets, model.config
    x = scale * gen.standard_normal((n, cfg.window, cfg.n_features))
    static = None
    if cfg.static_graph:
        adj = np.abs(gen.standard_normal((n, n)))
        static = adj / adj.sum(axis=-1, keepdims=True)
    return x, static


def _assert_allocate_matches_float64(model, x, prior_adjacency, static=None):
    """``allocate`` within ``_INFERENCE_TOL`` of the same eval forward at the
    default float64 policy, in the weights and the last-step alphas."""
    got_w, got_a = model.allocate(x, prior_adjacency, static)
    with no_grad(), precision(np.float64):
        want_w, want_a = model.forward(
            x[None], prior_adjacency, np.random.default_rng(0), training=False,
            static_adjacency=None if static is None else static[None])
    assert np.abs(got_w - want_w.data[0]).max() <= _INFERENCE_TOL
    if want_a is None:
        assert got_a is None
    else:
        assert np.abs(got_a - want_a[0]).max() <= _INFERENCE_TOL
    return got_w, got_a


@pytest.mark.parametrize("variant", [v for _, v in backtest.VARIANTS.values()],
                         ids=list(backtest.VARIANTS))
def test_allocate_matches_the_float64_forward(prior, variant):
    model = CrispModel(ModelConfig(init_seed=3, **variant))
    x, static = _window_inputs(model)
    _assert_allocate_matches_float64(model, x, prior.normalized, static)


def test_trained_checkpoint_allocates_as_the_float64_forward(book, small_universe, prior):
    windows = make_windows(small_universe, 20, 5, 5)[:12]
    cfg = TrainConfig(learning_rate=5e-4, lr_min=5e-4, batch_size=6, max_epochs=2,
                      patience=5, val_fraction=0.2, seed=0)
    ck = backtest.train_on_universe(small_universe, book, prior, windows,
                                    ModelConfig(), cfg).checkpoint
    model = CrispModel(ck.model_config)
    model.load_state(ck.best_params)
    normalizer = ck.feature_normalizer()
    for w in windows:
        _assert_allocate_matches_float64(model, normalizer.transform(w.features),
                                         prior.normalized)


def test_allocate_runs_the_encoder_at_the_training_dtype(prior, monkeypatch):
    model = CrispModel(ModelConfig())
    seen, bilstm = [], model.temporal.bilstm
    monkeypatch.setattr(model.temporal, "bilstm", lambda x: seen.append(x.dtype) or bilstm(x))
    x, _ = _window_inputs(model)
    weights, _ = model.allocate(x, prior.normalized)
    assert seen == [ENCODER_DTYPE] and ENCODER_DTYPE == np.float32
    assert weights.dtype == np.float64
    assert all(p.dtype == np.float64 for p in model.parameters())


def test_saturated_float32_gates_warn_nothing(prior):
    # inputs 100 times the normalized scale push the float32 LSTM gates past
    # the sigmoid's overflow point; the gates saturate at their exact limits
    model = CrispModel(ModelConfig(init_seed=3))
    x, _ = _window_inputs(model, scale=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights, alphas = _assert_allocate_matches_float64(model, x, prior.normalized)
    assert np.isfinite(weights).all() and np.isfinite(alphas).all()
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert weights.min() >= WEIGHT_FLOOR - 1e-9 and weights.max() <= WEIGHT_CAP + 1e-9
