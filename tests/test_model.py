"""The model's forward against the joined-embedding composition, its float32
temporal encoder in training and inference, its memory, and its variants."""

import math
import sys
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest

from crisp import backtest
from crisp.allocation import (DROPOUT_RATE, TEMPERATURE, WEIGHT_CAP, WEIGHT_FLOOR,
                               project_constraints_tensor)
from crisp.autodiff import _CONSTANT, Tensor, concat, dropout, matmul, no_grad, softmax
from crisp.data import make_windows
from crisp.graphattn import LEAKY_SLOPE
from crisp.model import VARIANTS, CrispModel, ModelConfig
from crisp.objectives import loss_from_batch
from crisp.temporal import ENCODER_DTYPE
from crisp.training import AdamState, TrainConfig, adam_step, clip_gradients

from _gradcheck import set_encoder_dtype
from _reference import broadcast_to, leaky_relu
from test_nn import composed_lstm

# test ids for VARIANTS, in its order
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

    def split_heads(w):         # 4 heads of 64
        return matmul(h_bi, w).reshape(rows, steps, 4, 64).transpose((0, 2, 1, 3))

    q, k, v = split_heads(enc.wq), split_heads(enc.wk), split_heads(enc.wv)
    scores = matmul(q, k.swap_last_two()) * (1.0 / math.sqrt(64))
    mixed = matmul(softmax(scores, axis=-1), v).transpose((0, 2, 1, 3))
    h_attn = matmul(mixed.reshape(rows, steps, 256), enc.w_out)
    h_step = matmul(h_attn, enc.w_step).reshape(b, n, steps, 128)
    h_spat = model.spatial(Tensor(features.mean(axis=2)), Tensor(prior_adjacency))

    temp_seq = h_step.transpose((0, 2, 1, 3))
    spat_seq = broadcast_to(h_spat.reshape(b, 1, n, 128), (b, steps, n, 128))
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
    model = set_encoder_dtype(CrispModel(ModelConfig(init_seed=3, variant=variant)))
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
    # one B=16 step of the default model, its encoder at ``dtype``, as train()
    # takes it; tracemalloc's peak depends only on the array shapes, so it is
    # the same every run
    model = set_encoder_dtype(CrispModel(ModelConfig()), dtype)
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
        weights, _ = model.forward(x, prior.normalized, gen, training=True)
        loss_from_batch(weights, prev, targets).backward()
        clip_gradients(params, 5.0)
        adam_step(params, adam, 1e-3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a step peaks at 133.3 MB (float64 reference encoder) and 86.8 MB (float32
# encoder) in backward: the arrays the forward graph's closures captured
# (118.9 and 72.4 MB once the loss is built) plus backward's working
# gradients; each guard sits about 5 % above its peak
def test_training_step_peak_memory(prior):
    peak = _step_peak_bytes(prior, np.float64)
    print(f"B=16 train step peak, float64 reference encoder: {peak / 1e6:.1f} MB")
    assert peak < 140e6, f"train step peak {peak / 1e6:.1f} MB"


def test_float32_training_step_peak_memory(prior):
    peak = _step_peak_bytes(prior, np.float32)
    print(f"B=16 train step peak, float32 encoder: {peak / 1e6:.1f} MB")
    assert peak < 91e6, f"float32 train step peak {peak / 1e6:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux",
                    reason="glibc's malloc thresholds and Linux's fault count")
def test_training_steps_fault_in_no_new_pages(prior):
    # backward frees the graph as it goes, so each step ends with the heap
    # top free; at glibc's adaptive thresholds it went back to the OS and
    # the next step faulted about 6,000 pages back in
    import resource
    model = CrispModel(ModelConfig())
    adam = AdamState.for_model(model)
    gen = np.random.default_rng(0)
    b, n = 16, model.config.n_assets
    x = gen.standard_normal((b, n, model.config.window, model.config.n_features))
    targets = 0.02 * gen.standard_normal((b, n, 5))
    prev = np.full((b, n), 1.0 / n)
    faults = []
    for _ in range(3):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.zero_grads()
        weights, _ = model.forward(x, prior.normalized, gen, training=True)
        loss_from_batch(weights, prev, targets).backward()
        adam_step(model.parameters(), adam, 1e-3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    assert faults[-1] < 1000, faults


def test_allocate_peak_memory(prior):
    # tracemalloc's peak depends only on the array shapes: 1.93 MB here, and
    # 3.53 MB for the same forward with a float64 reference encoder
    model = CrispModel(ModelConfig())
    x = np.random.default_rng(0).standard_normal(
        (model.config.n_assets, model.config.window, model.config.n_features))
    tracemalloc.start()
    try:
        model.allocate(x, prior.normalized)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"allocate peak, float32 encoder: {peak / 1e6:.2f} MB")
    assert peak < 2.2e6, f"allocate peak {peak / 1e6:.2f} MB"


def _graph(root) -> list:
    """``root`` and every graph entry under it, constants included."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _step_loss(model, prior, dtype, b=16):
    """A training step's loss at batch ``b``, the encoder at ``dtype``, graph
    unconsumed.

    Backward consumes the graph, so a test walks it before calling backward.
    """
    gen = np.random.default_rng(7)
    n = model.config.n_assets
    x = gen.standard_normal((b, n, model.config.window, model.config.n_features))
    static = None
    if model.config.static_graph:
        adj = np.abs(gen.standard_normal((b, n, n)))
        static = adj / adj.sum(axis=-1, keepdims=True)
    targets = 0.02 * gen.standard_normal((b, n, 5))
    model.zero_grads()
    weights, _ = set_encoder_dtype(model, dtype).forward(
        x, prior.normalized, np.random.default_rng(11), training=True,
        static_adjacency=static)
    return loss_from_batch(weights, np.full((b, n), 1.0 / n), targets)


def test_float64_reference_encoder_builds_no_cast_node(prior):
    loss = _step_loss(CrispModel(ModelConfig()), prior, np.float64)
    nodes = _graph(loss)
    assert len(nodes) >= 100
    assert all(node.op != "cast" for node in nodes)
    loss.backward()


@pytest.mark.parametrize("variant", list(VARIANTS), ids=VARIANT_IDS)
def test_graph_keeps_only_what_its_closures_capture(prior, variant):
    # a B=4 step: no backward closure captures a Tensor, and every graph
    # entry is an op's node, which holds no array, a parameter, or the one
    # entry every constant operand shares
    model = CrispModel(ModelConfig(variant=variant))
    loss = _step_loss(model, prior, ENCODER_DTYPE, b=4)
    entries = _graph(loss._node)
    assert len(entries) >= 50
    params = {id(p) for p in model.parameters()}
    for entry in entries:
        if entry._backward is None:
            assert id(entry) in params or entry is _CONSTANT, entry
            continue
        assert not isinstance(entry, Tensor)
        for cell in entry._backward.__closure__ or ():
            held = cell.cell_contents
            items = held if isinstance(held, (tuple, list)) else (held,)
            assert not any(isinstance(item, Tensor) for item in items), (entry.op, held)
    loss.backward()
    assert all(np.isfinite(p.grad).all() for p in model.parameters())


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_float32_step_gradients_match_float64(prior, variant):
    model = CrispModel(ModelConfig(init_seed=3, variant=variant))
    grads = {}
    for dtype in (np.float64, np.float32):
        loss = _step_loss(model, prior, dtype)
        loss.backward()
        assert loss.dtype == np.float64
        grads[dtype] = {p.name: p.grad.copy() for p in model.parameters()}
    for name, want in grads[np.float64].items():
        got = grads[np.float32][name]
        assert got.dtype == np.float64
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-4, (name, rel)


def test_float32_policy_keeps_the_whole_encoder_in_float32(prior, monkeypatch):
    # record every op a step's forward builds: the encoder's casts are its
    # only dtype changes, and an op that mixes float32 and float64 operands,
    # or a float64 constant on the float32 path, is a silent upcast
    made = []
    build = Tensor._from_op.__func__

    def recording(cls, data, parents, op, backward):
        out = build(cls, data, parents, op, backward)
        made.append((op, out.dtype, tuple(p.dtype for p in parents)))
        return out

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    model = CrispModel(ModelConfig())
    loss = _step_loss(model, prior, np.float32)
    assert len(made) >= 100
    casts = [(out, srcs[0]) for op, out, srcs in made if op == "cast"]
    # the input, then wx, wh and b of both LSTM directions, Q, K, V and the
    # folded projection go down to float32; h_step alone comes back up
    assert casts.count((np.float32, np.float64)) == 11
    assert casts.count((np.float64, np.float32)) == 1 == len(casts) - 11
    for op, out, srcs in made:
        if op != "cast":
            assert all(src == out for src in srcs), (op, out, srcs)
    loss.backward()
    assert all(p.dtype == np.float64 and p.grad.dtype == np.float64
               for p in model.parameters())


# -- inference: allocate at the training dtype against the float64 forward --

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
    """``allocate`` within ``_INFERENCE_TOL`` of the same eval forward with a
    float64 reference encoder, in the weights and the last-step alphas."""
    got_w, got_a = model.allocate(x, prior_adjacency, static)
    with no_grad():
        want_w, want_a = set_encoder_dtype(model).forward(
            x[None], prior_adjacency, np.random.default_rng(0), training=False,
            static_adjacency=None if static is None else static[None])
    set_encoder_dtype(model, ENCODER_DTYPE)
    assert np.abs(got_w - want_w.data[0]).max() <= _INFERENCE_TOL
    if want_a is None:
        assert got_a is None
    else:
        assert np.abs(got_a - want_a[0]).max() <= _INFERENCE_TOL
    return got_w, got_a


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_allocate_matches_the_float64_forward(prior, variant):
    model = CrispModel(ModelConfig(init_seed=3, variant=variant))
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


def test_a_bare_forward_runs_the_encoder_at_the_training_dtype(prior, monkeypatch):
    # the encoder holds its dtype, so a step taken outside train(), as the
    # bench's timed step is, computes what train() and allocate compute
    model = CrispModel(ModelConfig())
    seen, bilstm = [], model.temporal.bilstm
    monkeypatch.setattr(model.temporal, "bilstm", lambda x: seen.append(x.dtype) or bilstm(x))
    x, _ = _window_inputs(model)
    weights, _ = model.forward(x[None], prior.normalized, np.random.default_rng(0),
                               training=True)
    model.allocate(x, prior.normalized)
    assert seen == [ENCODER_DTYPE] * 2
    assert weights.dtype == np.float64


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


def test_variants_build_pairwise_different_parameter_sets():
    # the guard against two ablation rows training the same model
    layouts = {name: {p.name: p.data.shape for p in
                      CrispModel(ModelConfig(variant=name)).parameters()}
               for name in VARIANTS}
    for first, second in combinations(VARIANTS, 2):
        assert layouts[first] != layouts[second], (first, second)


def test_model_config_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match=r"unknown variant 'static_graph' \(known: full, "):
        ModelConfig(variant="static_graph")
