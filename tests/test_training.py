"""Optimizer, schedule, checkpoint container, and the training loop."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp.autodiff import Parameter, grad_enabled
from crisp.backtest import attach_features
from crisp.data import make_windows
from crisp.features import feature_columns
from crisp.model import VARIANTS, CrispModel, ModelConfig
from crisp.objectives import loss_from_batch
from crisp.temporal import ENCODER_DTYPE
from crisp.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    clip_gradients,
    cosine_lr,
    load_checkpoint,
    save_checkpoint,
    train,
)


@pytest.fixture(scope="module")
def windows(book, small_universe):
    ws = make_windows(small_universe, 20, 5, 5)[:12]
    defensive = book.defensive_mask(small_universe.tickers)
    attach_features(small_universe, ws, defensive)
    return ws


def quick_config(**kw):
    base = dict(learning_rate=5e-4, lr_min=5e-4, batch_size=6, max_epochs=2,
                patience=10, val_fraction=0.2, clip_norm=5.0, seed=3)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def trained(windows, prior):
    model = CrispModel(ModelConfig(init_seed=1))
    result = train(model, windows, prior.normalized, quick_config())
    return model, result


# -- optimizer and schedule ---------------------------------------------------

def test_cosine_endpoints():
    assert cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3, abs=0)
    assert cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5, abs=1e-20)
    mid = cosine_lr(50, 100, 1e-3, 1e-5)
    assert mid == pytest.approx((1e-3 + 1e-5) / 2, abs=1e-18)


def test_cosine_is_monotone_decreasing():
    values = [cosine_lr(e, 40, 1e-3, 1e-5) for e in range(41)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_adam_matches_scalar_oracle(rng):
    p = Parameter("w", np.array([1.5, -0.5]))
    state = AdamState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)})
    grads = [rng.standard_normal(2) for _ in range(5)]

    theta = np.array([1.5, -0.5])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        p.grad[:] = g
        adam_step([p], state, lr=0.01)

        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        theta = theta - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, theta, atol=1e-15)
    assert state.t == 5


def test_adam_rejects_nonfinite_gradient():
    p = Parameter("w", np.ones(3))
    state = AdamState(m={"w": np.zeros(3)}, v={"w": np.zeros(3)})
    p.grad[:] = [1.0, np.nan, 0.0]
    with pytest.raises(FloatingPointError, match="w"):
        adam_step([p], state, lr=0.1)


def test_clip_gradients_oracle():
    a = Parameter("a", np.zeros(3))
    b = Parameter("b", np.zeros((2, 2)))
    a.grad[:] = [3.0, 0.0, 0.0]
    b.grad[:] = [[0.0, 4.0], [0.0, 0.0]]
    norm, clipped = clip_gradients([a, b], max_norm=2.5)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert clipped
    assert np.allclose(a.grad, [1.5, 0.0, 0.0], atol=1e-15)
    assert np.allclose(b.grad, [[0.0, 2.0], [0.0, 0.0]], atol=1e-15)
    total = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert total == pytest.approx(2.5, abs=1e-12)

    norm2, clipped2 = clip_gradients([a, b], max_norm=10.0)
    assert norm2 == pytest.approx(2.5, abs=1e-12)
    assert not clipped2
    assert np.allclose(a.grad, [1.5, 0.0, 0.0], atol=0)


def test_train_config_validation():
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(patience=0)
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(batch_size=0)
    # a zero learning rate (with lr_min 0) freezes the weights and is allowed
    TrainConfig(learning_rate=0.0, lr_min=0.0)


@pytest.mark.parametrize("overrides, fragment", [
    ({"learning_rate": -1e-3}, "learning_rate"),
    ({"lr_min": -1e-6}, "lr_min"),
    ({"learning_rate": 1e-4, "lr_min": 1e-3}, "lr_min"),
    ({"max_epochs": 0}, "max_epochs"),
    ({"val_fraction": -0.1}, "val_fraction"),
    ({"val_fraction": 0.0}, "val_fraction"),
    ({"val_fraction": 1.0}, "val_fraction"),
    ({"clip_norm": 0.0}, "clip_norm"),
    ({"clip_norm": -5.0}, "clip_norm"),
])
def test_train_config_rejects_out_of_range_values(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        TrainConfig(**overrides)


# -- checkpoint container -----------------------------------------------------

def test_checkpoint_roundtrip_bitwise(trained, tmp_path):
    _, result = trained
    ck = result.checkpoint
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(ck, str(p1))
    loaded = load_checkpoint(str(p1))
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    assert loaded.model_config == ck.model_config
    assert loaded.epoch == ck.epoch
    assert loaded.best_val == ck.best_val
    assert loaded.bad_epochs == ck.bad_epochs
    assert loaded.adam_t == ck.adam_t
    assert loaded.rng_state == ck.rng_state
    for table_name in ("best_params", "last_params", "adam_m", "adam_v", "normalizer"):
        got = getattr(loaded, table_name)
        want = getattr(ck, table_name)
        assert sorted(got) == sorted(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), (table_name, key)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(p))


def test_checkpoint_unsupported_version(tmp_path):
    import struct

    p = tmp_path / "vers.bin"
    p.write_bytes(b"CRSPCKPT" + struct.pack("<I", 99) + struct.pack("<Q", 2) + b"{}")
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(str(p))


def test_checkpoint_truncation_detected(trained, tmp_path):
    _, result = trained
    p = tmp_path / "t.bin"
    save_checkpoint(result.checkpoint, str(p))
    data = p.read_bytes()
    p.write_bytes(data[:len(data) - 100])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(str(p))


def test_checkpoint_config_hash_mismatch_rejected(trained, tmp_path):
    _, result = trained
    p = tmp_path / "h.bin"
    save_checkpoint(result.checkpoint, str(p))
    stored = result.checkpoint.config_hash()
    data = p.read_bytes()
    assert data.count(stored.encode()) == 1
    # same length, so the header size field still holds
    p.write_bytes(data.replace(stored.encode(), b"0" * len(stored)))
    with pytest.raises(ValueError, match="config_hash"):
        load_checkpoint(str(p))


def _edit_header(data, edit):
    """Checkpoint bytes with ``edit`` applied to the header dict, arrays kept."""
    (hlen,) = struct.unpack("<Q", data[12:20])
    header = json.loads(data[20:20 + hlen])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode()
    return data[:12] + struct.pack("<Q", len(raw)) + raw + data[20 + hlen:]


def _switch_config(header):
    del header["config"]["variant"]
    header["config"].update(n_features=31, gat_heads=4, use_alloc_lstm=True,
                            static_graph=False)


@pytest.mark.parametrize("edit,match", [
    # every checkpoint written while the pooled route existed carries this key
    (lambda h: h["config"].update(per_step_graph=True), r"unknown \['per_step_graph'\]"),
    (lambda h: h["config"].pop("variant"), r"missing \['variant'\]"),
    # every checkpoint written while ModelConfig had its unread horizon
    (lambda h: h["config"].update(horizon=5), r"unknown \['horizon'\]"),
    # every checkpoint written before the variant was the model's one switch
    (_switch_config, r"unknown \['gat_heads', 'n_features', 'static_graph', "
                     r"'use_alloc_lstm'\]; missing \['variant'\]"),
], ids=["unknown_key", "missing_key", "horizon_key", "switch_keys"])
def test_checkpoint_config_keys_must_match_model_config(trained, tmp_path, edit, match):
    _, result = trained
    p = tmp_path / "k.bin"
    save_checkpoint(result.checkpoint, str(p))
    p.write_bytes(_edit_header(p.read_bytes(), edit))
    with pytest.raises(ValueError, match=match):
        load_checkpoint(str(p))


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    """A valid checkpoint file's bytes, with a few small arrays per section."""
    def table():
        return {"a": np.arange(3.0), "b": np.ones((2, 2)), "c": np.array(7.0)}

    ck = Checkpoint(model_config=ModelConfig(), best_params=table(), last_params=table(),
                    adam_m=table(), adam_v=table(), adam_t=4, epoch=3, best_val=-0.25,
                    bad_epochs=1, rng_state=np.random.default_rng(0).bit_generator.state,
                    normalizer={"normalizer.mean": np.zeros(31),
                                "normalizer.std": np.ones(31)})
    path = tmp_path_factory.mktemp("ckpt") / "tiny.bin"
    save_checkpoint(ck, str(path))
    return path.read_bytes()


def _rejected(tmp_path_factory, blob, match=None):
    path = tmp_path_factory.mktemp("bad") / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=match) as info:
        load_checkpoint(str(path))
    assert str(path) in str(info.value)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_checkpoint_cut_anywhere_is_rejected(tmp_path_factory, tiny_blob, data):
    cut = data.draw(st.integers(0, len(tiny_blob) - 1), label="cut")
    _rejected(tmp_path_factory, tiny_blob[:cut])


@settings(max_examples=60, deadline=None)
@given(suffix=st.binary(min_size=1, max_size=64))
def test_checkpoint_with_trailing_bytes_is_rejected(tmp_path_factory, tiny_blob, suffix):
    _rejected(tmp_path_factory, tiny_blob + suffix, "trailing bytes")


@pytest.mark.parametrize("edit,match", [
    (lambda h: h["arrays"][0].update(section="bogus"), "section 'bogus'"),
    (lambda h: h.pop("epoch"), r"missing \['epoch'\]"),
    (lambda h: h["arrays"][0].update(shape=[-3]), r"bad shape \[-3\]"),
], ids=["unknown_section", "missing_epoch", "negative_shape"])
def test_checkpoint_header_edits_are_rejected(tmp_path_factory, tiny_blob, edit, match):
    _rejected(tmp_path_factory, _edit_header(tiny_blob, edit), match)


@pytest.mark.parametrize("edit,match", [
    (lambda h: h.update(arrays=5), "header 'arrays' has type int, not list"),
    (lambda h: h["arrays"].insert(0, "best"),
     r"header 'arrays'\[0\] has type str, not dict"),
    (lambda h: h["arrays"][1].update(name=["a"]),
     r"header 'arrays'\[1\] name has type list, not str"),
    (lambda h: h["arrays"][2].update(section=["best"]),
     r"header 'arrays'\[2\] section has type list, not str"),
    (lambda h: h["arrays"][0].update(shape=[True, 3]), r"bad shape \[True, 3\]"),
    (lambda h: h.update(config=list(h["config"])), "header 'config' has type list, not dict"),
    (lambda h: h["config"].update(window=20.0), "config 'window' has type float, not int"),
    (lambda h: h["config"].update(n_assets=True), "config 'n_assets' has type bool, not int"),
    (lambda h: h["config"].update(variant=[]), "config 'variant' has type list, not str"),
    (lambda h: h["config"].update(init_seed="x"), "config 'init_seed' has type str, not int"),
    (lambda h: h.update(epoch="x"), "header 'epoch' has type str, not int"),
    (lambda h: h.update(best_val="x"), "header 'best_val' has type str, not float or NoneType"),
    (lambda h: h.update(diverged=0), "header 'diverged' has type int, not bool"),
], ids=["arrays", "array_entry", "array_name", "array_section", "array_shape", "config",
        "config_float",
        "config_bool", "variant", "init_seed", "epoch", "best_val", "diverged"])
def test_checkpoint_header_of_the_wrong_type_is_rejected(tmp_path_factory, tiny_blob,
                                                         edit, match):
    _rejected(tmp_path_factory, _edit_header(tiny_blob, edit), match)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_non_finite_array_is_rejected(tmp_path_factory, tiny_blob, bad):
    # the first array holding 7.0 is best_params' "c"
    seven, patched = np.float64(7.0).tobytes(), np.float64(bad).tobytes()
    blob = tiny_blob.replace(seven, patched, 1)
    _rejected(tmp_path_factory, blob, r"array 'c' holds non-finite values")


def test_checkpoint_feature_normalizer(trained, windows):
    _, result = trained
    nz = result.checkpoint.feature_normalizer()
    x = windows[0].features
    want = ((x - result.checkpoint.normalizer["normalizer.mean"])
            / result.checkpoint.normalizer["normalizer.std"])
    assert np.array_equal(nz.transform(x), want)


# -- training loop ------------------------------------------------------------

@pytest.mark.parametrize("variant", list(VARIANTS),
                         ids=["default", "static_graph", "single_head", "no_alloc_lstm",
                              "no_crisis"])
def test_training_step_reaches_every_parameter(prior, variant):
    gen = np.random.default_rng(7)
    model = CrispModel(ModelConfig(init_seed=3, variant=variant))
    b, n, steps = 4, model.config.n_assets, 6
    x = gen.standard_normal((b, n, steps, model.config.n_features))
    static = None
    if model.config.static_graph:
        adj = np.abs(gen.standard_normal((b, n, n)))
        static = adj / adj.sum(axis=-1, keepdims=True)
    weights, _ = model.forward(x, prior.normalized, gen, training=True,
                               static_adjacency=static)
    prev = np.full((b, n), 1.0 / n)
    loss_from_batch(weights, prev, 0.02 * gen.standard_normal((b, n, 5))).backward()
    grads = {p.name: np.abs(p.grad).max() for p in model.parameters()}
    assert [name for name, g in grads.items() if not g > 1e-12] == []


def test_training_is_deterministic(windows, prior):
    runs = []
    for _ in range(2):
        model = CrispModel(ModelConfig(init_seed=1))
        result = train(model, windows, prior.normalized, quick_config())
        runs.append((model.state(), result.log))
    state_a, log_a = runs[0]
    state_b, log_b = runs[1]
    assert log_a == log_b
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


def test_epoch_end_sees_epoch_zero_as_a_one_epoch_run_keeps_it(windows, prior):
    # lr0 != lr_min: the cosine schedule depends on max_epochs after epoch 0 only
    seen = []
    train(CrispModel(ModelConfig(init_seed=2)), windows, prior.normalized,
          quick_config(learning_rate=1e-3, max_epochs=3),
          on_epoch_end=lambda epoch, model: seen.append((epoch, model.state())))
    one = train(CrispModel(ModelConfig(init_seed=2)), windows, prior.normalized,
                quick_config(learning_rate=1e-3, max_epochs=1))
    assert [epoch for epoch, _ in seen] == [0, 1, 2]
    first = seen[0][1]
    assert first.keys() == one.checkpoint.best_params.keys()
    for key, value in one.checkpoint.best_params.items():
        assert first[key].tobytes() == value.tobytes(), key
    assert any(not np.array_equal(seen[1][1][key], first[key]) for key in first)


def test_batches_and_validation_run_the_encoder_at_one_dtype(windows, prior, monkeypatch):
    # the validation forward that picks the checkpoint runs at the dtype the
    # batches train at, which is also the one allocate serves it at
    model = CrispModel(ModelConfig(init_seed=1))
    seen, bilstm = [], model.temporal.bilstm
    monkeypatch.setattr(model.temporal, "bilstm",
                        lambda x, prepared: seen.append((grad_enabled(), x.dtype))
                        or bilstm(x, prepared))
    train(model, windows, prior.normalized, quick_config(max_epochs=1))
    # 10 training windows at batch 6, then the 2-window validation tail
    assert seen == [(True, ENCODER_DTYPE)] * 2 + [(False, ENCODER_DTYPE)]


def test_validation_tail_excluded_from_normalizer(windows, prior):
    ws = [w for w in windows[:4]]
    import copy

    ws = [copy.copy(w) for w in ws]
    for w in ws:
        w.features = w.features.copy()
    ws[3].features = ws[3].features + 1000.0
    model = CrispModel(ModelConfig(init_seed=0))
    cfg = quick_config(learning_rate=0.0, lr_min=0.0, batch_size=3, max_epochs=1,
                       val_fraction=0.25)
    import warnings

    with warnings.catch_warnings():
        # the poisoned validation window saturates sigmoids; that is the point
        warnings.simplefilter("ignore", RuntimeWarning)
        result = train(model, ws, prior.normalized, cfg)
    mean = result.checkpoint.normalizer["normalizer.mean"]
    head_mean = np.concatenate(
        [w.features.reshape(-1, w.features.shape[-1]) for w in ws[:3]]).mean(axis=0)
    # a leaked tail window would shift every feature mean by +250
    assert np.array_equal(mean, head_mean)


def test_crisisless_train_fits_normalizer_on_kept_columns(windows, prior):
    # windows cache the full roster; the 27-input model reads its own columns
    model = CrispModel(ModelConfig(variant="no_crisis", init_seed=0))
    cfg = quick_config(learning_rate=0.0, lr_min=0.0, max_epochs=1)
    result = train(model, windows, prior.normalized, cfg)
    keep = feature_columns(27)
    fit = np.concatenate([w.features[:, :, keep].reshape(-1, 27) for w in windows[:10]])
    assert all(w.features.shape[-1] == 31 for w in windows)
    assert np.array_equal(result.checkpoint.normalizer["normalizer.mean"], fit.mean(axis=0))
    assert np.array_equal(result.checkpoint.normalizer["normalizer.std"], fit.std(axis=0))


def test_early_stopping_on_flat_validation(windows, prior):
    model = CrispModel(ModelConfig(init_seed=5))
    cfg = quick_config(learning_rate=0.0, lr_min=0.0, max_epochs=30, patience=2)
    result = train(model, windows, prior.normalized, cfg)
    assert result.stopped_early
    assert len(result.log) == 3      # best at epoch 0, two flat epochs
    vals = [row["val_loss"] for row in result.log]
    assert vals[0] == vals[1] == vals[2]


def test_divergence_detected_and_flagged(windows, prior):
    import warnings

    model = CrispModel(ModelConfig(init_seed=7))
    model.bag["temporal.attn_q"].data[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = train(model, windows, prior.normalized, quick_config())
    assert result.diverged
    assert result.checkpoint.diverged
    # the first batch diverges: one row, nan losses, nothing clipped yet
    assert len(result.log) == 1
    row = result.log[0]
    assert row["epoch"] == 0 and row["lr"] == 5e-4
    assert math.isnan(row["train_loss"]) and math.isnan(row["val_loss"])
    assert row["clips"] == 0 and row["grad_norm"] == 0.0
    assert result.log_csv().split("\n")[1] == "0,nan,nan,0.0005,0,0"


def test_diverged_epoch_logs_its_clips_and_norm_so_far(windows, prior, monkeypatch):
    # 10 training windows in batches of 6: epoch 0 takes two losses and one
    # validation loss, so the fifth loss is epoch 1's second batch
    from crisp import training

    calls = []

    def second_batch_of_epoch_1_diverges(*args):
        loss = loss_from_batch(*args)
        calls.append(None)
        if len(calls) == 5:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    monkeypatch.setattr(training, "loss_from_batch", second_batch_of_epoch_1_diverges)
    result = train(CrispModel(ModelConfig(init_seed=1)), windows, prior.normalized,
                   quick_config(clip_norm=1e-9, max_epochs=3))
    assert result.diverged and len(calls) == 5
    assert [row["epoch"] for row in result.log] == [0, 1]
    last = result.log[1]
    assert math.isnan(last["train_loss"]) and math.isnan(last["val_loss"])
    assert last["lr"] == cosine_lr(1, 3, 5e-4, 5e-4)
    assert last["clips"] == 1 and last["grad_norm"] > 1e-9
    assert result.checkpoint.epoch == 1


def test_train_input_validation(windows, prior):
    model = CrispModel(ModelConfig())
    with pytest.raises(ValueError, match="batch_size"):
        train(model, windows[:3], prior.normalized, quick_config(batch_size=8))
    import copy

    bare = [copy.copy(w) for w in windows[:8]]
    for w in bare:
        w.features = None
    with pytest.raises(ValueError, match="features"):
        train(model, bare, prior.normalized, quick_config(batch_size=4))
    static_model = CrispModel(ModelConfig(variant="static"))
    with pytest.raises(ValueError, match="adjacenc"):
        train(static_model, windows, prior.normalized, quick_config())


@pytest.mark.parametrize("n_windows, overrides", [
    (1, {"batch_size": 1}),
    (3, {"batch_size": 1, "val_fraction": 0.9}),
], ids=["one_window", "tail_takes_all"])
def test_train_needs_a_training_part_and_a_validation_tail(windows, prior, n_windows,
                                                           overrides):
    model = CrispModel(ModelConfig())

    def no_forward(*args, **kwargs):
        raise AssertionError("train ran a forward pass before rejecting its windows")

    model.forward = no_forward
    with pytest.raises(ValueError, match=f"^{n_windows} windows at val_fraction="
                                         f".* leave 0 for training before a "
                                         f"{n_windows}-window validation tail"):
        train(model, windows[:n_windows], prior.normalized, quick_config(**overrides))


def test_log_csv_format(trained):
    _, result = trained
    text = result.checkpoint and result.log_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,lr,clips,grad_norm"
    assert len(lines) == 1 + len(result.log)
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 6
    for line, row in zip(lines[1:], result.log):
        clips, norm = line.split(",")[4:]
        assert int(clips) == row["clips"] and float(norm) == pytest.approx(row["grad_norm"])
        assert 0 <= row["clips"] <= 2 and row["grad_norm"] > 0.0     # 2 batches an epoch


def test_log_counts_every_clipped_batch(windows, prior):
    # 10 training windows in batches of 6: two batches an epoch, both clipped
    result = train(CrispModel(ModelConfig(init_seed=1)), windows, prior.normalized,
                   quick_config(clip_norm=1e-9))
    assert [row["clips"] for row in result.log] == [2, 2]
    assert all(row["grad_norm"] > 1e-9 for row in result.log)


def test_model_rejects_state_with_the_dropped_score_bias():
    model = CrispModel(ModelConfig())
    state = model.state()
    state["alloc.mlp_out.b"] = np.zeros(1)
    with pytest.raises(ValueError, match="alloc.mlp_out.b"):
        model.load_state(state)
