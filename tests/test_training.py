"""Optimizer, schedule, checkpoint container, and the training loop."""

import math

import numpy as np
import pytest

from crisp.autodiff import Parameter
from crisp.backtest import attach_features
from crisp.data import make_windows
from crisp.model import CrispModel, ModelConfig
from crisp.training import (
    AdamState,
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
    defensive = np.array(book.defensive_mask(small_universe.tickers), dtype=np.float64)
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
        p.tensor.grad[:] = g
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
    p.tensor.grad[:] = [1.0, np.nan, 0.0]
    with pytest.raises(FloatingPointError, match="w"):
        adam_step([p], state, lr=0.1)


def test_clip_gradients_oracle():
    a = Parameter("a", np.zeros(3))
    b = Parameter("b", np.zeros((2, 2)))
    a.tensor.grad[:] = [3.0, 0.0, 0.0]
    b.tensor.grad[:] = [[0.0, 4.0], [0.0, 0.0]]
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


# -- training loop ------------------------------------------------------------

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


def test_resume_matches_uninterrupted(windows, prior, tmp_path):
    # flat learning rate so the schedule is independent of max_epochs
    straight = CrispModel(ModelConfig(init_seed=2))
    r_straight = train(straight, windows, prior.normalized,
                       quick_config(max_epochs=4))

    part = CrispModel(ModelConfig(init_seed=2))
    r_part = train(part, windows, prior.normalized, quick_config(max_epochs=2))
    path = tmp_path / "mid.bin"
    save_checkpoint(r_part.checkpoint, str(path))

    resumed = CrispModel(ModelConfig(init_seed=2))
    ck = load_checkpoint(str(path))
    r_resumed = train(resumed, windows, prior.normalized,
                      quick_config(max_epochs=4), resume_from=ck)

    a = straight.state()
    b = resumed.state()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    full_log = r_part.log + r_resumed.log
    assert [row["epoch"] for row in full_log] == [0, 1, 2, 3]
    assert full_log == r_straight.log


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
    model.bag["temporal.attn_q"].tensor.data[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = train(model, windows, prior.normalized, quick_config())
    assert result.diverged
    assert result.checkpoint.diverged
    assert result.log == []


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
    static_model = CrispModel(ModelConfig(static_graph=True))
    with pytest.raises(ValueError, match="adjacenc"):
        train(static_model, windows, prior.normalized, quick_config())


def test_log_csv_format(trained):
    _, result = trained
    text = result.checkpoint and result.log_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(lines) == 1 + len(result.log)
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 4
