"""Mini-batch training loop with Adam, cosine annealing and early stopping.

Training is bitwise-reproducible from the seed: shuffling and dropout draw
from one seeded generator whose state is serialized into the checkpoint,
so restoring a checkpoint resumes the exact trajectory.  Checkpoints use a
purpose-built binary container (magic + JSON header + raw float64 buffers)
because archive formats embed timestamps that break byte-identical
round-trips.

The validation split is the chronological tail of the training windows;
feature normalization statistics are fitted on the pre-validation portion
only, so nothing later in time leaks into them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import no_grad
from .data import Window
from .features import FeatureNormalizer, feature_columns
from .model import CrispModel, ModelConfig
from .objectives import LossWeights, loss_from_batch

__all__ = [
    "Checkpoint",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "cosine_lr",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]

_MAGIC = b"CRSPCKPT"
_VERSION = 1
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    lr_min: float = 1e-5
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 15
    val_fraction: float = 0.1
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.lr_min <= self.learning_rate:
            raise ValueError(f"lr_min must lie in [0, learning_rate={self.learning_rate}], "
                             f"got {self.lr_min}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie strictly between 0 and 1, "
                             f"got {self.val_fraction}")
        if not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_model(cls, model: CrispModel) -> "AdamState":
        return cls(
            m={p.name: np.zeros_like(p.data) for p in model.parameters()},
            v={p.name: np.zeros_like(p.data) for p in model.parameters()},
        )


def adam_step(params, state: AdamState, lr: float) -> None:
    """One Adam update (beta1 0.9, beta2 0.999, eps 1e-8) with bias correction;
    raises on NaN gradients."""
    state.t += 1
    t = state.t
    for p in params:
        g = p.grad
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in parameter {p.name!r}")
        m = state.m[p.name]
        v = state.v[p.name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1 ** t)
        v_hat = v / (1.0 - _BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def cosine_lr(epoch: int, max_epochs: int, lr0: float, lr_min: float) -> float:
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * epoch / max_epochs))


def clip_gradients(params, max_norm: float) -> tuple[float, bool]:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
        return norm, True
    return norm, False


@dataclass
class Checkpoint:
    """Complete training state at an epoch boundary."""

    model_config: ModelConfig
    best_params: dict[str, np.ndarray]
    last_params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int
    epoch: int
    best_val: float | None
    bad_epochs: int
    rng_state: dict
    normalizer: dict[str, np.ndarray]
    diverged: bool = False

    def config_hash(self) -> str:
        return self.model_config.config_hash()

    def feature_normalizer(self) -> FeatureNormalizer:
        """The normalizer fitted on the training split, rebuilt from its state."""
        return FeatureNormalizer.from_state(
            {"mean": self.normalizer["normalizer.mean"],
             "std": self.normalizer["normalizer.std"]})


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    sections = [
        ("best", ckpt.best_params),
        ("last", ckpt.last_params),
        ("m", ckpt.adam_m),
        ("v", ckpt.adam_v),
        ("extra", ckpt.normalizer),
    ]
    arrays = []
    buffers = []
    for section, table in sections:
        for name in sorted(table):
            arr = np.ascontiguousarray(table[name], dtype=np.float64)
            arrays.append({"name": name, "section": section, "shape": list(arr.shape)})
            buffers.append(arr.tobytes())
    header = {
        "config": ckpt.model_config.__dict__,
        "config_hash": ckpt.config_hash(),
        "epoch": ckpt.epoch,
        "best_val": ckpt.best_val,
        "bad_epochs": ckpt.bad_epochs,
        "adam_t": ckpt.adam_t,
        "rng_state": ckpt.rng_state,
        "diverged": ckpt.diverged,
        "arrays": arrays,
    }
    raw = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        for buf in buffers:
            fh.write(buf)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode())
        tables: dict[str, dict[str, np.ndarray]] = {
            "best": {}, "last": {}, "m": {}, "v": {}, "extra": {}}
        for meta in header["arrays"]:
            shape = tuple(meta["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"truncated checkpoint: array {meta['name']!r}")
            tables[meta["section"]][meta["name"]] = (
                np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    stored, known = set(header["config"]), {f.name for f in fields(ModelConfig)}
    if stored != known:
        unknown, missing = sorted(stored - known), sorted(known - stored)
        raise ValueError(
            f"{path}: config keys differ from ModelConfig's fields"
            + (f"; unknown {unknown}" if unknown else "")
            + (f"; missing {missing}" if missing else ""))
    config = ModelConfig(**header["config"])
    expected = config.config_hash()
    if header["config_hash"] != expected:
        raise ValueError(
            f"{path}: stored config_hash {header['config_hash']!r} does not match "
            f"{expected!r}, the hash of its config")
    return Checkpoint(
        model_config=config,
        best_params=tables["best"],
        last_params=tables["last"],
        adam_m=tables["m"],
        adam_v=tables["v"],
        adam_t=header["adam_t"],
        epoch=header["epoch"],
        best_val=header["best_val"],
        bad_epochs=header["bad_epochs"],
        rng_state=header["rng_state"],
        normalizer=tables["extra"],
        diverged=header.get("diverged", False),
    )


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list[dict] = field(default_factory=list)
    stopped_early: bool = False
    diverged: bool = False
    clip_events: int = 0

    def log_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,lr"]
        for row in self.log:
            val = "" if row["val_loss"] is None else f"{row['val_loss']:.12g}"
            lines.append(
                f"{row['epoch']},{row['train_loss']:.12g},{val},{row['lr']:.12g}")
        return "\n".join(lines) + "\n"


def _stack_targets(windows: list[Window]) -> np.ndarray:
    return np.stack([w.target for w in windows])


def train(model: CrispModel, windows: list[Window], prior_adjacency: np.ndarray,
          config: TrainConfig, loss_weights: LossWeights | None = None,
          static_adjacencies: np.ndarray | None = None,
          resume_from: Checkpoint | None = None) -> TrainResult:
    """Train on feature-carrying windows; returns the best checkpoint.

    Windows must be chronological and carry raw (unnormalized) full-roster
    features; the model reads the roster columns its ``n_features`` selects.
    The last ``val_fraction`` of them become the validation tail.  Turnover
    in the loss uses a uniform previous-weight convention: shuffled batches
    have no meaningful period ordering.
    """
    lw = loss_weights or LossWeights()
    if len(windows) < config.batch_size:
        raise ValueError(
            f"need at least batch_size={config.batch_size} windows, got {len(windows)}")
    if any(w.features is None for w in windows):
        raise ValueError("windows must carry features before training")
    if model.config.static_graph and static_adjacencies is None:
        raise ValueError("static-graph training requires per-window adjacencies")

    columns = feature_columns(model.config.n_features)
    features = [w.features if columns is None else w.features[:, :, columns]
                for w in windows]

    n_val = max(1, round(config.val_fraction * len(windows))) if len(windows) >= 2 else 0
    n_train = len(windows) - n_val
    train_windows = windows[:n_train]
    val_windows = windows[n_train:]

    if resume_from is None:
        normalizer = FeatureNormalizer().fit(features[:n_train])
        adam = AdamState.for_model(model)
        rng = np.random.default_rng(config.seed)
        start_epoch = 0
        best_val = None
        bad_epochs = 0
        best_params = model.state()
    else:
        ck = resume_from
        normalizer = ck.feature_normalizer()
        model.load_state(ck.last_params)
        adam = AdamState(m={k: v.copy() for k, v in ck.adam_m.items()},
                         v={k: v.copy() for k, v in ck.adam_v.items()},
                         t=ck.adam_t)
        rng = np.random.default_rng(config.seed)
        rng.bit_generator.state = ck.rng_state
        start_epoch = ck.epoch + 1
        best_val = ck.best_val
        bad_epochs = ck.bad_epochs
        best_params = {k: v.copy() for k, v in ck.best_params.items()}

    train_feats = normalizer.transform(np.stack(features[:n_train]))
    train_targets = _stack_targets(train_windows)
    val_feats = (normalizer.transform(np.stack(features[n_train:]))
                 if val_windows else None)
    val_targets = _stack_targets(val_windows) if val_windows else None
    uniform = np.full((1, model.config.n_assets), 1.0 / model.config.n_assets)

    params = model.parameters()
    result = TrainResult(checkpoint=None)
    last_good = {k: v.copy() for k, v in model.state().items()}

    def eval_loss(feats: np.ndarray, targets: np.ndarray,
                  static: np.ndarray | None) -> float:
        with no_grad():
            w, _ = model.forward(feats, prior_adjacency, rng=np.random.default_rng(0),
                                 training=False, static_adjacency=static)
            prev = np.repeat(uniform, feats.shape[0], axis=0)
            return float(loss_from_batch(w, prev, targets, lw).data)

    static_train = (static_adjacencies[:n_train]
                    if static_adjacencies is not None else None)
    static_val = (static_adjacencies[n_train:]
                  if static_adjacencies is not None else None)

    epoch = start_epoch - 1
    for epoch in range(start_epoch, config.max_epochs):
        lr = cosine_lr(epoch, config.max_epochs, config.learning_rate, config.lr_min)
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        diverged = False
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            feats = train_feats[idx]
            targets = train_targets[idx]
            static = static_train[idx] if static_train is not None else None
            model.zero_grads()
            weights, _ = model.forward(feats, prior_adjacency, rng,
                                       training=True, static_adjacency=static)
            prev = np.repeat(uniform, len(idx), axis=0)
            batch_loss = loss_from_batch(weights, prev, targets, lw)
            if not np.isfinite(batch_loss.data):
                diverged = True
                break
            batch_loss.backward()
            _, clipped = clip_gradients(params, config.clip_norm)
            if clipped:
                result.clip_events += 1
            try:
                adam_step(params, adam, lr)
            except FloatingPointError:
                diverged = True
                break
            epoch_loss += float(batch_loss.data) * len(idx)

        if diverged:
            model.load_state(last_good)
            result.diverged = True
            break
        last_good = {k: v.copy() for k, v in model.state().items()}

        train_loss = epoch_loss / n_train
        val_loss = (eval_loss(val_feats, val_targets, static_val)
                    if val_windows else None)
        result.log.append({"epoch": epoch, "train_loss": train_loss,
                           "val_loss": val_loss, "lr": lr})

        monitored = val_loss if val_loss is not None else train_loss
        if best_val is None or monitored < best_val:
            best_val = monitored
            best_params = model.state()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                result.stopped_early = True
                break

    result.checkpoint = Checkpoint(
        model_config=model.config,
        best_params=best_params,
        last_params=model.state(),
        adam_m={k: v.copy() for k, v in adam.m.items()},
        adam_v={k: v.copy() for k, v in adam.v.items()},
        adam_t=adam.t,
        epoch=epoch,
        best_val=best_val,
        bad_epochs=bad_epochs,
        rng_state=rng.bit_generator.state,
        normalizer={"normalizer.mean": normalizer.state()["mean"],
                    "normalizer.std": normalizer.state()["std"]},
        diverged=result.diverged,
    )
    return result
