"""Mini-batch training loop with Adam, cosine annealing and early stopping.

Training is bitwise-reproducible from the seed: shuffling and dropout draw
from one seeded generator.  Checkpoints use a purpose-built binary container
(magic + JSON header + raw float64 buffers) because archive formats embed
timestamps that break byte-identical round-trips.

Every run starts fresh and keeps the chronological tail of its windows for
validation; feature normalization statistics are fitted on the part before
the tail only, so nothing later in time leaks into them.

Each batch's forward and each epoch's validation forward are the model's
one ``forward``, the function ``CrispModel.allocate`` serves, so the
checkpoint is chosen by the function that serves it.  Only the temporal
encoder computes below float64; parameters, gradients, Adam moments,
clipping, the loss and checkpoints stay float64 (float64 master weights).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from typing import Callable

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
    """A trained model as served: its config, best parameters and feature
    normalizer.  The last parameters and the Adam, epoch and RNG state of the
    last epoch ride along, but nothing reads them back: no run resumes from a
    checkpoint."""

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


# The checkpoint schema.  Array fields map to their section tags, in file
# order, and each section's arrays follow in name order.  The header holds
# the scalar fields beside the config, its hash and the array index.
_SECTIONS = {"best_params": "best", "last_params": "last", "adam_m": "m",
             "adam_v": "v", "normalizer": "extra"}
# Each header entry maps to the JSON types it may hold; config values hold
# the types of ModelConfig's defaults.
_HEADER_FIELDS = {"epoch": (int,), "best_val": (float, type(None)), "bad_epochs": (int,),
                  "adam_t": (int,), "rng_state": (dict,), "diverged": (bool,)}
_HEADER_TYPES = {"config": (dict,), "config_hash": (str,), "arrays": (list,),
                 **_HEADER_FIELDS}


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    arrays, buffers = [], []
    for attr, section in _SECTIONS.items():
        table = getattr(ckpt, attr)
        for name in sorted(table):
            arr = np.ascontiguousarray(table[name], dtype=np.float64)
            arrays.append({"name": name, "section": section, "shape": list(arr.shape)})
            buffers.append(arr.tobytes())
    header = {key: getattr(ckpt, key) for key in _HEADER_FIELDS}
    header.update(config=ckpt.model_config.__dict__, config_hash=ckpt.config_hash(),
                  arrays=arrays)
    raw = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IQ", _VERSION, len(raw)) + raw)
        fh.writelines(buffers)


def _same_keys(path: str, what: str, stored, known) -> None:
    stored, known = set(stored), set(known)
    if stored != known:
        unknown, missing = sorted(stored - known), sorted(known - stored)
        raise ValueError(f"{path}: {what}" + (f"; unknown {unknown}" if unknown else "")
                         + (f"; missing {missing}" if missing else ""))


def _check_type(path: str, what: str, value, kinds: tuple[type, ...]) -> None:
    if type(value) not in kinds:       # exact: a JSON true is no int here
        raise ValueError(f"{path}: {what} has type {type(value).__name__}, not "
                         + " or ".join(k.__name__ for k in kinds))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a departure from its layout raises ``ValueError``."""
    with open(path, "rb") as fh:
        def read(n: int, what: str) -> bytes:
            buf = fh.read(n)
            if len(buf) != n:
                raise ValueError(f"{path}: truncated checkpoint: {what}")
            return buf

        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file (bad magic {magic!r})")
        version, hlen = struct.unpack("<IQ", read(12, "version and header length"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = dict(json.loads(read(hlen, "header")))
        except (TypeError, ValueError):
            raise ValueError(f"{path}: checkpoint header is not a JSON object") from None
        _same_keys(path, "header keys differ from the checkpoint schema", header,
                   _HEADER_TYPES)
        for key, kinds in _HEADER_TYPES.items():
            _check_type(path, f"header {key!r}", header[key], kinds)
        tables: dict[str, dict[str, np.ndarray]] = {s: {} for s in _SECTIONS.values()}
        for i, meta in enumerate(header["arrays"]):
            _check_type(path, f"header 'arrays'[{i}]", meta, (dict,))
            name, section, shape = meta.get("name"), meta.get("section"), meta.get("shape")
            _check_type(path, f"header 'arrays'[{i}] name", name, (str,))
            _check_type(path, f"header 'arrays'[{i}] section", section, (str,))
            if section not in tables or name in tables[section]:
                raise ValueError(f"{path}: array {name!r} has an unknown or "
                                 f"repeated section {section!r}")
            if not (isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"{path}: array {name!r} has a bad shape {shape!r}")
            buf = read(8 * math.prod(shape), f"array {name!r}")
            arr = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: array {name!r} holds non-finite values")
            tables[section][name] = arr
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    _same_keys(path, "config keys differ from ModelConfig's fields",
               header["config"], (f.name for f in fields(ModelConfig)))
    defaults = ModelConfig()
    for key, value in header["config"].items():
        _check_type(path, f"config {key!r}", value, (type(getattr(defaults, key)),))
    try:
        config = ModelConfig(**header["config"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = config.config_hash()
    if header["config_hash"] != expected:
        raise ValueError(
            f"{path}: stored config_hash {header['config_hash']!r} does not match "
            f"{expected!r}, the hash of its config")
    return Checkpoint(model_config=config,
                      **{key: header[key] for key in _HEADER_FIELDS},
                      **{attr: tables[section] for attr, section in _SECTIONS.items()})


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list[dict] = field(default_factory=list)
    stopped_early: bool = False
    diverged: bool = False

    def log_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,lr,clips,grad_norm"]
        for row in self.log:
            lines.append(f"{row['epoch']},{row['train_loss']:.12g},"
                         f"{row['val_loss']:.12g},{row['lr']:.12g},"
                         f"{row['clips']},{row['grad_norm']:.12g}")
        return "\n".join(lines) + "\n"


def train(model: CrispModel, windows: list[Window], prior_adjacency: np.ndarray,
          config: TrainConfig, loss_weights: LossWeights | None = None,
          static_adjacencies: np.ndarray | None = None,
          on_epoch_end: Callable[[int, CrispModel], None] | None = None) -> TrainResult:
    """Train on feature-carrying windows; returns the best checkpoint.

    Windows must be chronological and carry raw (unnormalized) full-roster
    features; the model reads the roster columns its ``n_features`` selects.
    The last ``val_fraction`` of them (at least one) become the validation
    tail, and the best epoch is the one with the lowest validation loss.
    Turnover in the loss uses a uniform previous-weight convention: shuffled
    batches have no meaningful period ordering.  Each log row carries the
    epoch's clipped-batch count and its largest pre-clip gradient norm; an
    epoch whose loss or gradient turns non-finite logs ``nan`` losses, then stops.
    ``on_epoch_end(epoch, model)`` runs after each epoch's log row, while the
    model holds that epoch's parameters (a diverged epoch's last good ones).
    """
    lw = loss_weights or LossWeights()
    n_val = max(1, round(config.val_fraction * len(windows)))
    n_train = len(windows) - n_val
    if n_train < 1:
        raise ValueError(
            f"{len(windows)} windows at val_fraction={config.val_fraction} leave "
            f"{n_train} for training before a {n_val}-window validation tail")
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
    normalizer = FeatureNormalizer().fit(features[:n_train])
    feats = normalizer.transform(np.stack(features))
    targets = np.stack([w.target for w in windows])
    static = static_adjacencies
    prev = np.full((len(windows), model.config.n_assets), 1.0 / model.config.n_assets)

    params = model.parameters()
    adam = AdamState.for_model(model)
    rng = np.random.default_rng(config.seed)
    last_good = best_params = model.state()
    best_val, bad_epochs = None, 0
    result = TrainResult(checkpoint=None)

    for epoch in range(config.max_epochs):
        lr = cosine_lr(epoch, config.max_epochs, config.learning_rate, config.lr_min)
        order = rng.permutation(n_train)
        epoch_loss, clips, max_norm = 0.0, 0, 0.0
        try:
            for lo in range(0, n_train, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                model.zero_grads()
                weights, _ = model.forward(
                    feats[idx], prior_adjacency, rng, training=True,
                    static_adjacency=None if static is None else static[idx])
                batch_loss = loss_from_batch(weights, prev[:len(idx)], targets[idx], lw)
                if not np.isfinite(batch_loss.data):
                    raise FloatingPointError("non-finite training loss")
                batch_loss.backward()
                norm, clipped = clip_gradients(params, config.clip_norm)
                clips += clipped
                max_norm = max(max_norm, norm)
                adam_step(params, adam, lr)
                epoch_loss += float(batch_loss.data) * len(idx)
        except FloatingPointError:
            model.load_state(last_good)
            result.diverged = True
            epoch_loss = val_loss = math.nan
        else:
            last_good = model.state()
            with no_grad():
                w, _ = model.forward(
                    feats[n_train:], prior_adjacency, np.random.default_rng(0), training=False,
                    static_adjacency=None if static is None else static[n_train:])
                val_loss = float(loss_from_batch(w, prev[:n_val], targets[n_train:], lw).data)
        result.log.append({"epoch": epoch, "train_loss": epoch_loss / n_train,
                           "val_loss": val_loss, "lr": lr, "clips": clips,
                           "grad_norm": max_norm})
        if on_epoch_end is not None:
            on_epoch_end(epoch, model)
        if result.diverged:
            break

        if best_val is None or val_loss < best_val:
            best_val, best_params, bad_epochs = val_loss, last_good, 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                result.stopped_early = True
                break

    # Nothing reads last_params, the Adam moments, bad_epochs or rng_state; the
    # schema keeps them while the benchmark builds and round-trips them.
    result.checkpoint = Checkpoint(
        model_config=model.config, best_params=best_params, last_params=model.state(),
        adam_m=adam.m, adam_v=adam.v, adam_t=adam.t, epoch=epoch, best_val=best_val,
        bad_epochs=bad_epochs, rng_state=rng.bit_generator.state,
        normalizer={"normalizer.mean": normalizer.mean, "normalizer.std": normalizer.std},
        diverged=result.diverged)
    return result
