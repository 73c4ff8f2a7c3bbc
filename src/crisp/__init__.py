"""Crisis-resilient portfolio construction with attention over asset graphs.

The pipeline turns a panel of daily prices into 31 per-asset features,
encodes each 20-day window with a bidirectional recurrent network plus
temporal self-attention, fuses that with a sector/region graph embedding,
refines cross-asset structure with multi-head graph attention, and maps the
result to long-only portfolio weights inside floor/cap constraints.  Training
optimizes a five-term risk-adjusted objective end to end through a custom
reverse-mode autodiff engine; everything is deterministic given its seeds.
"""

from .allocation import (
    TEMPERATURE,
    WEIGHT_CAP,
    WEIGHT_FLOOR,
    AllocationHead,
    PortfolioWeights,
    project_constraints,
    score_to_weights,
)
from .autodiff import Parameter, ParameterBag, Tensor, no_grad, softmax
from .backtest import (
    ABLATION_NAMES,
    BacktestReport,
    Strategy,
    ablation_suite,
    crisp_strategy,
    equal_weight,
    mean_variance,
    random_selection,
    risk_parity,
    run_backtest,
    train_on_universe,
)
from .data import (
    RegimeConfig,
    Universe,
    Window,
    generate_synthetic,
    load_csv,
    make_windows,
)
from .features import (
    CRISIS_FEATURES,
    FEATURE_ROSTER,
    N_FEATURES,
    FeatureNormalizer,
    compute_features,
)
from .graphattn import AttentionRecord, GatLayer, SparsityReport, sparsity_report
from .model import CrispModel, ModelConfig
from .objectives import LossWeights, MetricSet, loss_from_batch, metrics
from .spatial import PriorGraph, SpatialEncoder, build_prior, correlation_adjacency
from .temporal import TemporalEncoder
from .training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train
from .universe import AssetBook, load_asset_book

__all__ = [
    "ABLATION_NAMES",
    "AllocationHead",
    "AssetBook",
    "AttentionRecord",
    "BacktestReport",
    "Checkpoint",
    "CRISIS_FEATURES",
    "CrispModel",
    "FEATURE_ROSTER",
    "FeatureNormalizer",
    "GatLayer",
    "LossWeights",
    "MetricSet",
    "ModelConfig",
    "N_FEATURES",
    "Parameter",
    "ParameterBag",
    "PortfolioWeights",
    "PriorGraph",
    "RegimeConfig",
    "SparsityReport",
    "SpatialEncoder",
    "Strategy",
    "TEMPERATURE",
    "TemporalEncoder",
    "Tensor",
    "TrainConfig",
    "Universe",
    "WEIGHT_CAP",
    "WEIGHT_FLOOR",
    "Window",
    "ablation_suite",
    "build_prior",
    "compute_features",
    "correlation_adjacency",
    "crisp_strategy",
    "equal_weight",
    "generate_synthetic",
    "load_asset_book",
    "load_checkpoint",
    "load_csv",
    "loss_from_batch",
    "make_windows",
    "mean_variance",
    "metrics",
    "no_grad",
    "project_constraints",
    "random_selection",
    "risk_parity",
    "run_backtest",
    "save_checkpoint",
    "score_to_weights",
    "softmax",
    "sparsity_report",
    "train",
    "train_on_universe",
]
