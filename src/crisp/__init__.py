"""Crisis-resilient portfolio construction with attention over asset graphs.

The pipeline turns a panel of daily prices into 31 per-asset features,
encodes each 20-day window with a bidirectional recurrent network plus
temporal self-attention, fuses that with a sector/region graph embedding,
refines cross-asset structure with multi-head graph attention, and maps the
result to long-only portfolio weights inside floor/cap constraints.  Training
optimizes a five-term risk-adjusted objective end to end through a custom
reverse-mode autodiff engine; everything is deterministic given its seeds.

The package root re-exports nothing; import from the submodules, for
example ``from crisp.backtest import run_backtest`` or
``from crisp import backtest``.
"""
