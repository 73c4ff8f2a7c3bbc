"""Command-line entry point for the crisis-resilient portfolio pipeline.

Subcommands
-----------
synth      generate a regime-switching synthetic market and write it as CSV
train      train the allocation model (or an ablation variant) on one universe
backtest   evaluate the configured strategies on the held-out test span
ablate     train and score the six component-ablation configurations
features   dump the 31-feature roster as CSV

Configuration is a flat INI file with sections; every key has a default, so
all commands run with no config at all.  Unknown sections or keys are
rejected, and the resolved configuration (train, ablate and backtest: only
the sections they read) is echoed so any run can be reproduced from its own
artifacts.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .backtest import (
    ABLATION_NAMES,
    ablation_csv,
    ablation_suite,
    crisp_strategy,
    equal_weight,
    mean_variance,
    random_selection,
    risk_parity,
    run_backtest,
    train_on_universe,
)
from .data import (RegimeConfig, Universe, generate_synthetic, load_csv, make_windows,
                   save_csv)
from .features import roster_csv
from .graphattn import sparsity_report, telemetry_csv
from .model import VARIANTS, ModelConfig
from .objectives import LossWeights
from .spatial import PriorGraph, build_prior
from .training import TrainConfig, load_checkpoint, save_checkpoint
from .universe import AssetBook, load_asset_book


class UsageError(Exception):
    """Invocation or configuration problem; maps to exit code 2."""


def _fields(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple[str, object]]:
    """A config dataclass's fields as schema entries, in declaration order."""
    return {f.name: (f.type, f.default) for f in fields(cls) if f.name not in skip}


# Section -> key -> (type tag, default).  The resolved config always carries
# every key, which is what makes the echoed file re-runnable as-is.  The
# [synthetic] regime keys, [model], [train] and [loss] are the fields of
# their dataclasses; the rest only the CLI owns.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "data": {
        "source": ("str", "synthetic"),          # synthetic | csv
        "csv_path": ("str", ""),
        "universe_file": ("str", ""),            # blank = packaged default
        "window": ("int", 20),
        "horizon": ("int", 5),
        "train_frac": ("float", 0.7),
        "train_stride": ("int", 3),
    },
    "synthetic": {
        "days": ("int", 1500),
        "seed": ("int", 11),
        **_fields(RegimeConfig),
    },
    # window comes from [data], n_assets from the universe
    "model": _fields(ModelConfig, skip=("n_assets", "window")),
    "train": _fields(TrainConfig),
    "loss": _fields(LossWeights),
    "backtest": {
        "strategies": ("str", "crisp,equal_weight,mean_variance,risk_parity"),
        "mv_risk_aversion": ("float", 1.0),
        "mv_lookback": ("int", 252),
        "rp_lookback": ("int", 252),
        "random_seed": ("int", 0),
    },
}

# The sections each command reads, and so echoes to resolved_config.ini;
# every section is validated either way.  backtest's CRISP row runs the
# checkpoint's own model, and ablate's Random Selection row is seeded by
# [train] seed.
_READS = {
    "synth": tuple(_SCHEMA),
    "train": ("data", "synthetic", "model", "train", "loss"),
    "ablate": ("data", "synthetic", "model", "train", "loss"),
    "backtest": ("data", "synthetic", "backtest"),
}

# Baseline strategy name -> builder over the [backtest] section, in the order
# the names are listed; "crisp" needs the checkpoint and is built beside it.
_BASELINES = {
    "equal_weight": lambda b: equal_weight(),
    "mean_variance": lambda b: mean_variance(risk_aversion=b["mv_risk_aversion"],
                                             lookback=b["mv_lookback"]),
    "risk_parity": lambda b: risk_parity(lookback=b["rp_lookback"]),
    "random_selection": lambda b: random_selection(seed=b["random_seed"]),
}


def _conventions(horizon: int) -> dict[str, str]:
    return {
        "returns": "simple daily returns, no dividends",
        "rebalancing": f"weights held fixed within each {horizon}-day period (no drift)",
        "costs": "no transaction costs or slippage",
        "max_drawdown": "reported as a negative fraction",
    }


def _coerce(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise UsageError(
            f"config key [{section}] {key} = {raw!r} is not a valid {kind}") from None


def load_config(path: str | None) -> dict[str, dict[str, object]]:
    """Read an INI config, validate exhaustively, and fill in all defaults."""
    resolved = {sec: {k: default for k, (_, default) in keys.items()}
                for sec, keys in _SCHEMA.items()}
    if path is None:
        return resolved
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    parser = configparser.RawConfigParser()
    parser.optionxform = str        # exact key match; wrong case is rejected
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"unknown config section [{section}] "
                             f"(known: {', '.join(_SCHEMA)})")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise UsageError(
                    f"unknown config key [{section}] {key} "
                    f"(known: {', '.join(_SCHEMA[section])})")
            kind = _SCHEMA[section][key][0]
            resolved[section][key] = _coerce(section, key, kind, raw)
    return resolved


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: dict[str, dict[str, object]], out_dir: str,
                sections=tuple(_SCHEMA)) -> str:
    """Write the resolved ``sections``; rerunning from them reproduces the run."""
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        for key in _SCHEMA[section]:
            lines.append(f"{key} = {_format_value(cfg[section][key])}")
        lines.append("")
    path = os.path.join(out_dir, "resolved_config.ini")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return path


# -- shared pipeline pieces ---------------------------------------------------

def _load_book(cfg) -> AssetBook:
    path = cfg["data"]["universe_file"] or None
    if path is not None and not os.path.isfile(path):
        raise UsageError(f"universe file not found: {path}")
    try:
        return load_asset_book(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build(cls, section: str, cfg, **given):
    """A config dataclass from its section's keys; a bad value is a usage error."""
    try:
        return cls(**{f.name: cfg[section][f.name] for f in fields(cls)
                      if f.name not in given}, **given)
    except ValueError as exc:
        raise UsageError(f"[{section}] {exc}") from None


def _configs(cfg, book: AssetBook):
    """Every config dataclass a run uses, and the [data] and [backtest] checks,
    before any data work."""
    d = cfg["data"]
    if not 0.0 < d["train_frac"] < 1.0:
        raise UsageError("[data] train_frac must be strictly between 0 and 1")
    for key in ("window", "horizon", "train_stride"):
        if d[key] < 1:
            raise UsageError(f"[data] {key} must be >= 1, got {d[key]}")
    for name, build in _BASELINES.items():    # each rejects its own bad values
        try:
            build(cfg["backtest"])
        except ValueError as exc:
            raise UsageError(f"[backtest] {name}: {exc}") from None
    return (_build(RegimeConfig, "synthetic", cfg),
            _build(ModelConfig, "model", cfg, n_assets=len(book.tickers()),
                   window=d["window"]),
            _build(TrainConfig, "train", cfg),
            _build(LossWeights, "loss", cfg))


def _build_universe(cfg, book: AssetBook, regime: RegimeConfig) -> Universe:
    source = cfg["data"]["source"]
    if source == "synthetic":
        s = cfg["synthetic"]
        tickers = book.tickers()
        defensive = np.flatnonzero(book.defensive_mask(tickers)).tolist()
        try:
            return generate_synthetic(tickers, s["days"], s["seed"], regime, defensive)
        except ValueError as exc:       # raised on its arguments, before any draw
            raise UsageError(f"[synthetic] {exc}") from None
    if source == "csv":
        path = cfg["data"]["csv_path"]
        if not path:
            raise UsageError("[data] csv_path is required when source = csv")
        if not os.path.isfile(path):
            raise UsageError(f"data file not found: {path}")
        return load_csv(path, book.tickers())
    raise UsageError(f"[data] source must be 'synthetic' or 'csv', got {source!r}")


def _plan_windows(cfg, universe: Universe):
    """Chronological split: train windows at the training stride, test windows
    tiled at the horizon so holding periods are contiguous and non-overlapping.

    The boundary is a return-day index; train targets end on or before it and
    test targets start strictly after it, so no evaluated day was trained on.
    """
    d = cfg["data"]
    window, horizon = d["window"], d["horizon"]
    boundary = int(universe.n_return_days * d["train_frac"])
    try:
        strided = make_windows(universe, window, horizon, d["train_stride"])
        tiled = make_windows(universe, window, horizon, horizon)
    except ValueError as exc:           # a history too short for one window
        raise UsageError(str(exc)) from None
    train = [w for w in strided if w.end + horizon <= boundary]
    test = [w for w in tiled if w.end >= boundary]
    if not train:
        raise UsageError("train split is empty; raise train_frac or add data")
    if not test:
        raise UsageError("test split is empty; lower train_frac or add data")
    return train, test, boundary


def _prior(book: AssetBook, universe: Universe) -> PriorGraph:
    return build_prior(book.sector_map, book.region_map, universe.tickers)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower()).strip("_")


# -- commands -----------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    cfg["data"]["source"] = "synthetic"
    if args.seed is not None:
        cfg["synthetic"]["seed"] = args.seed
    book = _load_book(cfg)
    regime, *_ = _configs(cfg, book)     # checks every section, used or not
    universe = _build_universe(cfg, book, regime)
    out = _ensure_out(args.out)
    save_csv(universe, os.path.join(out, "universe.csv"))

    labels = "".join(f"{date},{'crisis' if reg else 'calm'}\n"
                     for date, reg in zip(universe.return_dates, universe.regimes))
    _write(os.path.join(out, "regimes.csv"), "date,regime\n" + labels)

    echo_config(cfg, out, _READS["synth"])
    crisis_days = int(universe.regimes.sum())
    print(f"wrote {universe.n_return_days} return days ({len(universe.dates)} closes) x "
          f"{universe.n_assets} tickers to {out}/universe.csv ({crisis_days} crisis days)")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.variant is not None:
        cfg["model"]["variant"] = args.variant
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed

    book = _load_book(cfg)
    regime, model_config, train_config, loss_weights = _configs(cfg, book)
    universe = _build_universe(cfg, book, regime)
    train_windows, _, boundary = _plan_windows(cfg, universe)
    prior = _prior(book, universe)

    result = train_on_universe(universe, book, prior, train_windows,
                               model_config, train_config, loss_weights)

    out = _ensure_out(args.out)
    save_checkpoint(result.checkpoint, os.path.join(out, "checkpoint.bin"))
    _write(os.path.join(out, "training_log.csv"), result.log_csv())
    echo_config(cfg, out, _READS["train"])

    epochs = len(result.log)
    print(f"trained on {len(train_windows)} windows (boundary day {boundary}); "
          f"{epochs} epochs, best val loss {result.checkpoint.best_val!r}")
    if result.stopped_early:
        print(f"early stop after {epochs} epochs")
    if result.diverged:
        print("warning: loss diverged; checkpoint holds the last finite state")
    print(f"wrote {out}/checkpoint.bin")
    return 0


def _build_strategies(cfg, book, universe, prior, checkpoint_path):
    names = [s.strip() for s in str(cfg["backtest"]["strategies"]).split(",")
             if s.strip()]
    known = ("crisp", *_BASELINES)
    unknown = [n for n in names if n not in known]
    if unknown:
        raise UsageError(f"unknown strategies {unknown} "
                         f"(known: {', '.join(known)})")

    ck = None
    if checkpoint_path is not None:
        if not os.path.isfile(checkpoint_path):
            raise UsageError(f"checkpoint not found: {checkpoint_path}")
        ck = load_checkpoint(checkpoint_path)

    strategies = []
    for name in names:
        if name != "crisp":
            strategies.append(_BASELINES[name](cfg["backtest"]))
        elif ck is None:
            print("no checkpoint given; running baselines only")
        else:
            strategies.append(crisp_strategy(ck, prior,
                                             book.defensive_mask(universe.tickers)))
    if not strategies:
        raise UsageError("no strategies left to run")
    return strategies


def cmd_backtest(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["backtest"]["random_seed"] = args.seed

    book = _load_book(cfg)
    regime, *_ = _configs(cfg, book)     # checks every section, used or not
    universe = _build_universe(cfg, book, regime)
    _, test_windows, boundary = _plan_windows(cfg, universe)
    prior = _prior(book, universe)
    strategies = _build_strategies(cfg, book, universe, prior, args.checkpoint)

    out = _ensure_out(args.out)
    summary: dict[str, object] = {
        "test_days": len(test_windows) * cfg["data"]["horizon"],
        "periods": len(test_windows),
        "boundary_day": boundary,
        "conventions": _conventions(cfg["data"]["horizon"]),
        "strategies": {},
    }
    for strat in strategies:
        report = run_backtest(strat, universe, test_windows)
        slug = _slug(report.strategy)
        _write(os.path.join(out, f"equity_{slug}.csv"), report.equity_csv())
        _write(os.path.join(out, f"weights_{slug}.csv"),
               report.weights_csv(universe.tickers))
        entry = asdict(report.metric_set)
        entry["infeasible_periods"] = report.infeasible_periods
        entry["fallback_events"] = len(strat.fallback_events)
        entry["fallback_texts"] = list(strat.fallback_events)
        summary["strategies"][report.strategy] = entry
        if report.attention:
            mask = book.defensive_mask(universe.tickers)
            _write(os.path.join(out, f"attention_{slug}.csv"),
                   telemetry_csv(report.attention))
            _write(os.path.join(out, f"attention_summary_{slug}.json"),
                   json.dumps(asdict(sparsity_report(report.attention, mask)),
                              indent=2, sort_keys=True) + "\n")
        m = report.metric_set
        print(f"{report.strategy}: sharpe {m.sharpe:.3f}, "
              f"ann return {m.ann_return:.3%}, max dd {m.max_drawdown:.3%}")

    _write(os.path.join(out, "metrics.json"),
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    echo_config(cfg, out, _READS["backtest"])
    print(f"wrote {out}/metrics.json")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    only = None
    if args.only is not None:
        if args.only not in ABLATION_NAMES:
            raise UsageError(f"unknown configuration {args.only!r} "
                             f"(known: {', '.join(ABLATION_NAMES)})")
        only = [args.only]

    book = _load_book(cfg)
    regime, model_config, train_config, loss_weights = _configs(cfg, book)
    if model_config.variant != "full":      # each row sets its own variant
        raise UsageError(f"[model] variant must be 'full' for ablate, "
                         f"got {model_config.variant!r}")
    universe = _build_universe(cfg, book, regime)
    train_windows, test_windows, _ = _plan_windows(cfg, universe)
    prior = _prior(book, universe)

    rows = ablation_suite(universe, book, prior, train_windows, test_windows,
                          train_config, model_config, loss_weights, only=only)

    out = _ensure_out(args.out)
    table = ablation_csv(rows)
    _write(os.path.join(out, "ablation.csv"), table)
    echo_config(cfg, out, _READS["ablate"])
    for name, ms in rows:
        print(f"{name}: sharpe {ms.sharpe:.3f}, max dd {ms.max_drawdown:.3%}")
    print(f"wrote {out}/ablation.csv")
    return 0


def cmd_features(args) -> int:
    text = roster_csv()
    if args.out is not None:
        out = _ensure_out(args.out)
        path = os.path.join(out, "features.csv")
        _write(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


# -- entry point --------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisp",
        description="Crisis-resilient portfolio pipeline: synthetic markets, "
                    "training, backtesting, ablations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="INI config file (all keys optional)")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, help="override the command's seed key")

    p = sub.add_parser("synth", help="generate a synthetic market CSV")
    common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train the allocation model")
    common(p)
    p.add_argument("--variant", help="model variant: " + ", ".join(VARIANTS))
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("backtest", help="run strategies on the test split")
    common(p)
    p.add_argument("--checkpoint", help="trained checkpoint; omit for baselines only")
    p.set_defaults(fn=cmd_backtest)

    p = sub.add_parser("ablate", help="run the component-ablation table")
    common(p)
    p.add_argument("--only", help="restrict to one named configuration")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("features", help="dump the feature roster")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(fn=cmd_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:       # noqa: BLE001 - single reporting point
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
