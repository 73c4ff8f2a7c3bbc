"""Correctness oracles, computed in plain numpy apart from the program.

Each check records a pass or a failure under a fixed name; a run is
correct only when every check it ran passed.  The constants below restate
the paper's conventions (loss blend, CVaR tail, turnover kernel, weight
bounds, annualization) rather than importing them from ``crisp``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

FLOOR, CAP = 0.02, 0.25
SHARPE, SORTINO, RISK, DIV, TURN = 0.4, 0.2, 0.3, 0.05, 0.05
CVAR_ALPHA = 0.05
TURN_TARGET, TURN_WIDTH = 0.02, 0.01
EPS = 1e-8
ANNUAL = 252
TOL = 1e-9

ALL_CHECKS = [
    "train.loss_oracle",
    "train.weights_feasible",
    "train.attention_rows",
    "walkforward.checkpoint_roundtrip",
    "walkforward.weights_feasible",
    "walkforward.attention_rows",
    "walkforward.backtest_oracle",
    "walkforward.features_oracle",
    "walkforward.causality",
    "baselines.weights_feasible",
    "baselines.backtest_oracle",
    "baselines.equal_weight_exact",
    "baselines.risk_parity_equal_contrib",
    "baselines.mv_beats_ew_utility",
    "baselines.causality",
]


class CheckLog:
    """Pass/fail tallies per check name; failures are echoed to stderr."""

    def __init__(self):
        self.passed = {name: 0 for name in ALL_CHECKS}
        self.failed = {name: 0 for name in ALL_CHECKS}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        if name not in self.passed:
            raise KeyError(f"unknown check {name!r}")
        if ok:
            self.passed[name] += 1
        else:
            self.failed[name] += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not any(self.failed.values())

    def summary(self) -> dict:
        return {name: {"passed": self.passed[name], "failed": self.failed[name]}
                for name in ALL_CHECKS}


def _close(a, b, rel: float = TOL) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


# -- weights and attention ----------------------------------------------------

def weights_feasible(log: CheckLog, name: str, rows: np.ndarray) -> None:
    w = np.atleast_2d(rows)
    ok = (np.abs(w.sum(axis=1) - 1.0) <= TOL).all() and (w >= FLOOR - TOL).all() \
        and (w <= CAP + TOL).all()
    log.record(name, bool(ok), f"sums {w.sum(axis=1).min()}..{w.sum(axis=1).max()}, "
                               f"range [{w.min()}, {w.max()}]")


def attention_rows(log: CheckLog, name: str, alphas: np.ndarray) -> None:
    sums = np.asarray(alphas).sum(axis=-1)
    ok = bool((np.abs(sums - 1.0) <= TOL).all() and (np.asarray(alphas) >= 0.0).all())
    log.record(name, ok, f"row sums off by up to {np.abs(sums - 1.0).max():.3g}")


# -- training loss --------------------------------------------------------------

def blended_loss(weights: np.ndarray, prev: np.ndarray, targets: np.ndarray) -> float:
    """The five-term training loss for (B, N) weights and (B, N, H) returns."""
    w = np.asarray(weights, dtype=np.float64)
    period = np.einsum("bn,bnh->bh", w, targets)          # (B, H) daily returns
    r = period.ravel()
    mean = r.mean()
    sharpe = -mean / (math.sqrt(((r - mean) ** 2).mean()) + EPS)
    sortino = -mean / (math.sqrt((np.minimum(r, 0.0) ** 2).mean()) + EPS)
    k = math.ceil(CVAR_ALPHA * r.size)
    cvar = -np.sort(r)[:k].mean()
    equity = np.cumprod(1.0 + period, axis=1)
    peaks = np.maximum.accumulate(np.concatenate(
        [np.ones((period.shape[0], 1)), equity], axis=1), axis=1)[:, 1:]
    maxdd = np.maximum(((peaks - equity) / peaks).max(axis=1), 0.0)
    risk = cvar + 0.5 * maxdd.mean()
    div = (w * np.log(w)).sum(axis=1).mean()
    turnover = np.abs(w - prev).sum(axis=1)
    turn = -np.exp(-((turnover - TURN_TARGET) ** 2) / TURN_WIDTH).mean()
    return SHARPE * sharpe + SORTINO * sortino + RISK * risk + DIV * div + TURN * turn


def loss_oracle(log: CheckLog, weights, prev, targets, program_loss: float) -> None:
    mine = blended_loss(weights, prev, targets)
    log.record("train.loss_oracle", _close(program_loss, mine),
               f"program {program_loss!r} vs oracle {mine!r}")


# -- backtest accounting --------------------------------------------------------

def backtest_oracle(log: CheckLog, name: str, report, windows) -> None:
    """Daily returns, equity, Sharpe, Sortino and drawdown from the weights."""
    daily = np.concatenate([pw.weights @ w.target for pw, w in zip(report.weights, windows)])
    equity = np.cumprod(1.0 + daily)
    std = daily.std(ddof=1)
    sharpe = math.sqrt(ANNUAL) * daily.mean() / (std + EPS)
    downside = math.sqrt((np.minimum(daily, 0.0) ** 2).mean())
    sortino = math.sqrt(ANNUAL) * daily.mean() / (downside + EPS)
    peaks = np.maximum.accumulate(np.concatenate([[1.0], equity]))[1:]
    mdd = (equity / peaks - 1.0).min()
    ms = report.metric_set
    ok = (len(report.weights) == len(windows)
          and _close(report.daily_returns, daily) and _close(report.equity, equity)
          and _close(ms.sharpe, sharpe) and _close(ms.sortino, sortino)
          and _close(ms.max_drawdown, mdd))
    log.record(name, ok, f"sharpe {ms.sharpe!r} vs {sharpe!r}, "
                         f"max drawdown {ms.max_drawdown!r} vs {mdd!r}")


# -- features -------------------------------------------------------------------

def features_oracle(log: CheckLog, features: np.ndarray, closes: np.ndarray,
                    end: int, window: int) -> None:
    """ret_mean_20, ret_std_20, momentum_20 and cum_return_20 from raw closes.

    ``closes`` is the (N, L) CSV price panel, so return day d is the move
    from close d to close d+1.  Needs end - window + 1 >= 40 so no window
    day reaches into the edge padding.
    """
    ok = True
    for t in range(window):
        d = end - window + 1 + t                       # return-day index
        r = closes[:, d - 18:d + 2] / closes[:, d - 19:d + 1] - 1.0   # 20 returns
        expect = np.stack([
            r.mean(axis=1),
            r.std(axis=1, ddof=1),
            closes[:, d + 1] / closes[:, d - 19] - 1.0,
            np.prod(1.0 + r, axis=1) - 1.0,
        ], axis=1)
        got = features[:, t, [0, 1, 9, 8]]
        ok = ok and _close(got, expect, rel=1e-10)
    log.record("walkforward.features_oracle", ok, f"window ending at {end}")


# -- baselines ------------------------------------------------------------------

def equal_weight_exact(log: CheckLog, rows: np.ndarray) -> None:
    n = rows.shape[1]
    log.record("baselines.equal_weight_exact", bool((rows == 1.0 / n).all()),
               "equal weight differs from 1/N")


def risk_parity_equal_contrib(log: CheckLog, raw: np.ndarray, cov: np.ndarray,
                              reported: np.ndarray) -> None:
    """Raw risk-parity weights equalize w_i (C w)_i; in-bound ones pass unchanged."""
    contrib = raw * (cov @ raw)
    equal = contrib.max() - contrib.min() <= 1e-6 * contrib.max()
    inside = (raw >= FLOOR).all() and (raw <= CAP).all()
    kept = np.array_equal(reported, raw) if inside else True
    log.record("baselines.risk_parity_equal_contrib", bool(equal and kept and
                                                           abs(raw.sum() - 1.0) <= TOL),
               f"contributions spread {contrib.max() - contrib.min():.3g}")


def mv_beats_ew_utility(log: CheckLog, w: np.ndarray, hist: np.ndarray,
                        risk_aversion: float) -> None:
    """Markowitz utility mu'w - lambda w'Sw of the chosen weights >= equal weight's."""
    n = hist.shape[0]
    mu = hist.mean(axis=1)
    centered = hist - mu[:, None]
    sigma = centered @ centered.T / (hist.shape[1] - 1) + 1e-6 * np.eye(n)
    ew = np.full(n, 1.0 / n)

    def utility(x):
        return mu @ x - risk_aversion * x @ sigma @ x
    log.record("baselines.mv_beats_ew_utility", bool(utility(w) >= utility(ew) - 1e-15),
               f"utility {utility(w)!r} < equal weight {utility(ew)!r}")
