"""The three benchmark workloads: set-up, one timed round, checks, metrics.

Every workload runs whole rounds of identical operations, so the share of
failed operations does not depend on the seed or the run length.  The seed
only changes the generated market; the program sees nothing but those
inputs.  Calls into ``crisp`` go through module attributes (``data.load_csv``
rather than a bound name) so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from crisp import backtest, data, features, spatial, training, universe
from crisp.model import CrispModel, ModelConfig

import checks

# criterion 9's market: frequent, long, deep crises
CRISIS_REGIMES = data.RegimeConfig(
    p_calm_to_crisis=0.04, p_crisis_to_calm=0.08, calm_vol=0.01, crisis_vol=0.04,
    calm_corr=0.2, crisis_corr=0.8, calm_mean=0.0005, crisis_mean=-0.003,
    defensive_vol_factor=0.3)
WINDOW, HORIZON = 20, 5
BATCH = 16
LOOKBACK = 252          # mean-variance and risk-parity history


@dataclass
class Round:
    """One round's work: operations, throughput, per-operation latency, outputs."""

    ops: int
    failed: int
    rate: float                     # throughput over the round's timed part
    latencies: list[float] = field(default_factory=list)     # seconds
    outputs: list = field(default_factory=list)


def _book():
    book = universe.load_asset_book()
    tickers = book.tickers()
    mask = book.defensive_mask(tickers)
    prior = spatial.build_prior(book.sector_map, book.region_map, tickers)
    return tickers, mask, prior


def _spread(items: list, count: int) -> list:
    """``count`` evenly spaced picks (repeats only if fewer items exist)."""
    idx = np.linspace(0, len(items) - 1, count).round().astype(int)
    return [items[i] for i in idx]


def _clock(strategy) -> list[float]:
    """Stamp perf_counter as run_backtest enters each rebalance's weight rule."""
    stamps: list[float] = []
    inner = strategy.weight_fn

    def weight_fn(u, end, prev):
        stamps.append(perf_counter())
        return inner(u, end, prev)

    strategy.weight_fn = weight_fn
    return stamps


def _timed_backtest(strategy, u, windows, tracer, span: str):
    if tracer is not None:
        tracer.wrap_strategy(strategy, span)
    stamps = _clock(strategy)
    t0 = perf_counter()
    report = backtest.run_backtest(strategy, u, windows)
    t1 = perf_counter()
    per_rebalance = np.diff(np.array(stamps + [t1])).tolist()
    return report, t1 - t0, per_rebalance, len(strategy.fallback_events)


def _tampered(u: data.Universe, end: int, price_offset: int) -> data.Universe:
    """Copy of ``u`` with every price, volume and return after ``end`` changed."""
    cut = end + 1 + price_offset
    gen = np.random.default_rng(123)
    closes = u.closes.copy()
    closes[:, cut:] = closes[:, cut:] * 1.7 + 3.1
    volumes = u.volumes.copy()
    volumes[:, cut:] = volumes[:, cut:][:, ::-1] * 2.0
    returns = u.returns.copy()
    returns[:, end + 1:] = 0.05 * gen.standard_normal(returns[:, end + 1:].shape)
    return dataclasses.replace(u, closes=closes, volumes=volumes, returns=returns)


# -- train ----------------------------------------------------------------------

class Train:
    """``training.train`` on crisis-heavy windows, plus separately timed steps."""

    def __init__(self, smoke: bool):
        self.days = 1500
        self.n_crisis, self.n_calm = (24, 16) if smoke else (48, 32)
        self.epochs = 1 if smoke else 2
        self.steps = 1 if smoke else 3          # separately timed steps per round
        self.val_fraction = 0.2

    def setup(self, seed: int):
        tickers, mask, prior = _book()
        didx = [i for i, flag in enumerate(mask) if flag]
        u = data.generate_synthetic(tickers, self.days, seed=seed,
                                    config=CRISIS_REGIMES, defensive_indices=didx)
        inventory = data.make_windows(u, WINDOW, HORIZON, 3)
        boundary = int(self.days * 0.7)
        span = [w for w in inventory if w.end + HORIZON <= boundary]
        windows = sorted(_spread([w for w in span if w.regime == 1], self.n_crisis)
                         + _spread([w for w in span if w.regime == 0], self.n_calm),
                         key=lambda w: w.end)
        backtest.attach_features(u, windows, np.array(mask, dtype=np.float64))
        # the timed steps see the same normalized inputs train() builds
        n_fit = len(windows) - max(1, round(self.val_fraction * len(windows)))
        fit = windows[:n_fit]
        normalizer = features.FeatureNormalizer().fit([w.features for w in fit])
        return {
            "seed": seed, "prior": prior.normalized, "windows": windows,
            "x": normalizer.transform(np.stack([w.features for w in fit])),
            "y": np.stack([w.target for w in fit]),
            "config": training.TrainConfig(
                learning_rate=1e-3, lr_min=5e-4, batch_size=BATCH,
                max_epochs=self.epochs, patience=11,
                val_fraction=self.val_fraction, seed=seed),
        }

    def _step(self, state, model, adam, rng, idx):
        """One step as train() takes it: forward, loss, backward, clip, Adam."""
        x, y = state["x"][idx], state["y"][idx]
        n = y.shape[1]
        prev = np.full((len(idx), n), 1.0 / n)
        model.zero_grads()
        weights, alphas = model.forward(x, state["prior"], rng, training=True)
        loss = training.loss_from_batch(weights, prev, y)
        if not np.isfinite(loss.data):
            return None
        loss.backward()
        params = model.parameters()
        training.clip_gradients(params, state["config"].clip_norm)
        training.adam_step(params, adam, state["config"].learning_rate)
        return weights.data.copy(), prev, y, float(loss.data), alphas

    def _step_model(self, state):
        model = CrispModel(ModelConfig(init_seed=state["seed"]))
        return model, training.AdamState.for_model(model), np.random.default_rng(state["seed"])

    def prepare_op(self, state):
        """One training step on a fresh model, ready to call."""
        model, adam, rng = self._step_model(state)
        return lambda: self._step(state, model, adam, rng, np.arange(BATCH))

    def run_round(self, state, tracer) -> Round:
        cfg = state["config"]
        model = CrispModel(ModelConfig(init_seed=state["seed"]))
        t0 = perf_counter()
        result = training.train(model, state["windows"], state["prior"], cfg)
        train_s = perf_counter() - t0
        n_fit = len(state["x"])
        train_steps = self.epochs * math.ceil(n_fit / BATCH)
        failed = train_steps if result.diverged else 0

        model, adam, rng = self._step_model(state)
        step_s, outputs = [], []
        for _ in range(self.steps):
            idx = rng.choice(n_fit, BATCH, replace=False)
            t0 = perf_counter()
            out = self._step(state, model, adam, rng, idx)
            step_s.append(perf_counter() - t0)
            if out is None:
                failed += 1
            else:
                outputs.append(out)
        return Round(ops=train_steps + self.steps, failed=failed,
                     rate=n_fit * self.epochs / train_s, latencies=step_s,
                     outputs=outputs)

    def cleanup(self, state) -> None:
        pass

    def check(self, state, rounds: list[Round], log: checks.CheckLog) -> None:
        for r in rounds:
            for weights, prev, targets, loss, alphas in r.outputs:
                checks.loss_oracle(log, weights, prev, targets, loss)
                checks.weights_feasible(log, "train.weights_feasible", weights)
                checks.attention_rows(log, "train.attention_rows", alphas)


# -- walkforward ----------------------------------------------------------------

class Walkforward:
    """``crisp_strategy`` from a CSV universe and a reloaded checkpoint."""

    def __init__(self, smoke: bool, workdir: str):
        self.rebalances = 6 if smoke else 120
        self.fit_days = 300            # normalizer statistics come from here
        self.days = self.fit_days + HORIZON * self.rebalances + 40
        self.workdir = workdir

    def setup(self, seed: int):
        tickers, mask, prior = _book()
        didx = [i for i, flag in enumerate(mask) if flag]
        synthetic = data.generate_synthetic(tickers, self.days, seed=seed,
                                            config=CRISIS_REGIMES, defensive_indices=didx)
        stem = os.path.join(self.workdir, f"walkforward_{os.getpid()}")
        csv_path = stem + ".csv"
        with open(csv_path, "w") as fh:
            fh.write("date,ticker,close,volume\n")
            for j, day in enumerate(synthetic.dates):
                for i, t in enumerate(tickers):
                    fh.write(f"{day},{t},{float(synthetic.closes[i, j])!r},"
                             f"{float(synthetic.volumes[i, j])!r}\n")
        u = data.load_csv(csv_path, tickers)
        windows = data.make_windows(u, WINDOW, HORIZON, HORIZON)
        fit = [w for w in windows if w.end + HORIZON <= self.fit_days]
        test = [w for w in windows if w.end >= self.fit_days][:self.rebalances]
        if len(test) != self.rebalances:
            raise RuntimeError(f"walkforward span holds {len(test)} rebalances")
        defensive = np.array(mask, dtype=np.float64)
        backtest.attach_features(u, fit, defensive)
        normalizer = features.FeatureNormalizer().fit([w.features for w in fit]).state()

        # untrained parameters: the workload times inference, not skill
        model = CrispModel(ModelConfig(init_seed=seed))
        params = model.state()
        zeros = {k: np.zeros_like(v) for k, v in params.items()}
        written = training.Checkpoint(
            model_config=model.config, best_params=params,
            last_params={k: v.copy() for k, v in params.items()},
            adam_m=zeros, adam_v={k: v.copy() for k, v in zeros.items()}, adam_t=0,
            epoch=0, best_val=None, bad_epochs=0,
            rng_state=np.random.default_rng(seed).bit_generator.state,
            normalizer={"normalizer.mean": normalizer["mean"],
                        "normalizer.std": normalizer["std"]})
        ck_path = stem + ".ckpt"
        training.save_checkpoint(written, ck_path)
        loaded = training.load_checkpoint(ck_path)
        return {"u": u, "test": test, "prior": prior, "defensive": defensive,
                "written": written, "loaded": loaded, "ck_path": ck_path,
                "csv_path": csv_path, "checkpoint_bytes": os.path.getsize(ck_path)}

    def _strategy(self, state):
        return backtest.crisp_strategy(state["loaded"], state["prior"], state["defensive"])

    def prepare_op(self, state):
        """One rebalance's weight computation, ready to call."""
        strat = self._strategy(state)
        u, end = state["u"], state["test"][0].end
        prev = np.full(u.n_assets, 1.0 / u.n_assets)
        return lambda: strat.weight_fn(u, end, prev.copy())

    def run_round(self, state, tracer) -> Round:
        report, busy, per_rebalance, failed = _timed_backtest(
            self._strategy(state), state["u"], state["test"], tracer,
            "backtest.crisp_weight")
        return Round(ops=len(state["test"]), failed=failed,
                     rate=len(state["test"]) / busy, latencies=per_rebalance,
                     outputs=[report])

    def check(self, state, rounds: list[Round], log: checks.CheckLog) -> None:
        u, test = state["u"], state["test"]
        self._check_checkpoint(state, log)
        for r in rounds:
            report = r.outputs[0]
            checks.weights_feasible(log, "walkforward.weights_feasible",
                                    np.stack([pw.weights for pw in report.weights]))
            checks.attention_rows(log, "walkforward.attention_rows",
                                  np.stack([rec.per_head for rec in report.attention]))
            checks.backtest_oracle(log, "walkforward.backtest_oracle", report, test)
        p_pad, v_pad, m_pad = u.padded_inputs(features.PAD)
        for w in _spread(test, 4):
            lo, hi = w.start, w.start + features.PAD + WINDOW
            feats = backtest.compute_features(p_pad[:, lo:hi], v_pad[:, lo:hi],
                                              m_pad[lo:hi], defensive=state["defensive"])
            checks.features_oracle(log, feats, u.closes, w.end, WINDOW)
        e = test[len(test) // 2].end
        prev = np.full(u.n_assets, 1.0 / u.n_assets)
        before = self._strategy(state).weight_fn(u, e, prev.copy()).weights
        after = self._strategy(state).weight_fn(_tampered(u, e, 1), e, prev.copy()).weights
        log.record("walkforward.causality", np.array_equal(before, after),
                   f"weights at index {e} moved after later data changed")

    def _check_checkpoint(self, state, log: checks.CheckLog) -> None:
        a, b = state["written"], state["loaded"]
        tables = ("best_params", "last_params", "adam_m", "adam_v", "normalizer")
        same = all(
            getattr(a, t).keys() == getattr(b, t).keys()
            and all(getattr(a, t)[k].tobytes() == getattr(b, t)[k].tobytes()
                    and getattr(a, t)[k].shape == getattr(b, t)[k].shape
                    for k in getattr(a, t))
            for t in tables)
        same = same and all(getattr(a, f) == getattr(b, f) for f in (
            "model_config", "adam_t", "epoch", "best_val", "bad_epochs", "diverged"))
        resaved = state["ck_path"] + ".again"
        training.save_checkpoint(b, resaved)
        with open(state["ck_path"], "rb") as f1, open(resaved, "rb") as f2:
            same = same and f1.read() == f2.read()
        os.remove(resaved)
        log.record("walkforward.checkpoint_roundtrip", same,
                   "checkpoint changed across save/load")

    def cleanup(self, state) -> None:
        for path in (state["ck_path"], state["csv_path"]):
            if os.path.exists(path):
                os.remove(path)


# -- baselines ------------------------------------------------------------------

class Baselines:
    """Equal weight, mean-variance and risk parity past their lookback."""

    def __init__(self, smoke: bool):
        self.rebalances = 6 if smoke else 100
        self.days = LOOKBACK + HORIZON * self.rebalances + 40

    def setup(self, seed: int):
        tickers, mask, _ = _book()
        didx = [i for i, flag in enumerate(mask) if flag]
        u = data.generate_synthetic(tickers, self.days, seed=seed,
                                    config=CRISIS_REGIMES, defensive_indices=didx)
        windows = data.make_windows(u, WINDOW, HORIZON, HORIZON)
        test = [w for w in windows if w.end + 1 >= LOOKBACK][:self.rebalances]
        if len(test) != self.rebalances:
            raise RuntimeError(f"baseline span holds {len(test)} rebalances")
        return {"u": u, "test": test}

    @staticmethod
    def _strategies():
        return [("ew", backtest.equal_weight()),
                ("mv", backtest.mean_variance(lookback=LOOKBACK)),
                ("rp", backtest.risk_parity(lookback=LOOKBACK))]

    def prepare_op(self, state):
        """One rebalance date's weights under all three rules, ready to call."""
        strategies = self._strategies()
        u, end = state["u"], state["test"][0].end
        prev = np.full(u.n_assets, 1.0 / u.n_assets)
        return lambda: [s.weight_fn(u, end, prev.copy()) for _, s in strategies]

    def run_round(self, state, tracer) -> Round:
        """Each rule walks the span; a date's latency sums its three rebalances."""
        reports = {}
        busy = 0.0
        failed = 0
        per_date = np.zeros(len(state["test"]))
        for label, strat in self._strategies():
            report, dt, per_rebalance, bad = _timed_backtest(
                strat, state["u"], state["test"], tracer, f"backtest.{label}_weight")
            busy += dt
            failed += bad
            per_date += per_rebalance
            reports[label] = report
        ops = 3 * len(state["test"])
        return Round(ops=ops, failed=failed, rate=ops / busy,
                     latencies=per_date.tolist(), outputs=[reports])

    def cleanup(self, state) -> None:
        pass

    def check(self, state, rounds: list[Round], log: checks.CheckLog) -> None:
        u, test = state["u"], state["test"]
        for k, r in enumerate(rounds):
            reports = r.outputs[0]
            for label, report in reports.items():
                w = np.stack([pw.weights for pw in report.weights])
                checks.weights_feasible(log, "baselines.weights_feasible", w)
                checks.backtest_oracle(log, "baselines.backtest_oracle", report, test)
            checks.equal_weight_exact(log, np.stack([pw.weights for pw in reports["ew"].weights]))
            for pw, win in zip(reports["mv"].weights, test):
                hist = u.returns[:, win.end + 1 - LOOKBACK:win.end + 1]
                checks.mv_beats_ew_utility(log, pw.weights, hist, 1.0)
            if k == 0:
                for pw, win in zip(reports["rp"].weights, test):
                    cov = np.cov(u.returns[:, win.end + 1 - LOOKBACK:win.end + 1])
                    raw = backtest.risk_parity_weights(cov)
                    checks.risk_parity_equal_contrib(log, raw, cov, pw.weights)
        e = test[len(test) // 2].end
        prev = np.full(u.n_assets, 1.0 / u.n_assets)
        tampered = _tampered(u, e, 0)
        for label, strat in self._strategies():
            before = strat.weight_fn(u, e, prev.copy()).weights
            after = strat.weight_fn(tampered, e, prev.copy()).weights
            log.record("baselines.causality", np.array_equal(before, after),
                       f"{label} weights at index {e} moved after later data changed")

