"""Loss terms and evaluation metrics against brute-force oracles."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from crisp.autodiff import Tensor
from crisp.objectives import (
    EPS,
    LossWeights,
    l_div,
    l_risk,
    l_sharpe,
    l_sortino,
    l_turn,
    loss_from_batch,
    max_drawdown_curve,
    metrics,
)

from _gradcheck import max_rel_error


def batch(rng, b, n=13, h=5):
    """(weights, previous weights, asset returns) for b holding periods."""
    w = np.clip(rng.dirichlet(np.full(n, 5.0), size=b), 0.02, 0.25)
    w = w / w.sum(axis=1, keepdims=True)
    prev = np.full((b, n), 1.0 / n)
    rets = 0.02 * rng.standard_normal((b, n, h))
    return w, prev, rets


# -- fixed-point checks -------------------------------------------------------

def test_turnover_at_target_scores_minus_one():
    w_old = np.full((1, 13), 1.0 / 13)
    w_new = w_old.copy()
    w_new[0, 0] += 0.01
    w_new[0, 1] -= 0.01          # sum |dw| = 0.02 exactly
    val = l_turn(Tensor(w_new), Tensor(w_old)).data
    assert np.isclose(val, -1.0, atol=1e-12, rtol=0)


def test_diversification_uniform_is_minus_log_n():
    w = Tensor(np.full((1, 13), 1.0 / 13))
    assert np.isclose(l_div(w).data, -math.log(13), atol=1e-12, rtol=0)


def test_diversification_ordering(rng):
    uniform = Tensor(np.full((1, 13), 1.0 / 13))
    spiky = project(np.array([0.25, 0.25, 0.25] + [0.02] * 10))
    assert l_div(uniform).data < l_div(Tensor(spiky[None])).data


def project(w):
    from crisp.allocation import project_constraints
    return project_constraints(w)


# -- brute force oracles ------------------------------------------------------

def test_sharpe_term_oracle(rng):
    r = 0.01 * rng.standard_normal(40)
    got = l_sharpe(Tensor(r)).data
    want = -r.mean() / (r.std(ddof=0) + EPS)
    assert np.isclose(got, want, atol=1e-12, rtol=0)


def test_sortino_term_oracle(rng):
    r = 0.01 * rng.standard_normal(60)
    downside = np.sqrt(np.mean(np.minimum(r, 0.0) ** 2))
    want = -r.mean() / (downside + EPS)
    assert np.isclose(l_sortino(Tensor(r)).data, want, atol=1e-12, rtol=0)


def test_risk_term_oracle(rng):
    b, h = 7, 5
    period = 0.02 * rng.standard_normal((b, h))
    pooled = period.ravel()
    k = math.ceil(0.05 * pooled.size)
    cvar = -np.sort(pooled)[:k].mean()

    dds = []
    for row in period:
        equity = np.cumprod(1.0 + row)
        peak = np.maximum.accumulate(np.concatenate(([1.0], equity)))[1:]
        dds.append(((peak - equity) / peak).max())
    want = cvar + 0.5 * np.mean(dds)
    assert np.isclose(l_risk(Tensor(period)).data, want, atol=1e-12, rtol=0)


def test_turnover_kernel_oracle(rng):
    w_old = rng.dirichlet(np.ones(13), size=4)
    w_new = rng.dirichlet(np.ones(13), size=4)
    got = l_turn(Tensor(w_new), Tensor(w_old)).data
    turn = np.abs(w_new - w_old).sum(axis=1)
    want = -np.mean(np.exp(-((turn - 0.02) ** 2) / 0.01))
    assert np.isclose(got, want, atol=1e-12, rtol=0)


def test_weighted_sum_composition(rng):
    weights, prev, rets = batch(rng, 6)
    lw = LossWeights()
    total = loss_from_batch(Tensor(weights), prev, rets, lw).data

    period = np.einsum("bn,bnh->bh", weights, rets)
    pooled = period.ravel()

    sharpe = -pooled.mean() / (pooled.std(ddof=0) + EPS)
    downside = np.sqrt(np.mean(np.minimum(pooled, 0.0) ** 2))
    sortino = -pooled.mean() / (downside + EPS)
    k = math.ceil(0.05 * pooled.size)
    cvar = -np.sort(pooled)[:k].mean()
    dds = []
    for row in period:
        eq = np.cumprod(1.0 + row)
        pk = np.maximum.accumulate(np.concatenate(([1.0], eq)))[1:]
        dds.append(((pk - eq) / pk).max())
    risk = cvar + 0.5 * np.mean(dds)
    div = np.mean((weights * np.log(weights)).sum(axis=1))
    turn = np.abs(weights - prev).sum(axis=1)
    tkernel = -np.mean(np.exp(-((turn - 0.02) ** 2) / 0.01))

    want = 0.4 * sharpe + 0.2 * sortino + 0.3 * risk + 0.05 * div + 0.05 * tkernel
    assert np.isclose(total, want, atol=1e-12, rtol=0)


def test_loss_weights_override(rng):
    weights, prev, rets = batch(rng, 3)
    lw = LossWeights(sharpe=1.0, sortino=0.0, risk=0.0, diversification=0.0,
                     turnover=0.0)
    total = loss_from_batch(Tensor(weights), prev, rets, lw).data
    pooled = np.einsum("bn,bnh->bh", weights, rets).ravel()
    want = -pooled.mean() / (pooled.std(ddof=0) + EPS)
    assert np.isclose(total, want, atol=1e-12, rtol=0)
    with pytest.raises(ValueError, match="non-negative"):
        LossWeights(sharpe=-0.1)


def test_zero_variance_batch_stays_finite():
    w = Tensor(np.full((2, 13), 1.0 / 13), requires_grad=True)
    rets = np.zeros((2, 13, 5))
    prev = np.full((2, 13), 1.0 / 13)
    total = loss_from_batch(w, prev, rets)
    assert np.isfinite(total.data)
    total.backward()
    assert np.isfinite(w.grad).all()


def test_full_loss_gradcheck(rng):
    prev = np.full((3, 6), 1.0 / 6)
    rets = 0.02 * rng.standard_normal((3, 6, 4))

    def build(xs):
        from crisp.autodiff import softmax
        w = softmax(xs[0], axis=-1)
        return loss_from_batch(w, prev, rets)

    err = max_rel_error(build, [(3, 6)], rng, scale=0.5)
    assert err < 1e-5


def test_shape_mismatch_rejected(rng):
    w = Tensor(np.full((2, 13), 1.0 / 13))
    with pytest.raises(ValueError, match="match"):
        loss_from_batch(w, np.full((2, 13), 1.0 / 13),
                        np.zeros((2, 12, 5)))


# -- evaluation metrics -------------------------------------------------------

def test_metrics_oracle_random(rng):
    for _ in range(200):
        d = int(rng.integers(2, 300))
        r = 0.02 * rng.standard_normal(d)
        m = metrics(r, avg_turnover=0.123)

        mean = r.mean()
        std = r.std(ddof=1)
        downside = np.sqrt(np.mean(np.minimum(r, 0.0) ** 2))
        root = np.sqrt(252.0)
        equity = np.cumprod(1.0 + r)
        peaks = np.maximum.accumulate(np.concatenate(([1.0], equity)))[1:]
        mdd = (equity / peaks - 1.0).min()
        growth = float(np.prod(1.0 + r))
        ann_ret = growth ** (252.0 / d) - 1.0 if growth > 0 else -1.0

        assert np.isclose(m.sharpe, root * mean / (std + EPS), atol=1e-12, rtol=0)
        assert np.isclose(m.sortino, root * mean / (downside + EPS), atol=1e-12, rtol=0)
        assert np.isclose(m.ann_return, ann_ret, atol=1e-12, rtol=0)
        assert np.isclose(m.ann_vol, root * std, atol=1e-12, rtol=0)
        assert np.isclose(m.max_drawdown, mdd, atol=1e-12, rtol=0)
        assert m.max_drawdown <= 0.0
        assert np.isclose(m.calmar, ann_ret / (abs(mdd) + EPS), atol=1e-10, rtol=0)
        assert m.avg_turnover == 0.123


def test_metrics_keys_complete():
    d = asdict(metrics(np.array([0.01, -0.005, 0.002])))
    assert sorted(d) == ["ann_return", "ann_vol", "avg_turnover", "calmar",
                         "max_drawdown", "sharpe", "sortino"]
    with pytest.raises(ValueError):
        metrics(np.array([]))


def test_max_drawdown_hand_case():
    # curve: 1.1, 0.99, 1.188; trough 0.99 against peak 1.1
    r = np.array([0.1, -0.1, 0.2])
    assert np.isclose(max_drawdown_curve(r), 0.99 / 1.1 - 1.0, atol=1e-15, rtol=0)
    assert max_drawdown_curve(np.array([0.05, 0.01])) == 0.0
    # first-day loss counts against the starting point
    assert np.isclose(max_drawdown_curve(np.array([-0.2, 0.1])), -0.2, atol=1e-15, rtol=0)


def test_monotone_returns_have_zero_drawdown(rng):
    r = np.abs(0.01 * rng.standard_normal(50))
    assert max_drawdown_curve(r) == 0.0


def test_loss_gradient_reaches_weights(rng):
    weights, prev, rets = batch(rng, 4)
    w = Tensor(weights, requires_grad=True)
    loss_from_batch(w, prev, rets).backward()
    assert w.grad is not None and np.abs(w.grad).max() > 0.0
