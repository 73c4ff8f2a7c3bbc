"""Weight head: softmax sharpening and the bounded-simplex projection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crisp.allocation import (
    TEMPERATURE,
    WEIGHT_CAP,
    WEIGHT_FLOOR,
    AllocationHead,
    PortfolioWeights,
    check_feasible_universe,
    project_constraints,
    project_constraints_tensor,
    score_to_weights,
)
from crisp.autodiff import ParameterBag, Tensor, no_grad, softmax

from _gradcheck import max_rel_error


def reference_projection(w):
    """The plain clip-and-mask projection, with no in-place clip or fast path.

    The oracle for the projection's bits: ``project_constraints`` must
    return exactly this array for every input, and raise where it raises.
    """
    w = np.asarray(w, dtype=np.float64).copy()
    check_feasible_universe(w.size)
    for _ in range(100):                    # a finite w needs at most N + 1 passes
        w = np.clip(w, WEIGHT_FLOOR, WEIGHT_CAP)
        s = w.sum()
        if abs(s - 1.0) <= 1e-9:              # never true of a NaN sum
            return w
        if s > 1.0:
            free = w > WEIGHT_FLOOR
        else:
            free = w < WEIGHT_CAP
        fixed_sum = w[~free].sum()
        w[free] *= (1.0 - fixed_sum) / w[free].sum()
    raise FloatingPointError(f"projection failed to converge: sum {s:.12f}")


def composed_projection(w):
    """The projection composed from autodiff ops, about 11 nodes per pass.

    The reference for the ``project`` node's forward and backward.  The
    free/fixed partition of each pass is a constant, so gradients flow
    through the clip pass-through and the renormalization arithmetic.
    """
    check_feasible_universe(w.shape[-1])
    for _ in range(100):
        w = w.clip(WEIGHT_FLOOR, WEIGHT_CAP)
        sums = w.data.sum(axis=-1, keepdims=True)
        if np.abs(sums - 1.0).max() <= 1e-9:
            return w
        over = sums > 1.0
        free = np.where(over, w.data > WEIGHT_FLOOR, w.data < WEIGHT_CAP)
        free &= np.abs(sums - 1.0) > 1e-9          # converged rows stay untouched
        free_t = Tensor(free.astype(np.float64))
        fixed_t = Tensor(1.0 - free_t.data)
        fixed_sum = (w * fixed_t).sum(axis=-1, keepdims=True)
        free_sum = (w * free_t).sum(axis=-1, keepdims=True)
        # guard only fully-fixed rows; their free part is zero anyway
        safe_free_sum = free_sum + Tensor((free_sum.data == 0.0).astype(np.float64))
        scale = (1.0 - fixed_sum) / safe_free_sum
        w = w * fixed_t + w * free_t * scale
    raise AssertionError("composed projection did not converge")


def graph_nodes(out):
    """Op nodes reachable from ``out``."""
    seen, stack, count = {id(out)}, [out], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def feasible(w, tol=1e-9):
    return (abs(w.sum() - 1.0) <= tol
            and (w >= WEIGHT_FLOOR - tol).all()
            and (w <= WEIGHT_CAP + tol).all())


def test_single_winner_example():
    # all mass on one asset: cap pins it at 0.25, the rest split 0.75 evenly
    w = project_constraints(np.array([1.0] + [0.0] * 12))
    assert np.isclose(w[0], WEIGHT_CAP, atol=1e-9)
    assert np.allclose(w[1:], 0.75 / 12, atol=1e-9)
    assert np.isclose(w[1:].sum(), 0.75, atol=1e-9)


def test_uniform_is_fixed_point():
    w = project_constraints(np.full(13, 1.0 / 13))
    assert np.allclose(w, 1.0 / 13, atol=1e-12)


def test_projection_feasibility_random(rng):
    for _ in range(500):
        n = int(rng.integers(5, 40))
        if n * WEIGHT_FLOOR > 1.0 or n * WEIGHT_CAP < 1.0:
            continue
        raw = rng.dirichlet(np.full(n, 0.3))
        w = project_constraints(raw)
        assert feasible(w)


def test_projection_idempotent(rng):
    for _ in range(200):
        raw = rng.dirichlet(np.full(13, 0.2))
        w = project_constraints(raw)
        again = project_constraints(w)
        assert np.allclose(w, again, atol=1e-9)


def test_projection_preserves_ordering(rng):
    raw = rng.dirichlet(np.full(13, 0.5))
    w = project_constraints(raw)
    order_raw = np.argsort(raw)
    assert (np.diff(w[order_raw]) >= -1e-12).all()


def test_infeasible_universe_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        project_constraints(np.full(60, 1.0 / 60))   # 60 * 0.02 = 1.2 > 1
    with pytest.raises(ValueError, match="infeasible"):
        check_feasible_universe(3)                    # 3 * 0.25 = 0.75 < 1
    check_feasible_universe(13)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=30),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_projection_feasibility_property(values, seed):
    n = len(values)
    if n * WEIGHT_FLOOR > 1.0 or n * WEIGHT_CAP < 1.0:
        return
    raw = np.asarray(values)
    total = raw.sum()
    raw = raw / total if total > 0 else np.full(n, 1.0 / n)
    w = project_constraints(raw)
    assert feasible(w)


_NEAR_UNIFORM = np.full(13, 1.0 / 13) + 1e-4 * np.sin(np.arange(13.0))
# one input per path through the projection's loop
_PATH_INPUTS = {
    "one_pass": np.full(13, 1.0 / 13),
    "all_free_above": 1.01 * _NEAR_UNIFORM,
    "all_free_below": 0.99 * _NEAR_UNIFORM,
    "cap_pinned": np.array([1.0] + [0.0] * 12),
    "floor_pinned": np.array([0.0] * 3 + [0.3] * 10),
    "several_passes": np.array([0.5, 0.24, 0.19] + [0.007] * 10),
}


@pytest.mark.parametrize("path", list(_PATH_INPUTS))
def test_projection_paths_match_the_reference_bitwise(path):
    x = _PATH_INPUTS[path]
    w = project_constraints(x)
    assert np.array_equal(w, reference_projection(x))
    if path == "one_pass":
        assert np.array_equal(w, x)
    elif path.startswith("all_free"):
        # one whole-vector rescale by 1 / s, then a pass that returns
        assert np.array_equal(w, x * (1.0 / x.sum()))
    else:
        assert ((w == WEIGHT_FLOOR) | (w == WEIGHT_CAP)).any()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-0.1, max_value=0.6), min_size=5, max_size=30),
       st.sampled_from([1e-3, 0.1, 1.0, 5.0]))
@example([0.3, 0.3, 0.2, 0.1, 0.1], 1.0)           # clipping alone makes it feasible
@example([0.19, 0.21, 0.2, 0.2, 0.2], 1.01)        # every coordinate free, sum above 1
@example([0.0, 0.0, 0.4, 0.3, 0.3], 1.0)           # floor and cap pinned, several passes
def test_projection_matches_the_reference_bitwise(values, scale):
    # entries fall below the floor and above the cap; the scale moves the
    # sum far from 1 or leaves it near, so every path of the loop is taken
    x = scale * np.asarray(values)
    assert np.array_equal(project_constraints(x), reference_projection(x))


def test_projection_matches_the_reference_on_softmax_rows():
    gen = np.random.default_rng(7)
    for _ in range(300):
        n = int(gen.integers(5, 31))
        scores = gen.uniform(0.01, 4.0) * gen.standard_normal(n)
        x = softmax(Tensor(scores), temperature=TEMPERATURE).data
        assert np.array_equal(project_constraints(x), reference_projection(x))


def test_tensor_projection_matches_numpy(rng):
    rows = []
    for _ in range(64):
        rows.append(rng.dirichlet(np.full(13, 0.25)))
    batch = np.stack(rows)
    out = project_constraints_tensor(Tensor(batch)).data
    for i, row in enumerate(rows):
        assert np.array_equal(out[i], project_constraints(row))


def bound_row(kind, gen, n=13):
    """A row summing to 1 whose clip hits the floor, the cap, both or neither."""
    row = gen.uniform(0.05, 0.09, n)
    pinned = np.zeros(n, dtype=bool)
    if kind in ("floor", "both"):
        row[:3], pinned[:3] = gen.uniform(0.0, 0.015, 3), True
    if kind in ("cap", "both"):
        row[-2:], pinned[-2:] = gen.uniform(0.26, 0.3, 2), True
    row[~pinned] *= (1.0 - row[pinned].sum()) / row[~pinned].sum()
    assert ((row < WEIGHT_FLOOR).any() == (kind in ("floor", "both"))
            and (row > WEIGHT_CAP).any() == (kind in ("cap", "both")))
    return row


_KINDS = ("floor", "cap", "both", "neither")


def check_against_composed(rows, gen):
    x = Tensor(rows, requires_grad=True)
    probe = Tensor(gen.standard_normal(rows.shape))
    out = project_constraints_tensor(x)
    (out * probe).sum().backward()
    ref_x = Tensor(rows, requires_grad=True)
    ref = composed_projection(ref_x)
    (ref * probe).sum().backward()
    assert np.abs(out.data - ref.data).max() <= 1e-15
    assert np.abs(x.grad - ref_x.grad).max() <= 1e-12
    return out


@pytest.mark.parametrize("kind", _KINDS)
def test_projection_node_matches_composed_single_row(kind):
    gen = np.random.default_rng(_KINDS.index(kind))
    rows = bound_row(kind, gen)[None, :]
    out = check_against_composed(rows, gen)
    # a row the clip leaves feasible is passed through untouched
    assert np.array_equal(out.data, rows) == (kind == "neither")


def test_projection_node_matches_composed_batch():
    gen = np.random.default_rng(16)
    for _ in range(20):
        rows = np.stack([bound_row(_KINDS[i % 4], gen) for i in range(16)])
        check_against_composed(rows, gen)


def test_projection_node_gradient_sweep():
    # softmax rows over random batch sizes and score scales, most renormalised
    gen = np.random.default_rng(0)
    for _ in range(200):
        b = int(gen.integers(1, 20))
        scores = gen.uniform(0.3, 6.0) * gen.standard_normal((b, 13))
        check_against_composed(softmax(Tensor(scores)).data, gen)


def test_projection_is_one_node_whatever_its_passes():
    # the first row's renormalisation lifts its second asset over the cap,
    # so it takes two renormalising passes
    rows = np.stack([np.array([0.5, 0.24, 0.19] + [0.007] * 10),
                     np.array([1.0] + [0.0] * 12)])
    x = Tensor(rows, requires_grad=True)
    out = project_constraints_tensor(x)
    assert out.op == "project" and out._parents == (x,)
    assert graph_nodes(out) == 1
    assert graph_nodes(composed_projection(Tensor(rows, requires_grad=True))) > 2 * 11
    check_against_composed(rows, np.random.default_rng(4))
    with no_grad():
        quiet = project_constraints_tensor(Tensor(rows, requires_grad=True))
    assert quiet._parents == () and quiet._backward is None
    assert np.array_equal(quiet.data, out.data)


def test_projection_rejects_nan():
    for bad in (np.full(13, np.nan), np.array([np.nan] + [1.0 / 12] * 12)):
        with pytest.raises(FloatingPointError, match="converge"):
            project_constraints(bad)
        with pytest.raises(FloatingPointError, match="converge"):
            reference_projection(bad)
    with pytest.raises(FloatingPointError, match="converge"):
        project_constraints_tensor(Tensor(np.full((2, 13), np.nan), requires_grad=True))


def test_tensor_projection_gradcheck(rng):
    from crisp.autodiff import softmax

    probe = Tensor(np.linspace(0.5, 1.5, 6).reshape(1, 6))

    def build(xs):
        z = softmax(xs[0], axis=-1, temperature=TEMPERATURE)
        return (project_constraints_tensor(z) * probe).sum()

    err = max_rel_error(build, [(1, 6)], rng, scale=1.0)
    assert err < 1e-5


def test_score_to_weights_pipeline(rng):
    scores = rng.standard_normal(13)
    pw = score_to_weights(scores, as_of_date="2024-03-07")
    assert pw.as_of_date == "2024-03-07"
    pw.validate()
    z = scores / TEMPERATURE
    e = np.exp(z - z.max())
    assert np.allclose(pw.weights, project_constraints(e / e.sum()), atol=1e-12)
    with pytest.raises(ValueError, match="finite"):
        score_to_weights(np.array([1.0, np.nan, 0.0] + [0.0] * 10))


def test_temperature_sharpens(rng):
    scores = rng.standard_normal(13)
    sharp = score_to_weights(scores, temperature=0.5).weights
    soft = score_to_weights(scores, temperature=5.0).weights
    assert sharp.max() >= soft.max() - 1e-12


def test_portfolio_weights_validation():
    good = PortfolioWeights(np.full(13, 1.0 / 13))
    good.validate()
    assert good.is_feasible()
    bad_sum = PortfolioWeights(np.full(13, 0.08))
    assert not bad_sum.is_feasible()
    with pytest.raises(ValueError, match="sum"):
        bad_sum.validate()
    bad = PortfolioWeights(np.concatenate([[0.3], np.full(12, 0.7 / 12)]))
    with pytest.raises(ValueError, match="outside"):
        bad.validate()
    nan = PortfolioWeights(np.full(13, np.nan))
    assert not nan.is_feasible()
    with pytest.raises(ValueError, match="sum"):
        nan.validate()


def head_inputs(rng, b, steps, n=13):
    """Temporal (B, T, N, 128) and spatial (B, N, 128) halves of the head input."""
    return (Tensor(0.3 * rng.standard_normal((b, steps, n, 128))),
            Tensor(0.3 * rng.standard_normal((b, n, 128))))


def test_allocation_head_emits_feasible_weights(rng):
    bag = ParameterBag()
    head = AllocationHead(bag, rng)
    assert "alloc.mlp_out.b" not in bag
    w = head(*head_inputs(rng, 2, 5), rng, training=False)
    assert w.shape == (2, 13)
    for row in w.data:
        assert feasible(row)


def test_allocation_head_mean_pool_variant(rng):
    bag = ParameterBag()
    head = AllocationHead(bag, rng, use_lstm=False)
    assert not any(name.startswith("alloc.lstm") for name in bag.names())
    temp, spat = head_inputs(rng, 1, 4)
    w = head(temp, spat, rng, training=False)
    assert feasible(w.data[0])
    # the time mean of the joined [temporal || spatial] sequence
    joined = np.concatenate([temp.data[0].mean(axis=0), spat.data[0]], axis=-1)
    want = joined @ bag["alloc.pool_proj.w"].data + bag["alloc.pool_proj.b"].data
    assert np.allclose(head.aggregate(temp, spat).data[0], want, atol=1e-12)


def test_allocation_head_dropout_only_in_training(rng):
    bag = ParameterBag()
    head = AllocationHead(bag, rng)
    temp, spat = head_inputs(rng, 1, 4)
    eval_a = head(temp, spat, np.random.default_rng(0), training=False).data
    eval_b = head(temp, spat, np.random.default_rng(99), training=False).data
    assert np.array_equal(eval_a, eval_b)
    train_a = head(temp, spat, np.random.default_rng(0), training=True).data
    train_b = head(temp, spat, np.random.default_rng(99), training=True).data
    assert not np.array_equal(train_a, train_b)


def test_aggregate_uses_final_lstm_state(rng):
    bag = ParameterBag()
    head = AllocationHead(bag, rng, in_dim=8, hidden=4)
    temp = 0.2 * rng.standard_normal((1, 3, 2, 5))
    spat = 0.2 * rng.standard_normal((1, 2, 3))
    agg = head.aggregate(Tensor(temp), Tensor(spat)).data

    from test_nn import reference_lstm

    # each asset's steps read the joined [temporal || spatial] input
    per_asset = np.concatenate(
        [np.transpose(temp, (0, 2, 1, 3)).reshape(2, 3, 5),
         np.broadcast_to(spat.reshape(2, 1, 3), (2, 3, 3))], axis=-1)
    h_all = reference_lstm(per_asset, head.lstm.wx.data, head.lstm.wh.data,
                           head.lstm.b.data)
    assert np.allclose(agg[0], h_all[:, -1, :], atol=1e-12)
