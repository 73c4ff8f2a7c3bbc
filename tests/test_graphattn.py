"""Learnable graph attention: edge scores, normalization, telemetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import asdict

from crisp.autodiff import ParameterBag, Tensor, matmul, softmax, uniform_init
from crisp.graphattn import (
    LEAKY_SLOPE,
    AttentionRecord,
    GatLayer,
    SparsityReport,
    attend,
    sparsity_report,
    telemetry_csv,
)

from _gradcheck import max_rel_error
from _reference import leaky_relu


def leaky(x, slope=0.2):
    return np.where(x >= 0.0, x, slope * x)


def manual_gat(z, ws, avs, slope=0.2):
    """Pair-loop oracle: per-head scores, softmax over destinations, mix."""
    n = z.shape[0]
    refined = []
    alphas = []
    for w, a in zip(ws, avs):
        wz = z @ w
        hd = w.shape[1]
        e = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                e[i, j] = leaky(a[:hd] @ wz[i] + a[hd:] @ wz[j], slope)
        ex = np.exp(e - e.max(axis=1, keepdims=True))
        alpha = ex / ex.sum(axis=1, keepdims=True)
        refined.append(alpha @ wz)
        alphas.append(alpha)
    return np.concatenate(refined, axis=1), alphas


def bin_counts(values):
    low = int((values < 0.1).sum())
    high = int((values > 0.3).sum())
    return {"low": low, "mid": int(values.size - low - high), "high": high}


def per_record_report(records, mask):
    """``sparsity_report`` as a per-record loop: each record's head-mean,
    bin counts and effective degrees, then the mean over records of
    count / edges.  The reference for the stacked aggregation; the
    ``binning`` note is left out."""
    heads, n, _ = records[0].per_head.shape
    edges = n * (n - 1)
    off = ~np.eye(n, dtype=bool)
    bins, head_bins, degrees = [], [], []
    for rec in records:
        mean = rec.per_head.mean(axis=0)
        bins.append(bin_counts(mean[off]))
        head_bins.append([bin_counts(h[off]) for h in rec.per_head])
        degrees.append(((mean >= 0.1) & off).sum(axis=1))
    keys = ("low", "mid", "high")
    degree = np.stack(degrees).mean(axis=0)
    return {
        "n_records": len(records),
        "n_assets": n,
        "bin_fractions": {k: float(np.mean([b[k] / edges for b in bins])) for k in keys},
        "per_head_bin_fractions": [
            {k: float(np.mean([hb[h][k] / edges for hb in head_bins])) for k in keys}
            for h in range(heads)],
        "mean_effective_degree": float(degree.mean()),
        "effective_degree_per_node": [float(d) for d in degree],
        "defensive_share": float(np.mean([r.cluster_share(mask) for r in records])),
    }


def report_fields(records, mask):
    """``sparsity_report`` as a dict without its ``binning`` note."""
    fields = asdict(sparsity_report(records, mask))
    del fields["binning"]
    return fields


def split_input(z):
    """Joined (N, 256) embeddings as the layer's (1, 1, N, 128) temporal and
    (1, N, 128) spatial halves."""
    n = z.shape[0]
    return Tensor(z[:, :128].reshape(1, 1, n, 128)), Tensor(z[:, 128:].reshape(1, n, 128))


def test_edge_scores_match_pair_loop(rng):
    n = 6
    bag = ParameterBag()
    gat = GatLayer(bag, rng, n_heads=4)
    z = rng.standard_normal((n, 256))
    refined, alphas = gat(*split_input(z))
    want_refined, want_alphas = manual_gat(
        z, np.split(gat.w.data, gat.n_heads, axis=1), list(gat.a.data))
    assert refined.shape == (1, 1, n, 128) and alphas.shape == (1, 1, 4, n, n)
    assert np.allclose(refined.data[0, 0], want_refined, atol=1e-10)
    for got, want in zip(alphas.data[0, 0], want_alphas):
        assert np.allclose(got, want, atol=1e-12)


def test_heads_live_in_two_joined_weights():
    bag = ParameterBag()
    gat = GatLayer(bag, np.random.default_rng(0), n_heads=4)
    assert bag.names() == ["gat.w", "gat.a"]
    # drawn head by head, every W_k before every a_k, then joined
    rng = np.random.default_rng(0)
    ws = [uniform_init(rng, 256, (256, 32)) for _ in range(4)]
    avs = [uniform_init(rng, 64, (64,)) for _ in range(4)]
    assert np.array_equal(gat.w.data, np.concatenate(ws, axis=1))
    assert np.array_equal(gat.a.data, np.stack(avs))
    # the forward reads the joined weights without re-joining heads
    refined, _ = gat(Tensor(np.ones((1, 1, 3, 128))), Tensor(np.ones((1, 3, 128))))
    ops, stack = set(), [refined]
    while stack:
        node = stack.pop()
        ops.add(node.op)
        stack.extend(node._parents)
    assert "concat" not in ops


def test_rows_normalize_including_self_edge(rng):
    bag = ParameterBag()
    gat = GatLayer(bag, rng)
    _, alphas = gat(*split_input(rng.standard_normal((5, 256))))
    for alpha in alphas.data[0, 0]:
        assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
        assert (alpha > 0.0).all()   # softmax keeps every candidate edge alive
        assert np.diag(alpha).sum() > 0.0


def test_batched_leading_axes_match_loop(rng):
    bag = ParameterBag()
    gat = GatLayer(bag, rng)
    temp = rng.standard_normal((2, 3, 4, 128))
    spat = rng.standard_normal((2, 4, 128))
    refined, alphas = gat(Tensor(temp), Tensor(spat))
    assert refined.shape == (2, 3, 4, 128)
    assert alphas.shape == (2, 3, 4, 4, 4)
    for b in range(2):
        for t in range(3):
            z = np.concatenate([temp[b, t], spat[b]], axis=-1)
            single, single_alphas = gat(*split_input(z))
            assert np.allclose(refined.data[b, t], single.data[0, 0], atol=1e-12)
            assert np.allclose(alphas.data[b, t], single_alphas.data[0, 0], atol=1e-12)


def test_single_asset_rejected(rng):
    bag = ParameterBag()
    gat = GatLayer(bag, rng)
    with pytest.raises(ValueError, match="2 assets"):
        gat(*split_input(np.zeros((1, 256))))


def test_gat_gradcheck(rng):
    bag = ParameterBag()
    gat = GatLayer(bag, rng, n_heads=2, in_dim=8)

    def build(xs):
        refined, _ = gat(xs[0], xs[1])
        return refined.sum()

    err = max_rel_error(build, [(1, 2, 3, 5), (1, 3, 3)], rng, scale=0.5)
    assert err < 1e-6


def composed_attend(wz, a):
    """``attend`` as the composed autodiff ops it replaces: score products,
    pair sum, LeakyReLU, softmax, then the mix and the head-joining layout."""
    b, steps, heads, n, hd = wz.shape
    a3 = a.reshape(heads, 1, 2 * hd)
    src = (wz * a3[:, :, :hd]).sum(axis=-1)
    dst = (wz * a3[:, :, hd:]).sum(axis=-1)
    e = src.reshape(b, steps, heads, n, 1) + dst.reshape(b, steps, heads, 1, n)
    alpha = softmax(leaky_relu(e, LEAKY_SLOPE), axis=-1)
    refined = matmul(alpha, wz).transpose((0, 1, 3, 2, 4))
    return refined.reshape(b, steps, n, heads * hd), alpha


# the last shape's (B, T, heads, N, N) arrays pass 256 KiB, where numpy
# starts reusing temporaries as outputs, which changes their memory layout
@pytest.mark.parametrize("shape", [(2, 3, 4, 13, 4), (1, 2, 1, 2, 3), (8, 10, 4, 13, 8)])
def test_attention_node_is_byte_identical_to_the_composed_ops(rng, shape):
    b, steps, heads, n, hd = shape
    wz_data = rng.standard_normal(shape)
    a_data = rng.standard_normal((heads, 2 * hd))
    probe = Tensor(rng.standard_normal((b, n, steps, heads * hd)))
    runs = []
    for fn in (attend, composed_attend):
        # wz enters through a transpose, as the layer feeds it
        leaf = Tensor(wz_data.transpose((0, 1, 3, 2, 4)).copy(), requires_grad=True)
        a = Tensor(a_data.copy(), requires_grad=True)
        refined, alpha = fn(leaf.transpose((0, 1, 3, 2, 4)), a)
        # in the model the node's gradient arrives in (B, N, T, width) memory
        # order; layouts decide the summation order of its reductions
        (refined.transpose((0, 2, 1, 3)) * probe).sum().backward()
        runs.append((refined.data, alpha.data, leaf.grad, a.grad))
    fused, composed = runs
    assert fused[0].shape == (b, steps, n, heads * hd)
    for got, want in zip(fused, composed):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_attention_is_one_node_with_constant_alphas(rng):
    wz = Tensor(rng.standard_normal((2, 3, 4, 5, 8)), requires_grad=True)
    a = Tensor(rng.standard_normal((4, 16)), requires_grad=True)
    refined, alpha = attend(wz, a)
    assert refined.op == "gat" and refined._parents == (wz, a)
    assert alpha._backward is None and not alpha.requires_grad


def test_attention_node_gradcheck(rng):
    def build(xs):
        refined, _ = attend(xs[0], xs[1])
        return (refined * refined).sum()

    err = max_rel_error(build, [(1, 2, 2, 4, 3), (2, 6)], rng, scale=0.7)
    assert err < 1e-6


def test_attention_record_binning():
    n = 4
    alpha = np.full((n, n), 0.05)
    alpha[0, 1] = 0.5
    alpha[1, 2] = 0.2
    np.fill_diagonal(alpha, 0.25)
    per_head = np.stack([alpha, alpha])
    rec = AttentionRecord.from_alphas("2024-01-05", per_head)
    rep = sparsity_report([rec], np.zeros(n, dtype=bool))
    # 12 off-diagonal: one high (0.5), one mid (0.2), rest low
    assert rep.bin_fractions == {"low": 10 / 12, "mid": 1 / 12, "high": 1 / 12}
    assert rep.per_head_bin_fractions == [rep.bin_fractions] * 2
    # mean >= 0.1 off-diagonal: edges (0,1) and (1,2)
    assert rep.effective_degree_per_node == [1.0, 1.0, 0.0, 0.0]


def test_attention_record_shape_validation():
    with pytest.raises(ValueError, match="heads"):
        AttentionRecord.from_alphas("d", np.zeros((3, 4)))
    with pytest.raises(ValueError):
        AttentionRecord.from_alphas("d", np.zeros((2, 3, 4)))


def test_156_candidate_edges_at_13_assets(rng):
    bag = ParameterBag()
    gat = GatLayer(bag, rng)
    _, alphas = gat(*split_input(rng.standard_normal((13, 256))))
    rec = AttentionRecord.from_alphas("d", alphas.data[0, 0])
    rep = sparsity_report([rec], np.zeros(13, dtype=bool))
    assert len(rep.per_head_bin_fractions) == 4
    for fractions in [rep.bin_fractions, *rep.per_head_bin_fractions]:
        counts = [round(f * 156) for f in fractions.values()]
        assert [c / 156 for c in counts] == list(fractions.values())
        assert sum(counts) == 156


def test_uniform_attention_is_all_low():
    n = 13
    uniform = np.full((n, n), 1.0 / n)      # 1/13 < 0.1
    rec = AttentionRecord.from_alphas("d", uniform[None, :, :])
    rep = sparsity_report([rec], np.zeros(n, dtype=bool))
    assert rep.bin_fractions == {"low": 1.0, "mid": 0.0, "high": 0.0}
    assert rep.effective_degree_per_node == [0.0] * n


def test_cluster_share_oracle():
    n = 4
    mean = np.arange(n * n, dtype=np.float64).reshape(n, n)
    rec = AttentionRecord.from_alphas("d", mean[None])
    mask = np.array([True, True, False, False])
    off = ~np.eye(n, dtype=bool)
    within = np.outer(mask, mask) & off
    want = mean[within].sum() / mean[off].sum()
    assert np.isclose(rec.cluster_share(mask), want, atol=1e-15)


def test_sparsity_report_aggregates(rng):
    n = 5
    records = []
    for day in range(3):
        per_head = rng.dirichlet(np.ones(n), size=(2, n))
        records.append(AttentionRecord.from_alphas(f"2024-01-{day + 1:02d}", per_head))
    mask = np.array([True, False, True, False, False])
    rep = sparsity_report(records, mask)
    assert rep.n_records == 3 and rep.n_assets == n
    assert np.isclose(sum(rep.bin_fractions.values()), 1.0, atol=1e-12)
    want_share = np.mean([r.cluster_share(mask) for r in records])
    assert np.isclose(rep.defensive_share, want_share, atol=1e-15)
    assert report_fields(records, mask) == per_record_report(records, mask)
    assert isinstance(asdict(rep)["bin_fractions"], dict)
    with pytest.raises(ValueError):
        sparsity_report([], mask)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 9), heads=st.integers(1, 4), n_records=st.integers(1, 6),
       tenths=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_sparsity_report_matches_per_record_loop(n, heads, n_records, tenths, seed):
    gen = np.random.default_rng(seed)
    shape = (n_records, heads, n)
    if tenths:   # rows of tenths put weights exactly on 0.1 and 0.3
        alphas = gen.multinomial(10, np.ones(n) / n, size=shape) / 10
    else:
        alphas = gen.dirichlet(np.ones(n), size=shape)
    records = [AttentionRecord.from_alphas(f"d{r}", alphas[r]) for r in range(n_records)]
    mask = gen.random(n) < 0.5
    assert report_fields(records, mask) == per_record_report(records, mask)


def test_telemetry_csv_row_count(rng):
    n, heads = 4, 2
    per_head = rng.dirichlet(np.ones(n), size=(heads, n))
    recs = [AttentionRecord.from_alphas("2024-02-01", per_head),
            AttentionRecord.from_alphas("2024-02-02", per_head)]
    text = telemetry_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "date,head,i,j,alpha"
    assert len(lines) == 1 + 2 * heads * n * (n - 1)
    assert lines[1].startswith("2024-02-01,0,0,1,")
