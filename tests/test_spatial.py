"""Prior graph construction and the graph-convolution encoder."""

import numpy as np
import pytest

from crisp.autodiff import ParameterBag, Tensor
from crisp.spatial import (
    PriorGraph,
    SpatialEncoder,
    build_prior,
    correlation_adjacency,
    normalize_adjacency,
)

from _gradcheck import max_rel_error


def test_normalize_adjacency_hand_case():
    # path graph 0-1-2: degrees with self-loops are 2, 3, 2
    a = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0]])
    norm = normalize_adjacency(a)
    expected = np.array([
        [1 / 2, 1 / np.sqrt(6), 0.0],
        [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
        [0.0, 1 / np.sqrt(6), 1 / 2],
    ])
    assert np.allclose(norm, expected, atol=1e-15)
    assert np.allclose(norm, norm.T, atol=0)


def test_normalize_isolated_node_is_identity_row():
    a = np.zeros((4, 4))
    norm = normalize_adjacency(a)
    assert np.allclose(norm, np.eye(4), atol=0)


def test_prior_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        PriorGraph(["A", "B"], np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        PriorGraph(["A", "B"], np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="match"):
        PriorGraph(["A", "B", "C"], np.zeros((2, 2)))


def test_build_prior_edge_logic():
    sectors = {"A": "tech", "B": "tech", "C": "food", "D": "util"}
    regions = {"A": "us", "B": "eu", "C": "eu", "D": "latam"}
    g = build_prior(sectors, regions, ["A", "B", "C", "D"])
    # A-B same sector, B-C same region, D isolated
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(g.adjacency, expected)
    with pytest.raises(ValueError, match="E"):
        build_prior(sectors, regions, ["A", "E"])


def test_default_book_prior_edges(book, prior):
    tickers = book.tickers()
    n = len(tickers)
    assert prior.tickers == tickers
    for i in range(n):
        for j in range(n):
            same = (book.sector_map[tickers[i]] == book.sector_map[tickers[j]]
                    or book.region_map[tickers[i]] == book.region_map[tickers[j]])
            want = 1.0 if (same and i != j) else 0.0
            assert prior.adjacency[i, j] == want


def test_correlation_adjacency_brute_force(rng):
    r = rng.standard_normal((6, 80))
    a, empty = correlation_adjacency(r, threshold=0.1)
    corr = np.corrcoef(r)
    for i in range(6):
        for j in range(6):
            if i == j:
                assert a[i, j] == 0.0
            else:
                assert a[i, j] == (1.0 if corr[i, j] > 0.1 else 0.0)
    assert empty == (not a.any())


def test_correlation_adjacency_short_history_flags_empty():
    a, empty = correlation_adjacency(np.ones((5, 1)))
    assert empty and not a.any()
    a, empty = correlation_adjacency(np.random.default_rng(0).normal(size=(3, 40)),
                                     threshold=1.1)
    assert empty and not a.any()


def test_correlation_adjacency_constant_row_is_isolated(rng):
    r = rng.standard_normal((4, 60))
    r[0] = 2.5
    r[2] = r[3] + 1e-9 * rng.standard_normal(60)  # near-perfect pair
    a, empty = correlation_adjacency(r, threshold=0.9)
    assert a[0].sum() == 0.0 and a[:, 0].sum() == 0.0
    assert a[2, 3] == 1.0 and a[3, 2] == 1.0
    assert not empty


def test_spatial_encoder_matches_manual_numpy(rng):
    n, feats, hidden = 5, 7, 8
    bag = ParameterBag()
    enc = SpatialEncoder(bag, feats, rng, hidden=hidden)
    x = rng.standard_normal((n, feats))
    a = normalize_adjacency(np.triu(np.ones((n, n)), 1) + np.tril(np.ones((n, n)), -1))

    out = enc(Tensor(x), Tensor(a))

    w_in = bag["spatial.w_in"].data
    w1 = bag["spatial.w1"].data
    w2 = bag["spatial.w2"].data
    h0 = x @ w_in
    h1 = np.maximum(a @ (h0 @ w1), 0.0)
    h2 = np.maximum(a @ (h1 @ w2), 0.0)
    assert np.allclose(out.data, h2 + 0.5 * h0, atol=1e-12)


def test_spatial_encoder_batched_equals_loop(rng):
    b, n, feats = 3, 4, 6
    bag = ParameterBag()
    enc = SpatialEncoder(bag, feats, rng, hidden=5)
    x = rng.standard_normal((b, n, feats))
    a = normalize_adjacency((np.triu(np.ones((n, n)), 1) + np.tril(np.ones((n, n)), -1)))
    batched = enc(Tensor(x), Tensor(a)).data
    for i in range(b):
        single = enc(Tensor(x[i]), Tensor(a)).data
        assert np.allclose(batched[i], single, atol=1e-12)


def test_spatial_encoder_gradcheck(rng):
    n, feats = 3, 4
    bag = ParameterBag()
    enc = SpatialEncoder(bag, feats, rng, hidden=4)
    a = normalize_adjacency(np.array([[0.0, 1.0, 0.0],
                                      [1.0, 0.0, 1.0],
                                      [0.0, 1.0, 0.0]]))

    def build(xs):
        return enc(xs[0], Tensor(a)).sum()

    err = max_rel_error(build, [(n, feats)], rng, scale=0.5)
    assert err < 1e-6


def test_residual_half_weight_is_visible(rng):
    # zero conv weights leave exactly the half-projection
    n, feats, hidden = 4, 5, 6
    bag = ParameterBag()
    enc = SpatialEncoder(bag, feats, rng, hidden=hidden)
    enc.w1.data[:] = 0.0
    enc.w2.data[:] = 0.0
    x = rng.standard_normal((n, feats))
    out = enc(Tensor(x), Tensor(np.eye(n)))
    assert np.allclose(out.data, 0.5 * (x @ enc.w_in.data), atol=1e-15)
