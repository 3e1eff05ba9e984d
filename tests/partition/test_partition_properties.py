"""Property-based tests for the partitioning stack."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    Graph,
    contract,
    edgecut,
    heavy_edge_matching,
    imbalance,
    multilevel_kway,
    repartition,
)
from repro.partition.multilevel import _subgraph
from tests.fixtures import weighted_graph


def random_connected_graph(n, extra_edges, seed, max_w=5):
    """Random spanning tree plus extra edges -> always connected."""
    rng = np.random.default_rng(seed)
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.append((int(a), int(b)))
    vwgt = rng.integers(1, max_w + 1, size=n).astype(np.int64)
    ewgt = rng.integers(1, max_w + 1, size=len(pairs)).astype(np.int64)
    return weighted_graph(np.array(pairs), n, vwgt=vwgt, ewgt=ewgt)


@given(n=st.integers(10, 120), extra=st.integers(0, 200), seed=st.integers(0, 999))
@settings(max_examples=25, deadline=None)
def test_matching_and_contraction_invariants(n, extra, seed):
    g = random_connected_graph(n, extra, seed)
    match = heavy_edge_matching(g, np.random.default_rng(seed))
    # involution
    assert np.array_equal(match[match], np.arange(n))
    coarse, cmap = contract(g, match)
    assert coarse.total_vwgt() == g.total_vwgt()
    # cut between coarse vertices equals cut between their fine pre-images:
    # total edge weight is conserved minus weight internal to merged pairs
    fine_total = g.ewgt.sum() // 2
    internal = sum(
        int(g.edge_weights(v)[list(g.neighbors(v)).index(match[v])])
        for v in range(n)
        if match[v] > v and match[v] in g.neighbors(v)
    )
    assert coarse.ewgt.sum() // 2 == fine_total - internal


@given(
    n=st.integers(30, 150),
    extra=st.integers(20, 200),
    k=st.integers(2, 8),
    seed=st.integers(0, 99),
)
@settings(max_examples=20, deadline=None)
def test_kway_partition_is_complete_and_bounded(n, extra, k, seed):
    g = random_connected_graph(n, extra, seed)
    part = multilevel_kway(g, k, seed=seed)
    assert part.shape == (n,)
    assert part.min() >= 0 and part.max() <= k - 1
    # balance bound: within ub plus one maximal vertex of slack (an
    # indivisible heavy vertex can always force this much)
    avg = g.total_vwgt() / k
    assert imbalance(g, part, k) <= 1.1 + g.vwgt.max() / avg


@given(n=st.integers(30, 120), extra=st.integers(20, 150), seed=st.integers(0, 99))
@settings(max_examples=15, deadline=None)
def test_repartition_no_worse_balance_than_old(n, extra, seed):
    g = random_connected_graph(n, extra, seed)
    k = 4
    rng = np.random.default_rng(seed)
    old = rng.integers(0, k, size=n).astype(np.int64)
    new = repartition(g, k, old, seed=seed)
    assert new.min() >= 0 and new.max() <= k - 1
    assert imbalance(g, new, k) <= imbalance(g, old, k) + 1e-9


@given(n=st.integers(20, 80), extra=st.integers(10, 80), seed=st.integers(0, 99))
@settings(max_examples=15, deadline=None)
def test_edgecut_consistent_with_manual_count(n, extra, seed):
    g = random_connected_graph(n, extra, seed)
    part = multilevel_kway(g, 3, seed=seed)
    manual = 0
    for v in range(n):
        for u, w in zip(g.neighbors(v), g.edge_weights(v)):
            if u > v and part[u] != part[v]:
                manual += int(w)
    assert edgecut(g, part) == manual


def _assert_csr_invariants(g: Graph, total_vwgt: int) -> None:
    """Rows strictly ascending, no self-loops, each edge's two directions
    equally weighted, vertex weight conserved."""
    src = np.repeat(np.arange(g.n), np.diff(g.ptr))
    key = src * g.n + g.adj
    assert (np.diff(key) > 0).all()  # grouped by row, strictly ascending
    assert (src != g.adj).all()
    back = np.searchsorted(key, g.adj * g.n + src)
    assert (back < key.size).all() and np.array_equal(key[back], g.adj * g.n + src)
    assert np.array_equal(g.ewgt[back], g.ewgt)
    assert g.total_vwgt() == total_vwgt


@given(n=st.integers(1, 60), m=st.integers(0, 200), seed=st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_csr_builders_keep_rows_ascending(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(m, 2))
    g = Graph.from_pairs(pairs, n)
    _assert_csr_invariants(g, n)
    g = weighted_graph(pairs, n, vwgt=rng.integers(1, 9, size=n),
                       ewgt=rng.integers(1, 9, size=m))
    total = g.total_vwgt()
    coarse, _ = contract(g, heavy_edge_matching(g, rng))
    _assert_csr_invariants(coarse, total)
    coarser, _ = contract(coarse, heavy_edge_matching(coarse, rng))
    _assert_csr_invariants(coarser, total)
    for graph in (g, coarse):
        vertices = np.flatnonzero(rng.random(graph.n) < 0.6)
        sub = _subgraph(graph, vertices)
        _assert_csr_invariants(sub, int(graph.vwgt[vertices].sum()))
