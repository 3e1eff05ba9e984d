"""Optimized partitioning kernels must match the reference bit-for-bit."""

import numpy as np
import pytest

from repro.core.dualgraph import DualGraph
from repro.mesh.generate import box_mesh
from repro.partition.contract import contract
from repro.partition.fm_refine import (
    _gains_bisection,
    _gains_subset,
    fm_bisection_refine,
    kway_greedy_refine,
)
from repro.partition.graph import Graph
from repro.partition.initial import greedy_graph_growing
from repro.partition.matching import heavy_edge_matching
from repro.partition.multilevel import _subgraph, multilevel_kway

from .oracles import (
    contract_reference,
    csr_ptr_reference,
    fm_bisection_refine_reference,
    from_pairs_reference,
    gains_bisection_reference,
    gains_subset_reference,
    greedy_graph_growing_reference,
    heavy_edge_matching_reference,
    kway_greedy_refine_reference,
    reference_kernels,
    subgraph_reference,
)


def _graph(seed: int, n: int = 3):
    rng = np.random.default_rng(seed)
    dual = DualGraph(box_mesh(n, n, n))
    g = dual.graph
    g.vwgt = rng.integers(1, 9, size=g.n).astype(np.int64)
    # symmetric random edge weights
    w = {}
    ew = np.empty_like(g.ewgt)
    for v in range(g.n):
        for i in range(g.ptr[v], g.ptr[v + 1]):
            u = int(g.adj[i])
            key = (min(v, u), max(v, u))
            if key not in w:
                w[key] = int(rng.integers(1, 9))
            ew[i] = w[key]
    g.ewgt = ew
    return g, rng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heavy_edge_matching_bit_identical(seed):
    g, _ = _graph(seed)
    opt = heavy_edge_matching(g, np.random.default_rng(seed))
    ref = heavy_edge_matching_reference(g, np.random.default_rng(seed))
    assert np.array_equal(opt, ref)
    # with labels restricting the matching
    lab = np.random.default_rng(seed + 50).integers(0, 3, size=g.n)
    opt = heavy_edge_matching(g, np.random.default_rng(seed), allowed=lab)
    ref = heavy_edge_matching_reference(
        g, np.random.default_rng(seed), allowed=lab
    )
    assert np.array_equal(opt, ref)


def _assert_same_graph(opt: Graph, ref: Graph) -> None:
    for name in ("ptr", "adj", "vwgt", "ewgt"):
        a, b = getattr(opt, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "unit"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contract_and_subgraph_bit_identical(seed, unit):
    # unit edge weights, as on every finest level, take the matching's
    # no-sort path
    g, rng = _graph(seed, n=4)
    if unit:
        g = Graph(ptr=g.ptr, adj=g.adj, vwgt=g.vwgt)
    lab = rng.integers(0, 3, size=g.n)
    for allowed in (None, lab):
        match = heavy_edge_matching(g, np.random.default_rng(seed), allowed=allowed)
        ref = heavy_edge_matching_reference(
            g, np.random.default_rng(seed), allowed=allowed
        )
        assert np.array_equal(match, ref)
        coarse, cmap = contract(g, match)
        coarse_ref, cmap_ref = contract_reference(g, match)
        assert np.array_equal(cmap, cmap_ref)
        _assert_same_graph(coarse, coarse_ref)
        # and one level further down, where the weights have summed
        match = heavy_edge_matching(coarse, np.random.default_rng(seed))
        c2, cmap2 = contract(coarse, match)
        c2_ref, cmap2_ref = contract_reference(coarse, match)
        assert np.array_equal(cmap2, cmap2_ref)
        _assert_same_graph(c2, c2_ref)
    some = np.flatnonzero(rng.random(g.n) < 0.5)
    for vertices in (np.arange(g.n), some, some[:1], some[:0]):
        _assert_same_graph(_subgraph(g, vertices), subgraph_reference(g, vertices))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_from_pairs_bit_identical(seed):
    # duplicates in both orientations, self-loops, isolated vertices
    rng = np.random.default_rng(seed)
    for n, m in ((45, 300), (7, 0), (1, 3)):
        pairs = rng.integers(0, n, size=(m, 2))
        _assert_same_graph(Graph.from_pairs(pairs, n), from_pairs_reference(pairs, n))
    g, _ = _graph(seed)
    src = np.repeat(np.arange(g.n), np.diff(g.ptr))
    pairs = np.column_stack([src, g.adj])
    _assert_same_graph(Graph.from_pairs(pairs, g.n), from_pairs_reference(pairs, g.n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fm_bisection_refine_bit_identical(seed):
    g, rng = _graph(seed)
    side0 = rng.integers(0, 2, size=g.n).astype(np.int64)
    for target0 in (0.5, 0.3):
        opt = fm_bisection_refine(g, side0.copy(), target0)
        ref = fm_bisection_refine_reference(g, side0.copy(), target0)
        assert np.array_equal(opt, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kway_greedy_refine_bit_identical(seed):
    g, rng = _graph(seed)
    k = 4
    part0 = rng.integers(0, k, size=g.n).astype(np.int64)
    for balance_only in (False, True):
        opt = kway_greedy_refine(g, part0.copy(), k, balance_only=balance_only)
        ref = kway_greedy_refine_reference(
            g, part0.copy(), k, balance_only=balance_only
        )
        assert np.array_equal(opt, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kway_greedy_refine_keeps_the_last_vertex(seed):
    # parts of a few vertices under a loose tolerance: without the guard
    # the cut-improving moves drain the small ones
    g, rng = _graph(seed)
    k = g.n // 3
    part0 = rng.integers(0, k, size=g.n).astype(np.int64)
    populated = np.bincount(part0, minlength=k) > 0
    for balance_only in (False, True):
        opt = kway_greedy_refine(g, part0, k, ub=3.0, balance_only=balance_only)
        ref = kway_greedy_refine_reference(
            g, part0, k, ub=3.0, balance_only=balance_only
        )
        assert np.array_equal(opt, ref)
        assert (np.bincount(opt, minlength=k)[populated] > 0).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_graph_growing_bit_identical(seed):
    g, _ = _graph(seed)
    for target in (0.5, 0.3, 0.8):
        opt = greedy_graph_growing(g, target, np.random.default_rng(seed))
        ref = greedy_graph_growing_reference(g, target, np.random.default_rng(seed))
        assert np.array_equal(opt, ref)
    # disconnected: the region cannot reach its target by growing
    pairs = np.array([[0, 1], [1, 2], [3, 4], [5, 6], [6, 7], [7, 8]])
    h = Graph.from_pairs(pairs, 10).with_vwgt(np.arange(1, 11))
    for s in range(6):
        opt = greedy_graph_growing(h, 0.6, np.random.default_rng(s))
        ref = greedy_graph_growing_reference(h, 0.6, np.random.default_rng(s))
        assert np.array_equal(opt, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bincount_forms_match_add_at(seed):
    g, rng = _graph(seed)
    side = rng.integers(0, 2, size=g.n).astype(np.int64)
    gains = _gains_bisection(g, side)
    assert gains.dtype == np.int64
    assert np.array_equal(gains, gains_bisection_reference(g, side))
    some = np.unique(rng.integers(0, g.n, size=g.n // 3))
    for vertices in (some, some[:1], some[:0]):
        sub = _gains_subset(g, side, vertices)
        assert sub.dtype == np.int64
        assert np.array_equal(sub, gains_subset_reference(g, side, vertices))
        assert np.array_equal(sub, gains[vertices])
    # CSR row pointers: duplicates, both orientations, self-loops, and
    # vertices without an edge
    pairs = rng.integers(0, 40, size=(300, 2))
    assert np.array_equal(
        Graph.from_pairs(pairs, 45).ptr, csr_ptr_reference(pairs, 45)
    )
    src = np.repeat(np.arange(g.n), np.diff(g.ptr))
    dual_pairs = np.column_stack([src, g.adj])
    assert np.array_equal(g.ptr, csr_ptr_reference(dual_pairs, g.n))
    assert np.array_equal(Graph.from_pairs(dual_pairs, g.n).ptr, g.ptr)


@pytest.mark.parametrize("seed", [0, 1])
def test_multilevel_kway_bit_identical(seed):
    g, _ = _graph(seed, n=4)
    for k in (2, 5):
        opt = multilevel_kway(g, k, seed=seed)
        with reference_kernels():
            ref = multilevel_kway(g, k, seed=seed)
        assert np.array_equal(opt, ref)
