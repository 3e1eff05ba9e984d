"""Optimized partitioning kernels must match the reference bit-for-bit."""

import numpy as np
import pytest

from repro.core.dualgraph import DualGraph
from repro.mesh.generate import box_mesh
from repro.partition.fm_refine import (
    _gains_bisection,
    _gains_subset,
    fm_bisection_refine,
    kway_greedy_refine,
)
from repro.partition.graph import Graph
from repro.partition.initial import greedy_graph_growing
from repro.partition.matching import heavy_edge_matching
from repro.partition.multilevel import multilevel_kway

from .oracles import (
    csr_ptr_reference,
    fm_bisection_refine_reference,
    gains_bisection_reference,
    gains_subset_reference,
    greedy_graph_growing_reference,
    heavy_edge_matching_reference,
    kway_greedy_refine_reference,
    reference_kernels,
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
    h = Graph.from_pairs(pairs, 10, vwgt=np.arange(1, 11))
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
