"""Optimized partitioning kernels must match the reference bit-for-bit."""

import numpy as np
import pytest

from repro.core.dualgraph import DualGraph
from repro.mesh.generate import box_mesh
from repro.partition.fm_refine import fm_bisection_refine, kway_greedy_refine
from repro.partition.matching import heavy_edge_matching
from repro.partition.multilevel import multilevel_kway

from .oracles import (
    fm_bisection_refine_reference,
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


@pytest.mark.parametrize("seed", [0, 1])
def test_multilevel_kway_bit_identical(seed):
    g, _ = _graph(seed, n=4)
    for k in (2, 5):
        opt = multilevel_kway(g, k, seed=seed)
        with reference_kernels():
            ref = multilevel_kway(g, k, seed=seed)
        assert np.array_equal(opt, ref)
