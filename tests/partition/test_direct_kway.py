"""The direct multilevel k-way driver: its shape and the quality it buys.

``multilevel_kway`` coarsens once, partitions the coarsest graph by
recursive bisection and refines k-way on every level of the way up.  The
first tests count — levels, and how many vertices a bisection ever sees —
so that neither the multi-level path nor the no-coarsening branch can rot
between benchmark runs (the benchmark's ``--smoke`` sizes reach neither).
The last is a ratchet: the cuts of the recursive-bisection partitioner
this driver replaced, measured at its last commit, which the direct path
has to match within 5 % each and beat on average.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.experiments.cases import make_case
from repro.partition import Graph, edgecut, imbalance, multilevel, multilevel_kway


@lru_cache(maxsize=None)
def _dual(resolution):
    mesh = make_case(resolution).mesh
    return Graph.from_pairs(mesh.dual_pairs, mesh.ne)


def _trace(monkeypatch, graph, k):
    """Partition ``graph`` with the driver's two callees counted: the
    sizes the k-way FM refined, and the sizes that were bisected."""
    refined, bisected = [], []
    fm, bisect = multilevel.kway_fm_refine, multilevel.multilevel_bisect

    def counting_fm(g, *args, **kwargs):
        refined.append(g.n)
        return fm(g, *args, **kwargs)

    def counting_bisect(g, *args, **kwargs):
        bisected.append(g.n)
        return bisect(g, *args, **kwargs)

    monkeypatch.setattr(multilevel, "kway_fm_refine", counting_fm)
    monkeypatch.setattr(multilevel, "multilevel_bisect", counting_bisect)
    part = multilevel_kway(graph, k, seed=0)
    return part, refined, bisected


def _floor(k):
    return max(multilevel._COARSEN_TO, multilevel._COARSE_PER_PART * k)


def test_coarsens_once_through_several_levels(monkeypatch):
    g, k = _dual(6), 16  # 2592 vertices against a floor of 128
    part, refined, bisected = _trace(monkeypatch, g, k)
    assert np.unique(part).size == k
    # the coarsest graph first, the input last, every level between once
    assert len(refined) >= 4 and refined == sorted(refined)
    assert refined[-1] == g.n and refined[0] <= _floor(k)
    # k - 1 bisections, all of them of (parts of) the coarsest graph
    assert len(bisected) == k - 1
    assert bisected[0] == refined[0] == max(bisected)


def test_a_small_graph_is_not_coarsened(monkeypatch):
    g, k = _dual(4), 128  # 768 vertices, already below the floor of 1024
    assert g.n <= _floor(k)
    part, refined, bisected = _trace(monkeypatch, g, k)
    assert np.unique(part).size == k
    assert refined == [g.n]
    assert len(bisected) == k - 1 and max(bisected) == g.n


def test_a_bisection_is_the_whole_method_at_k_2(monkeypatch):
    g = _dual(6)
    part, refined, bisected = _trace(monkeypatch, g, 2)
    assert bisected == [g.n] and refined == [g.n]
    assert np.unique(part).size == 2


#: resolution -> k -> edge cut of ``multilevel_kway(dual, k, seed)`` for
#: seeds 0, 1, 2 at commit b00f8a9 (recursive bisection + one greedy pass).
PARENT_CUTS = {
    6: {
        4: (221, 217, 223),
        8: (407, 386, 395),
        16: (595, 577, 587),
        32: (880, 835, 851),
        64: (1197, 1197, 1194),
    },
    8: {
        4: (448, 407, 400),
        8: (714, 697, 681),
        16: (1049, 1056, 1083),
        32: (1461, 1522, 1520),
        64: (2086, 2072, 2061),
        256: (3797, 3801, 3793),
    },
}


@pytest.mark.parametrize("resolution", sorted(PARENT_CUTS))
def test_cut_is_no_worse_than_recursive_bisection(resolution):
    g = _dual(resolution)
    ratios = []
    for k, parent in PARENT_CUTS[resolution].items():
        for seed, parent_cut in enumerate(parent):
            part = multilevel_kway(g, k, seed=seed)
            cut = edgecut(g, part)
            assert cut <= 1.05 * parent_cut, (k, seed, parent_cut, cut)
            # unit weights: the tolerance plus one vertex
            assert imbalance(g, part, k) <= 1.05 + k / g.n, (k, seed)
            ratios.append(cut / parent_cut)
    assert np.mean(ratios) <= 1.0
