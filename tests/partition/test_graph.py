"""Graph container construction and invariants."""

import numpy as np
import pytest

from repro.partition import Graph
from tests.fixtures import row, weighted_graph


def path_graph(n, vwgt=None):
    pairs = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return weighted_graph(pairs, n, vwgt=vwgt)


def test_from_pairs_symmetric():
    g = path_graph(4)
    assert g.n == 4
    assert g.adj.size // 2 == 3
    assert row(g, 0)[0].tolist() == [1]
    assert row(g, 1)[0].tolist() == [0, 2]
    assert row(g, 3)[0].tolist() == [2]


def test_parallel_edges_merged():
    pairs = np.array([[0, 1], [1, 0], [0, 1]])
    g = Graph.from_pairs(pairs, 2)
    assert g.adj.size // 2 == 1
    assert row(g, 0)[1].tolist() == [3]
    assert row(g, 1)[1].tolist() == [3]
    g = weighted_graph(pairs, 2, ewgt=np.array([2, 3, 5]))
    assert g.adj.size // 2 == 1
    assert row(g, 0)[1].tolist() == [10]
    assert row(g, 1)[1].tolist() == [10]


def test_self_loops_dropped():
    g = Graph.from_pairs(np.array([[0, 0], [0, 1]]), 2)
    assert g.adj.size // 2 == 1


def test_default_weights():
    g = path_graph(3)
    assert g.vwgt.tolist() == [1, 1, 1]
    assert g.total_vwgt() == 3


def test_with_vwgt():
    g = path_graph(3)
    g2 = g.with_vwgt(np.array([5, 1, 2]))
    assert g2.total_vwgt() == 8
    assert g.total_vwgt() == 3  # original untouched
    with pytest.raises(ValueError):
        g.with_vwgt(np.array([1, 2]))


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_pairs(np.array([[0, 5]]), 3)


def test_isolated_vertices_allowed():
    g = Graph.from_pairs(np.array([[0, 1]]), 4)
    assert row(g, 2)[0].size == 0
    assert row(g, 3)[0].size == 0
