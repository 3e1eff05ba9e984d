"""Dual graph: constant topology, adaption-driven weights."""

import numpy as np
import pytest

from repro.adapt import AdaptiveMesh
from repro.core import DualGraph
from repro.mesh import box_mesh, two_tets


def test_dual_of_two_tets():
    dg = DualGraph(two_tets())
    assert dg.n == 2
    assert dg.graph.nedges == 1
    assert dg.wcomp.tolist() == [1, 1]


def test_dual_edges_are_face_neighbours():
    m = box_mesh(2, 2, 2)
    dg = DualGraph(m)
    assert dg.n == m.ne
    # interior faces = dual edges
    assert dg.graph.nedges == m.dual_pairs.shape[0]


def test_topology_constant_under_adaption():
    """The paper's key §4.1 property: adaption changes weights only."""
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    dg = DualGraph(m)
    ptr_before = dg.graph.ptr.copy()
    adj_before = dg.graph.adj.copy()
    rng = np.random.default_rng(0)
    am.refine(am.mark(edge_mask=rng.random(m.nedges) < 0.3))
    dg.update_weights(am.wcomp(), am.wremap())
    assert np.array_equal(dg.graph.ptr, ptr_before)
    assert np.array_equal(dg.graph.adj, adj_before)
    assert dg.n == m.ne  # still the *initial* element count
    assert dg.wcomp.sum() == am.mesh.ne  # leaves cover the adapted mesh
    assert np.all(dg.wremap >= dg.wcomp)


def test_predicted_update():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    dg = DualGraph(m)
    marking = am.mark(edge_mask=np.ones(m.nedges, dtype=bool))
    dg.update_weights(*am.predicted_weights(marking))
    assert np.all(dg.wcomp == 8)  # everything will go 1:8
    am.refine(marking)
    assert np.array_equal(dg.wcomp, am.wcomp())


def test_weight_validation():
    dg = DualGraph(two_tets())
    with pytest.raises(ValueError, match="shape"):
        dg.update_weights(np.ones(3, int), np.ones(3, int))
    with pytest.raises(ValueError, match="wcomp"):
        dg.update_weights(np.array([0, 1]), np.array([1, 1]))
    with pytest.raises(ValueError, match="wcomp"):
        dg.update_weights(np.array([2, 2]), np.array([1, 1]))


def test_weighted_graphs():
    dg = DualGraph(two_tets())
    dg.update_weights(np.array([3, 5]), np.array([4, 9]))
    assert dg.comp_graph().vwgt.tolist() == [3, 5]
