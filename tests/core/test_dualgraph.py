"""Dual graph: constant topology; the weights live in the forest."""

import numpy as np

from repro.adapt import AdaptiveMesh
from repro.core import DualGraph
from repro.mesh import box_mesh

from tests.fixtures import two_tets


def test_dual_of_two_tets():
    dg = DualGraph(two_tets())
    assert dg.n == 2
    assert dg.graph.adj.size // 2 == 1
    assert dg.graph.vwgt.tolist() == [1, 1]


def test_dual_edges_are_face_neighbours():
    m = box_mesh(2, 2, 2)
    dg = DualGraph(m)
    assert dg.n == m.ne
    # interior faces = dual edges
    assert dg.graph.adj.size // 2 == m.dual_pairs.shape[0]


def test_topology_constant_under_adaption():
    """The paper's key §4.1 property: adaption changes weights only."""
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    dg = DualGraph(m)
    ptr_before = dg.graph.ptr.copy()
    adj_before = dg.graph.adj.copy()
    rng = np.random.default_rng(0)
    am.refine(am.mark(edge_mask=rng.random(m.nedges) < 0.3))
    weighted = dg.graph.with_vwgt(am.wcomp())
    assert np.array_equal(weighted.ptr, ptr_before)
    assert np.array_equal(weighted.adj, adj_before)
    assert dg.n == m.ne  # still the *initial* element count
    assert weighted.total_vwgt() == am.mesh.ne  # leaves cover the adapted mesh
    assert np.all(am.wremap() >= am.wcomp())


def test_predicted_weights_match_the_refined_forest():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    marking = am.mark(edge_mask=np.ones(m.nedges, dtype=bool))
    wcomp, _ = am.predicted_weights(marking)
    assert np.all(wcomp == 8)  # everything will go 1:8
    am.refine(marking)
    assert np.array_equal(wcomp, am.wcomp())
