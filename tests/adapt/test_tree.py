"""Refinement forest weights (paper §4.1: Wcomp = leaves, Wremap = nodes)."""

import numpy as np
import pytest

from repro.adapt import AdaptiveMesh, RefinementForest, propagate_markings
from repro.mesh import box_mesh

from tests.fixtures import single_tet, two_tets


def test_initial_weights():
    f = RefinementForest(5)
    assert f.wcomp().tolist() == [1] * 5
    assert f.wremap().tolist() == [1] * 5
    assert len(f.levels) == 0


def test_single_refinement_weights():
    am = AdaptiveMesh(single_tet())
    marking = am.mark(edge_mask=np.ones(6, dtype=bool))
    am.refine(marking)
    # 1:8 -> 8 leaves, 9 nodes (root + 8 children)
    assert am.wcomp().tolist() == [8]
    assert am.wremap().tolist() == [9]
    assert len(am.forest.levels) == 1


def test_two_level_weights():
    am = AdaptiveMesh(single_tet())
    am.refine(am.mark(edge_mask=np.ones(am.mesh.nedges, dtype=bool)))
    am.refine(am.mark(edge_mask=np.ones(am.mesh.nedges, dtype=bool)))
    # 8 children each split 1:8 -> 64 leaves; nodes 1 + 8 + 64 = 73
    assert am.wcomp().tolist() == [64]
    assert am.wremap().tolist() == [73]


def test_partial_refinement_weights():
    m = two_tets()
    am = AdaptiveMesh(m)
    # refine only edges of element 0 that are NOT shared with element 1:
    # element 0 is (0,1,2,3); shared face is (1,2,3); edge (0,1) is private
    mask = np.zeros(m.nedges, dtype=bool)
    e01 = np.flatnonzero((m.edges[:, 0] == 0) & (m.edges[:, 1] == 1))[0]
    mask[e01] = True
    am.refine(am.mark(edge_mask=mask))
    assert am.wcomp().tolist() == [2, 1]
    assert am.wremap().tolist() == [3, 1]


def test_root_of_elem_tracks_descendants():
    m = two_tets()
    am = AdaptiveMesh(m)
    am.refine(am.mark(edge_mask=np.ones(m.nedges, dtype=bool)))
    roots = am.forest.root_of_elem
    assert np.bincount(roots, minlength=2).tolist() == [8, 8]
    part = am.elem_partition(np.array([0, 1]))
    assert np.bincount(part).tolist() == [8, 8]


def test_predicted_weights_match_actual_after_refine():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    rng = np.random.default_rng(5)
    marking = am.mark(edge_mask=rng.random(m.nedges) < 0.2)
    pred_wc, pred_wr = am.predicted_weights(marking)
    am.refine(marking)
    assert np.array_equal(pred_wc, am.wcomp())
    assert np.array_equal(pred_wr, am.wremap())


def test_pop_level_restores_weights():
    am = AdaptiveMesh(single_tet())
    am.refine(am.mark(edge_mask=np.ones(6, dtype=bool)))
    am.forest.pop_level()
    assert am.forest.wcomp().tolist() == [1]
    assert am.forest.wremap().tolist() == [1]
    with pytest.raises(IndexError):
        am.forest.pop_level()


def test_record_shape_check():
    f = RefinementForest(3)
    with pytest.raises(ValueError):
        f.record_refinement(np.array([1, 1, 1, 1]))
