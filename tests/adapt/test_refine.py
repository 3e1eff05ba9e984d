"""Subdivision correctness: child counts, volume conservation, conformity,
provenance, solution interpolation, and element quality."""

import numpy as np
import pytest

from repro.adapt import (
    NUM_CHILDREN,
    AdaptiveMesh,
    propagate_markings,
    subdivide,
)
from repro.mesh import box_mesh, tet_volumes

from tests.fixtures import aspect_ratios, check_mesh, single_tet, two_tets


def refine_mask(mesh, mask):
    marking = propagate_markings(mesh, mask)
    return subdivide(mesh, marking, solution=None), marking


def mask_for_edges(mesh, local_ids):
    mask = np.zeros(mesh.nedges, dtype=bool)
    mask[local_ids] = True
    return mask


def test_1to2_single_tet():
    m = single_tet()
    res, marking = refine_mask(m, mask_for_edges(m, [0]))
    assert res.mesh.ne == 2
    assert res.mesh.nv == 5
    assert res.child_count.tolist() == [2]
    assert res.parent.tolist() == [0, 0]
    assert res.growth_factor == 2.0
    check_mesh(res.mesh)
    assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())


def test_1to4_single_tet():
    m = single_tet()
    # edges 0,1,3 form face (0,1,2)
    res, _ = refine_mask(m, mask_for_edges(m, [0, 1, 3]))
    assert res.mesh.ne == 4
    assert res.mesh.nv == 7
    check_mesh(res.mesh)
    assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())


def test_1to8_single_tet():
    m = single_tet()
    res, _ = refine_mask(m, np.ones(m.nedges, dtype=bool))
    assert res.mesh.ne == 8
    assert res.mesh.nv == 10
    check_mesh(res.mesh)
    assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())
    # all children have positive volume (check() asserts it too)
    assert np.all(tet_volumes(res.mesh.coords, res.mesh.elems) > 0)


def test_all_diagonal_choices_conserve_volume():
    """Force each of the three octahedron diagonals by stretching the tet."""
    for stretch_axis in range(3):
        coords = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]
        )
        coords[:, stretch_axis] *= 3.0
        from repro.mesh import TetMesh

        m = TetMesh.from_elems(coords, np.array([[0, 1, 2, 3]]))
        res, _ = refine_mask(m, np.ones(m.nedges, dtype=bool))
        assert res.mesh.ne == 8
        check_mesh(res.mesh)
        assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())


def test_mixed_patterns_box():
    m = box_mesh(2, 2, 2)
    rng = np.random.default_rng(7)
    mask = rng.random(m.nedges) < 0.25
    res, marking = refine_mask(m, mask)
    check_mesh(res.mesh)
    assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())
    assert np.array_equal(res.child_count, NUM_CHILDREN[marking.patterns])
    assert res.mesh.ne == res.child_count.sum()


def test_conformity_no_hanging_nodes():
    """Boundary faces of the refined box must lie on the box surface:
    a hanging node would orphan an interior face into the boundary list."""
    m = box_mesh(2, 2, 2)
    rng = np.random.default_rng(3)
    mask = rng.random(m.nedges) < 0.3
    res, _ = refine_mask(m, mask)
    centroids = res.mesh.coords[res.mesh.bnd_faces].mean(axis=1)
    on_surface = np.zeros(len(centroids), dtype=bool)
    for ax in range(3):
        on_surface |= np.isclose(centroids[:, ax], 0.0)
        on_surface |= np.isclose(centroids[:, ax], 1.0)
    assert on_surface.all()


def test_children_grouped_by_parent():
    m = two_tets()
    res, _ = refine_mask(m, np.ones(m.nedges, dtype=bool))
    assert np.all(np.diff(res.parent) >= 0)


def test_edge_provenance():
    m = single_tet()
    res, marking = refine_mask(m, mask_for_edges(m, [0]))
    new = res.mesh
    # bisected edge 0 = (0,1), midpoint vertex 4
    assert res.midpoint_of[0] == 4
    c0, c1 = res.edge_children[0]
    assert sorted(new.edges[c0].tolist()) == [0, 4]
    assert sorted(new.edges[c1].tolist()) == [1, 4]
    # unbisected edges survive with matching vertex pairs
    for e in range(1, 6):
        s = res.edge_survivor[e]
        assert s >= 0
        assert np.array_equal(new.edges[s], m.edges[e])
    assert res.edge_survivor[0] == -1
    assert np.all(res.edge_children[1:] == -1)


def test_solution_interpolation():
    m = single_tet()
    sol = m.coords[:, 0:1] * 2.0 + 1.0  # linear in x
    marking = propagate_markings(m, mask_for_edges(m, [0]))
    res = subdivide(m, marking, solution=sol)
    # linear field must be reproduced exactly at midpoints
    expect = res.mesh.coords[:, 0:1] * 2.0 + 1.0
    assert np.allclose(res.solution, expect)


def test_solution_shape_check():
    m = single_tet()
    marking = propagate_markings(m, mask_for_edges(m, [0]))
    with pytest.raises(ValueError, match="solution"):
        subdivide(m, marking, solution=np.zeros((3, 1)))


def test_invalid_patterns_rejected():
    from repro.adapt import MarkingResult

    m = single_tet()
    mask = mask_for_edges(m, [0, 1])  # not a valid pattern
    bad = MarkingResult(edge_marked=mask, patterns=np.array([0b000011]), iterations=1)
    with pytest.raises(ValueError, match="valid"):
        subdivide(m, bad)


def test_subdivision_work_charged_per_rank():
    from repro.adapt.refine import SUBDIV_WORK_PER_CHILD
    from repro.core.phases import price_subdivision
    from repro.parallel import MachineModel

    m = two_tets()
    marking = propagate_markings(m, np.ones(m.nedges, dtype=bool))
    result = subdivide(m, marking)
    run = price_subdivision(np.array([0, 1]), result.child_count, 2,
                            MachineModel(t_setup=0, t_word=0, t_work=1.0))
    # both ranks create 8 children, each priced at the per-child work rate
    expect = 8.0 * SUBDIV_WORK_PER_CHILD
    assert run.clocks == [expect, expect]


def test_predicted_children_match_children_made():
    m = box_mesh(2, 2, 2)
    rng = np.random.default_rng(4)
    marking = propagate_markings(m, rng.random(m.nedges) < 0.2)
    res = subdivide(m, marking)
    assert NUM_CHILDREN[marking.patterns].sum() == res.mesh.ne


def test_quality_change_reports_finite():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    rng = np.random.default_rng(1)
    am.refine(am.mark(edge_mask=rng.random(m.nedges) < 0.3))
    before = aspect_ratios(m.coords, m.elems)
    after = aspect_ratios(am.mesh.coords, am.mesh.elems)
    assert np.all(np.isfinite(after))
    # bisection can degrade quality, but not unboundedly at one level
    assert after.max() < 20 * before.max()
