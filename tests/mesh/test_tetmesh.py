"""TetMesh construction, invariants, and generators."""

import numpy as np
import pytest

from repro.mesh import TetMesh, box_mesh, rotor_domain_mesh, tet_volumes

from tests.fixtures import check_mesh, single_tet


def test_box_mesh_counts():
    m = box_mesh(2, 3, 4)
    assert m.nv == 3 * 4 * 5
    assert m.ne == 6 * 2 * 3 * 4
    check_mesh(m)


def test_box_mesh_fills_volume():
    m = box_mesh(3, 2, 2, bounds=((0, 2), (0, 1), (0, 1)))
    assert m.volumes().sum() == pytest.approx(2.0)


def test_box_mesh_conforming():
    """Every interior face is shared by exactly 2 elements — already enforced
    by build_faces; additionally Euler-consistency for a 3-ball:
    V - E + F - T = 1 for a simply-connected tetrahedralised ball."""
    m = box_mesh(2, 2, 2)
    nfaces = (4 * m.ne + m.nbnd) // 2
    assert m.nv - m.nedges + nfaces - m.ne == 1


def test_orientation_fixed():
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    elems = np.array([[0, 2, 1, 3]])  # negatively oriented
    m = TetMesh.from_elems(coords, elems)
    assert tet_volumes(m.coords, m.elems)[0] > 0


def test_rejects_bad_shapes():
    with pytest.raises(ValueError, match="coords"):
        TetMesh.from_elems(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]))
    with pytest.raises(ValueError, match="elems"):
        TetMesh.from_elems(np.zeros((4, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="out of range"):
        TetMesh.from_elems(np.zeros((4, 3)), np.array([[0, 1, 2, 7]]))


def test_edge_and_vertex_adjacency():
    m = single_tet()
    # the one element holds every edge once
    assert sorted(m.elem2edge[0].tolist()) == list(range(m.nedges))
    # each vertex touches 3 edges
    assert np.bincount(m.edges.ravel()).tolist() == [3, 3, 3, 3]


def test_sizes_dict_matches_table1_columns():
    m = single_tet()
    assert m.sizes() == {"vertices": 4, "elements": 1, "edges": 6, "bdy_faces": 4}


def test_rotor_domain_mesh_blade_inside():
    mesh, blade = rotor_domain_mesh(resolution=3)
    check_mesh(mesh)
    lo = mesh.coords.min(axis=0)
    hi = mesh.coords.max(axis=0)
    for pt in (blade.start, blade.end):
        assert np.all(np.asarray(pt) >= lo) and np.all(np.asarray(pt) <= hi)
    # some vertices must be near the blade (feature region non-empty)
    d = blade.distance(mesh.coords)
    assert (d < blade.radius * 3).any()


def test_blade_distance_endpoints():
    from repro.mesh import BladeSpec

    blade = BladeSpec(start=(0, 0, 0), end=(1, 0, 0), radius=0.1)
    pts = np.array([[0.5, 0.0, 0.0], [0.5, 2.0, 0.0], [-1.0, 0.0, 0.0]])
    assert blade.distance(pts) == pytest.approx([0.0, 2.0, 1.0])


EAGER_ARRAYS = {
    "coords", "elems", "edges", "elem2edge", "bnd_faces", "dual_pairs",
}


def test_a_mesh_holds_only_its_eager_arrays():
    m = box_mesh(2, 2, 2)
    check_mesh(m)
    assert set(vars(m)) == EAGER_ARRAYS  # no edge→element CSR, no cache


def test_a_refined_mesh_sorts_its_faces_only_when_dual_pairs_is_read():
    """A mesh built from scratch holds ``dual_pairs`` from its one face
    sort; a refined one holds none until it is read, and then the pairs
    of that sort."""
    from repro.adapt import AdaptiveMesh

    m = box_mesh(2, 2, 2)
    assert "dual_pairs" in vars(m)
    adaptive = AdaptiveMesh(m)
    error = np.random.default_rng(0).uniform(size=m.nedges)
    refined = adaptive.refine(adaptive.mark(edge_error=error, refine_frac=0.3)).mesh
    assert set(vars(refined)) == EAGER_ARRAYS - {"dual_pairs"}
    pairs = refined.dual_pairs
    assert "dual_pairs" in vars(refined) and refined.dual_pairs is pairs
    check_mesh(refined)


#: tracemalloc high-water mark of ``TetMesh.from_elems`` per element, its
#: seven result arrays (134 B/element) included: measured 260 B/element on
#: 2·10⁴ … 7·10⁵ tetrahedra (576 before the keys were built in place and the
#: edge→element CSR lists left the build), pinned with 10 % headroom.
FROM_ELEMS_PEAK_BYTES_PER_ELEM = 286


def test_from_elems_peak_memory_per_element():
    """Memory as a count: no host timer, and it fails if the temporaries of
    the connectivity build come back (each fresh page of the high-water mark
    is wall time on a mesh that has just grown — DESIGN.md §9)."""
    import tracemalloc

    from repro.adapt import AdaptiveMesh

    rng = np.random.default_rng(1)
    adaptive = AdaptiveMesh(box_mesh(3, 3, 3))
    for _ in range(3):
        error = rng.uniform(size=adaptive.mesh.nedges)
        adaptive.refine(adaptive.mark(edge_error=error, refine_frac=0.15))
    coords, elems = adaptive.mesh.coords, adaptive.mesh.elems
    assert elems.shape[0] == 19889

    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        mesh = TetMesh.from_elems(coords, elems)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    assert np.array_equal(mesh.elems, elems)
    assert (peak - before) / mesh.ne <= FROM_ELEMS_PEAK_BYTES_PER_ELEM


#: tracemalloc high-water mark of ``subdivide`` per element of the refined
#: mesh (19 889 → 124 469 tetrahedra): measured 248 B/element with the
#: boundary split from the parent's and no orientation pass (327 while
#: every refined mesh sorted all its faces), pinned with 10 % headroom.
SUBDIVIDE_PEAK_BYTES_PER_ELEM = 272


def test_subdivide_peak_memory_per_element():
    """Memory as a count, on the mesh of the test above refined once more:
    it fails if subdivision goes back to sorting every face of the refined
    mesh or to an orientation pass over its elements."""
    import tracemalloc

    from repro.adapt import AdaptiveMesh, subdivide

    rng = np.random.default_rng(1)
    adaptive = AdaptiveMesh(box_mesh(3, 3, 3))
    for _ in range(3):
        error = rng.uniform(size=adaptive.mesh.nedges)
        adaptive.refine(adaptive.mark(edge_error=error, refine_frac=0.15))
    mesh = adaptive.mesh
    assert mesh.ne == 19889
    error = rng.uniform(size=mesh.nedges)
    marking = adaptive.mark(edge_error=error, refine_frac=0.15)

    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = subdivide(mesh, marking)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    assert result.mesh.ne == 124469
    assert (peak - before) / result.mesh.ne <= SUBDIVIDE_PEAK_BYTES_PER_ELEM


#: ``subdivide``'s transient bytes per child tet — its ``tracemalloc`` peak
#: less what it retains (the refined mesh and solution) — on the
#: resolution-6 rotor's third adapt cycle (53 231 → 126 420 tets): 124.3 B
#: while ``build_edges`` sorted every child edge, 29.4 B with the child
#: edges derived from the parent's and the provenance retained, 38.9 B
#: since the provenance left (the peak itself fell 166.9 → 152.4 B per
#: child, what it retains 137.5 → 113.5 B); bound at 40.
SUBDIVIDE_TRANSIENT_BYTES_PER_CHILD = 40


def test_subdivide_transient_memory_per_child():
    """The temporaries of one mid-size rotor subdivision, as a count: it
    fails if the sort of all ``6·ne`` child edge keys comes back."""
    import gc
    import tracemalloc

    from repro.adapt import AdaptiveMesh, subdivide
    from repro.solver import rotor_acoustics_field, speed_indicator

    mesh, blade = rotor_domain_mesh(resolution=6, grading=2.0)
    adaptive = AdaptiveMesh(mesh, rotor_acoustics_field(mesh.coords, blade))
    for cycle in range(4):
        error = speed_indicator(adaptive.mesh, adaptive.solution)
        marking = adaptive.mark(edge_error=error, refine_frac=0.1)
        if cycle < 3:
            adaptive.refine(marking)
    gc.collect()
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = subdivide(adaptive.mesh, marking, solution=adaptive.solution)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    assert (adaptive.mesh.ne, result.mesh.ne) == (53231, 126420)
    assert held > before  # what it retains stays out of the bound
    assert (peak - held) / result.mesh.ne <= SUBDIVIDE_TRANSIENT_BYTES_PER_CHILD
