"""Optimized marking/refinement kernels must match the reference bit-for-bit.

The marking phase's per-round schedule (work per rank, SPL exchange
volumes), derived from the round each edge was first marked in, is held
to the loop that charged every round in line.

A refined mesh is also held to the full rebuild it replaced: its elements
to ``fix_orientation``'s, its boundary (split from the parent's) and its
lazily built ``dual_pairs`` to one sort of all its faces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import AdaptiveMesh, MarkingResult
from repro.adapt.marking import propagate_markings, target_by_fraction
from repro.adapt.refine import _CHILD_TABLES, _CORNER_TABLE, _OCTA_TABLES, subdivide
from repro.core.phases import marking_schedule
from repro.dist import decompose, parallel_refine
from repro.mesh.build import build_faces
from repro.mesh.generate import box_mesh, rotor_domain_mesh
from repro.mesh.geometry import fix_orientation, tet_volumes
from repro.mesh.topology import LOCAL_EDGES

from tests.fixtures import single_tet

from .oracles import reference_kernels


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_subdivide_bit_identical(seed):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(3, 3, 3)
    err = rng.uniform(size=mesh.nedges)
    frac = float(rng.uniform(0.05, 0.6))
    marking = propagate_markings(mesh, target_by_fraction(err, frac))
    sol = rng.uniform(size=(mesh.nv, 2))
    opt = subdivide(mesh, marking, solution=sol)
    with reference_kernels():
        ref = subdivide(mesh, marking, solution=sol)
    assert np.array_equal(opt.mesh.elems, ref.mesh.elems)
    assert np.array_equal(opt.mesh.coords, ref.mesh.coords)
    assert np.array_equal(opt.parent, ref.parent)
    assert np.array_equal(opt.child_count, ref.child_count)
    assert np.array_equal(opt.midpoint_of, ref.midpoint_of)
    assert np.array_equal(opt.edge_children, ref.edge_children)
    assert np.array_equal(opt.edge_survivor, ref.edge_survivor)
    assert np.array_equal(opt.solution, ref.solution)


def test_subdivide_handles_unmarked_empty_and_tiny_meshes():
    # regression: a mesh where nothing (or everything) is selected must not
    # crash the chunk assembly in either implementation
    mesh = box_mesh(1, 1, 1)
    marking = propagate_markings(mesh, np.zeros(mesh.nedges, dtype=bool))
    for force_ref in (False, True):
        with reference_kernels(force_ref):
            res = subdivide(mesh, marking)
        assert res.mesh.ne == mesh.ne
        assert np.array_equal(res.child_count, np.ones(mesh.ne, dtype=np.int64))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_propagate_markings_ledger_bit_identical(seed):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(3, 3, 3)
    marked = target_by_fraction(rng.uniform(size=mesh.nedges), 0.25)
    nproc = int(rng.integers(2, 9))
    part = rng.integers(0, nproc, size=mesh.ne)
    marking = propagate_markings(mesh, marked)

    work, msgs = marking_schedule(mesh, part, marking, nproc)
    with reference_kernels():
        ref_work, ref_msgs = marking_schedule(mesh, part, marking, nproc)

    assert marking.iterations > 1  # propagation ran: rounds beyond the first
    assert work.dtype == ref_work.dtype and msgs.dtype == ref_msgs.dtype
    assert np.array_equal(work, ref_work)
    assert np.array_equal(msgs, ref_msgs)


# --- refined meshes against the full rebuild ---------------------------------


def assert_as_rebuilt(mesh):
    """``mesh``, fresh from ``subdivide``, keeps what orienting its
    elements and sorting all its faces would have given it."""
    assert "dual_pairs" not in vars(mesh)  # no face sort has run yet
    bnd_faces, dual_pairs = build_faces(mesh.elems, mesh.nv)
    assert np.array_equal(mesh.elems, fix_orientation(mesh.coords, mesh.elems))
    assert np.array_equal(mesh.bnd_faces, bnd_faces)
    assert np.array_equal(mesh.dual_pairs, dual_pairs)


@pytest.mark.parametrize("initial", ["box", "rotor"])
def test_three_refinement_levels_match_the_rebuild(initial):
    mesh = box_mesh(3, 3, 3) if initial == "box" else rotor_domain_mesh(3)[0]
    rng = np.random.default_rng(4)
    adaptive = AdaptiveMesh(mesh)
    for _ in range(3):
        error = rng.uniform(size=adaptive.mesh.nedges)
        result = adaptive.refine(adaptive.mark(edge_error=error, refine_frac=0.2))
        assert_as_rebuilt(result.mesh)


@given(seed=st.integers(0, 2**31), fracs=st.lists(st.floats(0.0, 1.0),
                                                  min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_any_marking_matches_the_rebuild(seed, fracs):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(2, 2, 2)
    for frac in fracs:
        marking = propagate_markings(mesh, rng.random(mesh.nedges) < frac)
        mesh = subdivide(mesh, marking).mesh
        assert_as_rebuilt(mesh)


def test_parallel_refine_local_meshes_match_the_rebuild():
    """Local meshes: their boundaries include the faces the partition
    cut, which a refined local mesh must split like any other."""
    mesh = box_mesh(3, 3, 3)
    part = np.arange(mesh.ne) * 4 // mesh.ne
    rng = np.random.default_rng(5)
    marking = propagate_markings(mesh, rng.random(mesh.nedges) < 0.3)
    par = parallel_refine(mesh, decompose(mesh, part, 4), marking)
    for local in par.local_meshes:
        assert_as_rebuilt(local)


def test_every_child_table_row_is_right_handed():
    """On the reference tetrahedron every child has a positive volume of
    exactly its share: the barycentric determinant of its row is
    1/2, 1/4 or 1/8, never negative."""
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    row = np.vstack([corners, corners[LOCAL_EDGES].mean(axis=1)])  # 10 wide
    parent = tet_volumes(corners, np.array([[0, 1, 2, 3]]))[0]
    assert parent > 0
    tables = [t for _, t in _CHILD_TABLES] + [_CORNER_TABLE, *_OCTA_TABLES.values()]
    shares = [1 / t.shape[0] for _, t in _CHILD_TABLES] + [1 / 8] * 4
    for table, share in zip(tables, shares):
        assert np.allclose(tet_volumes(row, table) / parent, share)


def test_a_face_with_two_bisected_edges_is_rejected():
    """Valid patterns bisect 0, 1 or 3 edges of a face; edges that leave a
    boundary face with 2 disagree with any valid pattern, which is an
    error under ``python -O`` too."""
    mesh = single_tet()
    mask = np.zeros(mesh.nedges, dtype=bool)
    mask[[0, 1]] = True  # edges (0, 1) and (0, 2) of face (0, 1, 2)
    bad = MarkingResult(edge_marked=mask, patterns=np.zeros(1, np.int64),
                        iterations=0)
    with pytest.raises(ValueError, match="disagrees with patterns"):
        subdivide(mesh, bad)


@pytest.mark.parametrize("change, error", [
    ("extra", "disagrees with patterns"),
    ("missing", "disagrees with patterns"),
    ("short", "must have shape"),
], ids=["extra", "missing", "short"])
def test_an_edge_mask_that_disagrees_with_its_patterns_is_rejected(change,
                                                                   error):
    """Valid patterns, and an edge mask with one marked edge more or one
    fewer than those patterns say, or one entry short."""
    mesh = box_mesh(2, 2, 2)
    mask = np.zeros(mesh.nedges, dtype=bool)
    mask[mesh.elem2edge[0, 0]] = True
    marking = propagate_markings(mesh, mask)
    edges = marking.edge_marked.copy()
    if change == "extra":
        edges[np.flatnonzero(~edges)[0]] = True
    elif change == "missing":
        edges[np.flatnonzero(edges)[0]] = False
    else:
        edges = edges[:-1]
    bad = MarkingResult(edge_marked=edges, patterns=marking.patterns,
                        iterations=marking.iterations)
    with pytest.raises(ValueError, match=error):
        subdivide(mesh, bad)
