"""Distributed subdivision merges to exactly the global refinement."""

import numpy as np
import pytest

from repro.adapt import propagate_markings, subdivide
from repro.dist import decompose
from repro.dist.refine_exec import canonical_signature, parallel_refine
from repro.mesh import box_mesh
from repro.partition import Graph, multilevel_kway

from tests.fixtures import two_tets


@pytest.mark.parametrize("nproc", [1, 2, 4])
@pytest.mark.parametrize("seed,frac", [(0, 0.15), (1, 0.4)])
def test_merged_equals_global_subdivision(nproc, seed, frac):
    m = box_mesh(3, 3, 3)
    g = Graph.from_pairs(m.dual_pairs, m.ne)
    part = multilevel_kway(g, nproc, seed=0)
    locals_ = decompose(m, part, nproc)
    rng = np.random.default_rng(seed)
    marking = propagate_markings(m, rng.random(m.nedges) < frac)

    par = parallel_refine(m, locals_, marking)
    glob = subdivide(m, marking)

    assert par.total_children == glob.mesh.ne
    assert np.allclose(par.merged_signature(), canonical_signature(glob.mesh))


def test_shared_edge_midpoints_coincide():
    """Both ranks bisecting a shared edge create the *same* midpoint
    coordinates — the inherited-SPL identification is geometrically
    consistent."""
    m = two_tets()
    locals_ = decompose(m, np.array([0, 1]), 2)
    marking = propagate_markings(m, np.ones(m.nedges, dtype=bool))
    par = parallel_refine(m, locals_, marking)
    # each rank produced 8 children of its own element
    assert [lm.ne for lm in par.local_meshes] == [8, 8]
    # midpoints of the 3 shared-face edges appear in both local meshes
    coords0 = {tuple(np.round(c, 12)) for c in par.local_meshes[0].coords}
    coords1 = {tuple(np.round(c, 12)) for c in par.local_meshes[1].coords}
    shared_face = [(1, 2), (1, 3), (2, 3)]
    for a, b in shared_face:
        mid = tuple(np.round(0.5 * (m.coords[a] + m.coords[b]), 12))
        assert mid in coords0 and mid in coords1


def test_face_crossing_messages_counted():
    m = box_mesh(2, 2, 2)
    part = np.arange(m.ne) % 2
    locals_ = decompose(m, part, 2)
    marking = propagate_markings(m, np.ones(m.nedges, dtype=bool))
    par = parallel_refine(m, locals_, marking)
    assert par.messages > 0
    assert par.time_seconds > 0


def test_rejects_non_fixpoint_marking():
    from repro.adapt import MarkingResult

    m = two_tets()
    locals_ = decompose(m, np.array([0, 1]), 2)
    mask = np.zeros(m.nedges, dtype=bool)
    mask[[0, 1]] = True  # not propagated
    bad = MarkingResult(edge_marked=mask, patterns=np.zeros(2, np.int64),
                        iterations=0)
    with pytest.raises(ValueError, match="fixpoint"):
        parallel_refine(m, locals_, bad)


def test_subdivision_time_reflects_imbalance():
    """A rank owning the whole refinement region pays the subdivision time
    alone — the effect the remap-before-subdivision strategy removes."""
    m = box_mesh(3, 3, 3)
    cent = m.coords[m.elems].mean(axis=1)
    part = (cent[:, 0] > 0.5).astype(np.int64)  # split at x = 0.5
    locals_ = decompose(m, part, 2)
    # refine only the x < 0.5 half
    mid_x = 0.5 * (m.coords[m.edges[:, 0], 0] + m.coords[m.edges[:, 1], 0])
    marking = propagate_markings(m, mid_x < 0.45)
    t_skewed = parallel_refine(m, locals_, marking).time_seconds

    # balanced split of the same refinement region (y direction)
    part2 = (cent[:, 1] > 0.5).astype(np.int64)
    locals2 = decompose(m, part2, 2)
    t_balanced = parallel_refine(m, locals2, marking).time_seconds
    assert t_balanced < t_skewed