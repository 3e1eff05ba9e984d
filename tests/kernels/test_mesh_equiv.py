"""The one-pass connectivity kernels must match the straightforward ones.

The oracles below are the implementations ``repro.mesh.build``,
``repro.mesh.geometry.tet_volumes`` and ``repro.adapt.marking`` shipped
before they were rewritten to sort once and build in place: ``np.unique``
for the edges, a *stable* argsort with run counting for the faces,
``lexsort`` for the edge→rank incidence, ``np.cross`` for the volumes.
Every array must come out ``array_equal``.
"""

import numpy as np
import pytest

from repro.adapt import AdaptiveMesh
from repro.adapt.marking import _edge_rank_incidence
from repro.mesh import TetMesh, box_mesh, rotor_domain_mesh
from repro.mesh.build import build_edges, build_faces
from repro.mesh.geometry import tet_volumes
from repro.mesh.topology import LOCAL_EDGES, LOCAL_FACES

from tests.fixtures import single_tet, two_tets


# --- oracles -----------------------------------------------------------------


def oracle_build_edges(elems, nv):
    pairs = elems[:, LOCAL_EDGES]  # (ne, 6, 2)
    lo = pairs.min(axis=2).astype(np.int64)
    hi = pairs.max(axis=2).astype(np.int64)
    keys = lo * nv + hi
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    edges = np.column_stack([uniq // nv, uniq % nv]).astype(np.int64)
    return edges, inverse.reshape(elems.shape[0], 6).astype(np.int64)


def oracle_build_faces(elems, nv):
    ne = elems.shape[0]
    if ne == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty.reshape(0, 3), empty, empty.reshape(0, 2)
    tri = np.sort(elems[:, LOCAL_FACES], axis=2).astype(np.int64)  # (ne, 4, 3)
    flat = ((tri[..., 0] * nv + tri[..., 1]) * nv + tri[..., 2]).ravel()
    owner = np.repeat(np.arange(ne, dtype=np.int64), 4)
    order = np.argsort(flat, kind="stable")
    skeys, sown = flat[order], owner[order]
    new_grp = np.empty(skeys.shape[0], dtype=bool)
    new_grp[0] = True
    new_grp[1:] = skeys[1:] != skeys[:-1]
    starts = np.flatnonzero(new_grp)
    counts = np.diff(np.append(starts, skeys.shape[0]))
    assert not np.any(counts > 2)
    b_idx, i_idx = starts[counts == 1], starts[counts == 2]
    bkeys = skeys[b_idx]
    bnd_faces = np.column_stack([bkeys // (nv * nv), (bkeys // nv) % nv, bkeys % nv])
    dual_pairs = np.column_stack([sown[i_idx], sown[i_idx + 1]])
    return bnd_faces, sown[b_idx], dual_pairs


def oracle_tet_volumes(coords, elems):
    p = coords[elems]  # (ne, 4, 3)
    a, b, c = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


def oracle_edge_rank_incidence(mesh, part):
    owner = part[np.repeat(np.arange(mesh.ne), 6)]
    eids = mesh.elem2edge.ravel()
    order = np.lexsort((owner, eids))
    e_sorted, r_sorted = eids[order], owner[order]
    keep = np.ones(e_sorted.shape[0], dtype=bool)
    keep[1:] = (e_sorted[1:] != e_sorted[:-1]) | (r_sorted[1:] != r_sorted[:-1])
    return e_sorted[keep], r_sorted[keep]


# --- inputs --------------------------------------------------------------------


def _refined(mesh, levels=3, seed=0):
    """``mesh`` after ``levels`` rounds of random marking and subdivision."""
    rng = np.random.default_rng(seed)
    adaptive = AdaptiveMesh(mesh)
    for _ in range(levels):
        error = rng.uniform(size=adaptive.mesh.nedges)
        adaptive.refine(adaptive.mark(edge_error=error, refine_frac=0.15))
    return adaptive.mesh


def _empty_mesh():
    return TetMesh.from_elems(np.zeros((4, 3)), np.empty((0, 4), dtype=np.int64))


MESHES = {
    "empty": _empty_mesh,
    "single_tet": single_tet,
    "two_tets": two_tets,
    "box_1x1x1": lambda: box_mesh(1, 1, 1),
    "box_4x3x2": lambda: box_mesh(4, 3, 2),
    "rotor_4": lambda: rotor_domain_mesh(resolution=4)[0],
    "box_refined_3_levels": lambda: _refined(box_mesh(3, 3, 3), seed=1),
    "rotor_refined_3_levels": lambda: _refined(rotor_domain_mesh(resolution=3)[0], seed=2),
}


@pytest.fixture(params=sorted(MESHES), scope="module")
def mesh(request):
    return MESHES[request.param]()


def _scrambled(mesh):
    """The element list as a caller may hand it over: vertices of each
    element in arbitrary order (``from_elems`` has re-oriented ``mesh.elems``)."""
    rng = np.random.default_rng(7)
    return rng.permuted(mesh.elems, axis=1)


# --- equivalence -----------------------------------------------------------------


def test_build_edges_matches_unique(mesh):
    for elems in (mesh.elems, _scrambled(mesh)):
        edges, elem2edge = build_edges(elems, mesh.nv)
        ref_edges, ref_elem2edge = oracle_build_edges(elems, mesh.nv)
        assert np.array_equal(edges, ref_edges)
        assert np.array_equal(elem2edge, ref_elem2edge)
        assert edges.dtype == elem2edge.dtype == np.int64
        assert elem2edge.shape == (mesh.ne, 6)


def test_build_faces_matches_stable_sort(mesh):
    for elems in (mesh.elems, _scrambled(mesh)):
        got = build_faces(elems, mesh.nv)
        ref = oracle_build_faces(elems, mesh.nv)
        for new, old in zip(got, ref):
            assert np.array_equal(new, old)
            assert new.dtype == np.int64 and new.shape == old.shape
        dual_pairs = got[2]
        assert np.all(dual_pairs[:, 0] < dual_pairs[:, 1])


def test_tet_volumes_matches_np_cross(mesh):
    assert np.array_equal(
        tet_volumes(mesh.coords, mesh.elems), oracle_tet_volumes(mesh.coords, mesh.elems)
    )
    scrambled = _scrambled(mesh)  # negative volumes too
    assert np.array_equal(
        tet_volumes(mesh.coords, scrambled), oracle_tet_volumes(mesh.coords, scrambled)
    )


@pytest.mark.parametrize("nranks", [1, 2, 7, 16])
def test_edge_rank_incidence_matches_lexsort(mesh, nranks):
    part = np.random.default_rng(nranks).integers(0, nranks, size=mesh.ne)
    edge_ids, rank_ids = _edge_rank_incidence(mesh, part)
    ref_edge_ids, ref_rank_ids = oracle_edge_rank_incidence(mesh, part)
    assert np.array_equal(edge_ids, ref_edge_ids)
    assert np.array_equal(rank_ids, ref_rank_ids)
