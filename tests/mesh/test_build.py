"""Unit tests for connectivity derivation."""

import numpy as np
import pytest

from repro.mesh.build import (
    MAX_NV_EDGES,
    MAX_NV_FACES,
    build_edges,
    build_faces,
)

from tests.fixtures import single_tet, two_tets


def test_single_tet_counts():
    m = single_tet()
    assert m.nv == 4
    assert m.ne == 1
    assert m.nedges == 6
    assert m.nbnd == 4
    assert m.dual_pairs.shape == (0, 2)


def test_two_tets_counts():
    m = two_tets()
    assert m.ne == 2
    assert m.nedges == 9  # 6 + 6 - 3 shared on the common face
    assert m.nbnd == 6  # 8 faces total, 2 glued into 1 interior face
    assert m.dual_pairs.tolist() == [[0, 1]]


def test_build_edges_deterministic_order():
    elems = np.array([[3, 1, 0, 2]])
    edges, elem2edge = build_edges(elems, 4)
    # lexicographic over (lo, hi)
    assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    # local edge order of element (3,1,0,2): pairs (3,1),(3,0),(3,2),(1,0),(1,2),(0,2)
    assert elem2edge.tolist() == [[4, 2, 5, 0, 3, 1]]


def test_build_faces_nonmanifold_rejected():
    # three tets all sharing the face (0,1,2)
    elems = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(ValueError, match="non-manifold"):
        build_faces(elems, 6)


# --- packed keys must not wrap silently -----------------------------------


def test_build_faces_rejects_vertex_counts_whose_keys_overflow():
    elems = np.array([[0, 1, 2, 3]])
    build_faces(elems, MAX_NV_FACES)  # the limit itself still fits
    with pytest.raises(ValueError, match=rf"nv = {MAX_NV_FACES + 1}.*{MAX_NV_FACES}"):
        build_faces(elems, MAX_NV_FACES + 1)


def test_build_edges_rejects_vertex_counts_whose_keys_overflow():
    nv = MAX_NV_EDGES
    elems = np.array([[0, nv - 3, nv - 2, nv - 1]])  # the largest keys there are
    edges, _ = build_edges(elems, nv)
    assert edges.tolist() == [
        [0, nv - 3], [0, nv - 2], [0, nv - 1],
        [nv - 3, nv - 2], [nv - 3, nv - 1], [nv - 2, nv - 1],
    ]
    with pytest.raises(ValueError, match=rf"nv = {MAX_NV_EDGES + 1}.*{MAX_NV_EDGES}"):
        build_edges(elems, MAX_NV_EDGES + 1)


def test_face_keys_at_the_limit_do_not_wrap():
    # the three largest vertex ids: the largest key the packing can produce
    nv = MAX_NV_FACES
    elems = np.array([[0, nv - 3, nv - 2, nv - 1]])
    bnd_faces, dual_pairs = build_faces(elems, nv)
    assert bnd_faces.tolist() == [
        [0, nv - 3, nv - 2], [0, nv - 3, nv - 1], [0, nv - 2, nv - 1],
        [nv - 3, nv - 2, nv - 1],
    ]
    assert dual_pairs.shape == (0, 2)
