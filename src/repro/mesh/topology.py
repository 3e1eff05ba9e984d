"""Canonical local topology of a tetrahedral element.

The whole adaption scheme (paper §3) is *edge based*: an element is defined
by its six edges rather than its four vertices.  This module pins down the
local numbering conventions shared by the mesh, adaptor, and dual-graph
modules.

Local vertex order: ``v0, v1, v2, v3``; an element is positively oriented
when ``det[v1-v0, v2-v0, v3-v0] > 0``.

Local edge order (index → vertex pair)::

    0: (0,1)   1: (0,2)   2: (0,3)   3: (1,2)   4: (1,3)   5: (2,3)

Local face order (index → vertex triple, and the edges each face contains)::

    0: (0,1,2) -> edges {0,1,3}
    1: (0,1,3) -> edges {0,2,4}
    2: (0,2,3) -> edges {1,2,5}
    3: (1,2,3) -> edges {3,4,5}
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LOCAL_EDGES",
    "EVEN_CORNERS",
    "LOCAL_FACES",
    "FACE_EDGES",
    "FACE_EDGE_MASKS",
    "OPPOSITE_EDGE",
    "EDGE_FACES",
]

#: Local edge index -> (local vertex, local vertex).
LOCAL_EDGES = np.array(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64
)

#: Local edge index -> the corner order ``(a, b, k, l)`` that starts with
#: the edge's ``(a, b)`` and is an even permutation of ``(0, 1, 2, 3)``:
#: the orientation of the edge's median-dual interface from ``a`` to ``b``.
EVEN_CORNERS = np.array(
    [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0), (2, 3, 0, 1)],
    dtype=np.int64,
)

#: Local face index -> (local vertex triple).
LOCAL_FACES = np.array(
    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], dtype=np.int64
)

#: Local face index -> the three local edge indices lying on that face.
FACE_EDGES = np.array(
    [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)], dtype=np.int64
)

#: Local face index -> 6-bit mask of the edges on that face.
FACE_EDGE_MASKS = np.array(
    [sum(1 << e for e in face) for face in FACE_EDGES], dtype=np.int64
)

#: Local edge index -> the opposite edge (sharing no vertex).
#: (0,1)<->(2,3), (0,2)<->(1,3), (0,3)<->(1,2)
OPPOSITE_EDGE = np.array([5, 4, 3, 2, 1, 0], dtype=np.int64)

#: Local edge index -> the two local faces containing it.
EDGE_FACES = np.array(
    [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)], dtype=np.int64
)


def _selfcheck() -> None:
    """Internal consistency of the constant tables (run at import)."""
    for e, (a, b) in enumerate(LOCAL_EDGES):
        o = OPPOSITE_EDGE[e]
        oa, ob = LOCAL_EDGES[o]
        assert {int(a), int(b)} | {int(oa), int(ob)} == {0, 1, 2, 3}
        faces = [
            f
            for f in range(4)
            if {int(a), int(b)} <= set(int(x) for x in LOCAL_FACES[f])
        ]
        assert faces == sorted(int(x) for x in EDGE_FACES[e])
    for f in range(4):
        fv = set(int(x) for x in LOCAL_FACES[f])
        for e in FACE_EDGES[f]:
            a, b = LOCAL_EDGES[e]
            assert {int(a), int(b)} <= fv
    assert np.array_equal(EVEN_CORNERS[:, :2], LOCAL_EDGES)
    for corners in EVEN_CORNERS.tolist():
        assert sorted(corners) == [0, 1, 2, 3]
        inversions = sum(a > b for i, a in enumerate(corners) for b in corners[i + 1 :])
        assert inversions % 2 == 0


_selfcheck()
