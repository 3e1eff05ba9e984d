"""Derivation of edge/face connectivity from an element list (vectorized).

These routines build the edge-based data structures of paper §3 that the
adaptor, the solver and the load balancer read: the global edge list, the
element→edge incidence (six edges per tetrahedron), the boundary faces and
the interior-face element pairs (the dual graph's edges).  Paper §3's
edge→element lists are not built: the vectorised adaptor works from the
element→edge map alone.  The faces are sorted only for a mesh built from
scratch, or when a refined mesh's ``dual_pairs`` is read: subdivision
derives a refined mesh's boundary from its parent's (DESIGN.md §9).

Edges and faces are identified by packing their sorted vertex ids into one
``int64`` key.  The keys are formed in place from column gathers of the
element list and sorted once; every large temporary is dropped as soon as
its last reader is done, because on a mesh that has just grown each fresh
page of the high-water mark is paid for in wall time (DESIGN.md §9).
"""

from __future__ import annotations

import math

import numpy as np

from .topology import LOCAL_EDGES, LOCAL_FACES

__all__ = ["build_edges", "build_faces"]

#: Largest vertex count whose edge keys ``lo·nv + hi`` (< nv²) fit ``int64``.
MAX_NV_EDGES = math.isqrt(np.iinfo(np.int64).max)  # 3 037 000 499
#: Largest vertex count whose face keys ``(v0·nv + v1)·nv + v2`` (< nv³) fit.
MAX_NV_FACES = 1 << 21  # 2 097 152


def _check_key_range(nv: int, limit: int, what: str) -> None:
    if nv > limit:
        raise ValueError(
            f"nv = {nv} exceeds the limit of {limit} vertices above which "
            f"{what} keys overflow int64"
        )


def build_edges(elems: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract unique edges and the ``(ne, 6)`` element→edge map.

    Edges are returned as an ``(nedge, 2)`` array with the lower vertex id
    first, sorted lexicographically, so edge ids are a deterministic
    function of the element list.  One argsort of the ``6·ne`` packed keys
    yields both outputs: the sorted distinct keys are the edges, and the
    running count of distinct keys, scattered back through the sort
    permutation, is the element→edge map (equal keys receive equal ids, so
    the sort need not be stable).

    Raises
    ------
    ValueError
        If ``nv`` is so large that ``lo·nv + hi`` would overflow ``int64``.
    """
    _check_key_range(nv, MAX_NV_EDGES, "edge")
    elems = np.asarray(elems)
    ne = elems.shape[0]
    a = elems[:, LOCAL_EDGES[:, 0]].astype(np.int64, copy=False)  # (ne, 6)
    b = elems[:, LOCAL_EDGES[:, 1]]
    keys = np.minimum(a, b)
    keys *= nv
    keys += np.maximum(a, b, out=a)
    del a, b
    keys = keys.ravel()
    order = np.argsort(keys)
    skeys = keys[order]
    first = np.empty(skeys.shape[0], dtype=bool)  # first of its run of equals
    first[:1] = True
    np.not_equal(skeys[1:], skeys[:-1], out=first[1:])
    uniq = skeys[first]
    del skeys
    edge_id = np.cumsum(first, out=keys)  # reuses the key buffer
    edge_id -= 1
    elem2edge = np.empty(ne * 6, dtype=np.int64)
    elem2edge[order] = edge_id
    edges = np.empty((uniq.shape[0], 2), dtype=np.int64)
    np.floor_divide(uniq, nv, out=edges[:, 0])
    np.remainder(uniq, nv, out=edges[:, 1])
    return edges, elem2edge.reshape(ne, 6)


def build_faces(elems: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Classify the triangular faces of a tetrahedral mesh.

    The ``4·ne`` packed face keys are argsorted once, *unstably* (the SIMD
    sort): a boundary face is alone in its run of equal keys, and an
    interior face is a run of exactly two whose owners are put lower
    element first with ``min``/``max`` — which is the order a stable sort
    would have left them in, since owners ascend with key position.

    Returns
    -------
    bnd_faces:
        ``(nb, 3)`` vertex triples of faces belonging to exactly one element,
        each ascending, in ascending key (lexicographic) order.
    dual_pairs:
        ``(ni, 2)`` element pairs sharing each interior face, lower element
        first — exactly the edge list of the dual graph (paper §4.1).

    Raises
    ------
    ValueError
        If any face is shared by more than two elements (non-manifold mesh),
        or if ``nv`` is so large that the face keys would overflow ``int64``.
    """
    _check_key_range(nv, MAX_NV_FACES, "face")
    elems = np.asarray(elems)
    ne = elems.shape[0]
    # the three corners of each local face, then their min / middle / max
    a = elems[:, LOCAL_FACES[:, 0]].astype(np.int64, copy=False)  # (ne, 4)
    b = elems[:, LOCAL_FACES[:, 1]]
    c = elems[:, LOCAL_FACES[:, 2]]
    keys = np.minimum(a, b)
    np.minimum(keys, c, out=keys)
    hi = np.maximum(a, b)
    np.maximum(hi, c, out=hi)
    a += b
    a += c
    a -= keys
    a -= hi  # the middle vertex: the sum less the two extremes
    del b, c
    keys *= nv
    keys += a
    keys *= nv
    keys += hi
    del a, hi
    keys = keys.ravel()
    owner = np.argsort(keys)  # key positions for now; position // 4 owns it
    skeys = keys[owner]
    del keys
    same = skeys[1:] == skeys[:-1]  # same[i]: sorted keys i and i+1 agree
    triple = same[1:] & same[:-1]
    if triple.any():
        bad = skeys[1:-1][triple][0]
        raise ValueError(f"non-manifold mesh: face key {bad} in >2 elements")
    owner >>= 2
    i_idx = np.flatnonzero(same)  # first of each run of two
    single = np.ones(skeys.shape[0], dtype=bool)
    single[i_idx] = False
    single[i_idx + 1] = False
    b_idx = np.flatnonzero(single)

    bkeys = skeys[b_idx]
    del skeys
    bnd_faces = np.empty((b_idx.shape[0], 3), dtype=np.int64)
    np.remainder(bkeys, nv, out=bnd_faces[:, 2])
    bkeys //= nv
    np.remainder(bkeys, nv, out=bnd_faces[:, 1])
    np.floor_divide(bkeys, nv, out=bnd_faces[:, 0])

    first = owner[i_idx]
    i_idx += 1
    second = owner[i_idx]
    dual_pairs = np.empty((i_idx.shape[0], 2), dtype=np.int64)
    np.minimum(first, second, out=dual_pairs[:, 0])
    np.maximum(first, second, out=dual_pairs[:, 1])
    return bnd_faces, dual_pairs
