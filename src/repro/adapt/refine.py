"""The subdivision phase of mesh refinement (paper §3).

Given a mesh whose elements carry *valid* 6-bit patterns (the fixpoint of
:func:`repro.adapt.marking.propagate_markings`), each element is subdivided
independently:

* **1:2** — the marked edge ``(a, b)`` is bisected at its midpoint ``m``;
  children replace ``a`` resp. ``b`` by ``m``.
* **1:4** — the marked face ``(A, B, C)`` (apex ``D``) is split into four
  triangles; children are three corner tets plus the medial tet, all with
  apex ``D``.
* **1:8** — isotropic: four corner tets plus the inner octahedron, which is
  split into four tets around its shortest diagonal (the three candidate
  diagonals join midpoints of opposite edges).

Subdivision is vectorized by grouping elements over the 14 concrete cases
(6 edges × 1:2, 4 faces × 1:4, 3 diagonals × 1:8, plus unrefined).  The
result records full provenance — parent element, midpoint vertex per
bisected edge, child edges of each bisected edge — which the refinement
forest and the coarsening procedure consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import (
    FACE_EDGE_MASKS,
    FACE_EDGES,
    LOCAL_EDGES,
    LOCAL_FACES,
    OPPOSITE_EDGE,
)
from repro.unique import unique_inverse

from .marking import MarkingResult
from .patterns import NUM_CHILDREN, UPGRADE

__all__ = ["RefineResult", "subdivide", "SUBDIV_WORK_PER_CHILD"]

#: Work units to create one child element (allocate, connect, update shared
#: data) — far costlier than one marking-phase pattern check (1 unit), which
#: is why the subdivision phase dominates the adaptor's runtime.
SUBDIV_WORK_PER_CHILD = 30.0

# Octahedron equator cycles: for the diagonal joining the midpoints of local
# edges (d, OPPOSITE_EDGE[d]), the other four midpoints in cyclic order such
# that consecutive entries share a parent vertex (see tests for the check).
_DIAG_CYCLE = {0: (1, 2, 4, 3), 1: (0, 2, 5, 3), 2: (0, 1, 5, 4)}


# --- precomputed child index tables ----------------------------------------
# Each table row is one child tet, with entries indexing the 10-wide
# per-element vertex row [v0, v1, v2, v3, m0, ..., m5] (parent corners then
# edge midpoints).  Child assembly for a whole pattern group is then a
# single fancy-index gather instead of per-face/per-diagonal column stacks.

#: Barycentric coordinates of the 10-wide row's entries in the parent.
_BARY = np.vstack([np.eye(4), np.eye(4)[LOCAL_EDGES].mean(axis=1)])


def _right_handed(rows) -> np.ndarray:
    """``rows`` with ``fix_orientation``'s swap of entries 2 and 3 made
    where a right-handed parent would get a left-handed child: a child's
    signed volume is its parent's times its row's barycentric determinant."""
    table = np.array(rows, dtype=np.int64)
    flip = np.linalg.det(_BARY[table]) < 0
    table[flip] = table[flip][:, [0, 1, 3, 2]]
    return table


def _build_child_tables() -> list[tuple[int, np.ndarray]]:
    tables: list[tuple[int, np.ndarray]] = []
    # 1:2 — the marked edge (a, b) is bisected: children swap one endpoint
    for le in range(6):
        a, b = (int(x) for x in LOCAL_EDGES[le])
        c1 = list(range(4))
        c1[b] = 4 + le
        c2 = list(range(4))
        c2[a] = 4 + le
        tables.append((1 << le, _right_handed([c1, c2])))
    # 1:4 — marked face (A, B, C) with apex D: three corner tets + medial
    for f in range(4):
        A, B, C = (int(x) for x in LOCAL_FACES[f])
        D = (set(range(4)) - {A, B, C}).pop()
        eAB, eAC, eBC = (4 + int(e) for e in FACE_EDGES[f])
        tables.append(
            (
                int(FACE_EDGE_MASKS[f]),
                _right_handed(
                    [
                        [A, eAB, eAC, D],
                        [B, eAB, eBC, D],
                        [C, eAC, eBC, D],
                        [eAB, eBC, eAC, D],
                    ]
                ),
            )
        )
    return tables


_CHILD_TABLES = _build_child_tables()

#: 1:8 corner tets (independent of the octahedron diagonal choice).
_CORNER_TABLE = _right_handed(
    [
        [c, 4 + e0, 4 + e1, 4 + e2]
        for c, (e0, e1, e2) in enumerate(
            [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
        )
    ]
)

#: 1:8 octahedron tets for each diagonal choice d.
_OCTA_TABLES = {
    d: _right_handed(
        [
            [4 + d, 4 + int(OPPOSITE_EDGE[d]), 4 + cyc[k], 4 + cyc[(k + 1) % 4]]
            for k in range(4)
        ]
    )
    for d, cyc in _DIAG_CYCLE.items()
}

#: Local edge id of each corner pair ``(p, q)``, ``p < q``.
_EDGE_OF = {(p, q): e for e, (p, q) in enumerate(LOCAL_EDGES.tolist())}


def _edge_sources(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(table, pieces, inner, cols)``: where each child edge comes from.

    ``pieces`` rows ``(e, w, c, o)`` are a piece of parent local edge
    ``e``: the whole edge (``w`` = 0) or its half at corner ``c`` whose
    other end is corner ``o`` (``w`` = 1).  ``inner`` rows are pairs of
    10-wide row entries joined by an edge the parent lacks: in a face, or
    the octahedron's diagonal.  ``cols`` is each child edge's column,
    ``(nchild, 6)``, in ``pieces`` then ``inner``.
    """
    srcs = []
    for p, q in np.sort(table[:, LOCAL_EDGES], axis=2).reshape(-1, 2).tolist():
        if q < 4:
            srcs.append((_EDGE_OF[p, q], 0, 0, 0))
        elif p in LOCAL_EDGES[q - 4]:
            srcs.append((q - 4, 1, p, int(LOCAL_EDGES[q - 4].sum()) - p))
        else:
            srcs.append((p, q))
    pieces = sorted({x for x in srcs if len(x) == 4})
    inner = sorted({x for x in srcs if len(x) == 2})
    col = {x: i for i, x in enumerate(pieces + inner)}
    return (table, np.array(pieces).reshape(-1, 4),
            np.array(inner, dtype=np.int64).reshape(-1, 2),
            np.array([col[x] for x in srcs]).reshape(-1, 6))


#: The refined cases: 1:2 and 1:4 by pattern, then 1:8 (its corners, then
#: its octahedron) by diagonal.
_CASES = [(p, _edge_sources(t)) for p, t in _CHILD_TABLES]
_CASES8 = [_edge_sources(np.vstack([_CORNER_TABLE, t]))
           for t in _OCTA_TABLES.values()]

#: Child faces of a face, indexing [A, B, C, mAB, mAC, mBC], by which of
#: its edges AB, AC, BC (bits 1, 2, 4) are bisected: valid patterns bisect
#: 0, 1 or 3 edges of a face.
_FACE_SPLITS = {0: [[0, 1, 2]], 1: [[0, 3, 2], [3, 1, 2]],
                2: [[0, 1, 4], [4, 1, 2]], 4: [[0, 1, 5], [0, 5, 2]],
                7: [[0, 3, 4], [1, 3, 5], [2, 4, 5], [3, 4, 5]]}


@dataclass(frozen=True)
class RefineResult:
    """Provenance of one subdivision step.

    Attributes
    ----------
    mesh:
        The refined mesh (fresh connectivity; vertex ids 0..nv_old-1 are the
        old vertices, the rest are edge midpoints).
    parent:
        ``(ne_new,)`` old element id of each new element.
    child_count:
        ``(ne_old,)`` number of children per old element (1 = unrefined).
    midpoint_of:
        ``(nedges_old,)`` new vertex id of each bisected old edge, -1 else.
    edge_children:
        ``(nedges_old, 2)`` ids *in the new mesh* of the two half-edges of
        each bisected old edge ((a, m) then (m, b)), -1 rows otherwise.
    edge_survivor:
        ``(nedges_old,)`` id in the new mesh of each unbisected old edge,
        -1 for bisected ones.
    solution:
        Vertex solution carried to the new mesh (midpoints linearly
        interpolated), or None if no solution was supplied.
    """

    mesh: TetMesh
    parent: np.ndarray
    child_count: np.ndarray
    midpoint_of: np.ndarray
    edge_children: np.ndarray
    edge_survivor: np.ndarray
    solution: np.ndarray | None

    @property
    def growth_factor(self) -> float:
        """Mesh growth factor G = ne_new / ne_old (paper §5, Fig. 7)."""
        return self.mesh.ne / self.child_count.shape[0]


def subdivide(
    mesh: TetMesh,
    marking: MarkingResult,
    solution: np.ndarray | None = None,
) -> RefineResult:
    """Subdivide every element according to its (valid) pattern.

    ``ValueError`` when the patterns are not valid or ``edge_marked`` is
    not the edge mask they were computed from.
    """
    patterns = np.asarray(marking.patterns, dtype=np.int64)
    if patterns.shape != (mesh.ne,):
        raise ValueError(f"patterns must have shape ({mesh.ne},)")
    if not np.array_equal(UPGRADE[patterns], patterns):
        raise ValueError("patterns must be valid (run propagate_markings first)")
    edge_marked = np.asarray(marking.edge_marked, dtype=bool)
    if edge_marked.shape != (mesh.nedges,):
        raise ValueError(f"edge_marked must have shape ({mesh.nedges},)")

    # --- midpoint vertices --------------------------------------------------
    nv_old = mesh.nv
    marked_ids = np.flatnonzero(edge_marked)
    midpoint_of = np.full(mesh.nedges, -1, dtype=np.int64)
    midpoint_of[marked_ids] = nv_old + np.arange(marked_ids.shape[0])
    mid_coords = 0.5 * (
        mesh.coords[mesh.edges[marked_ids, 0]] + mesh.coords[mesh.edges[marked_ids, 1]]
    )
    new_coords = np.vstack([mesh.coords, mid_coords])

    # the patterns the bisected edges spell, bit i from local edge i, packed
    # straight to one byte per element
    spelled = np.packbits(edge_marked[mesh.elem2edge], axis=1,
                          bitorder="little")[:, 0]
    if not np.array_equal(spelled, patterns):
        raise ValueError("edge_marked disagrees with patterns")

    new_elems, edges, edge_children, edge_survivor = _assemble_children(
        mesh, midpoint_of, patterns, new_coords)
    child_count = NUM_CHILDREN[patterns]
    parent = np.repeat(np.arange(mesh.ne), child_count)
    # right-handed children, the parent's edges and boundary split: no sort
    new_mesh = TetMesh.from_elems(new_coords, new_elems, orient=False,
                                  bnd_faces=_split_boundary(mesh, midpoint_of),
                                  edges=edges)

    # --- solution interpolation -------------------------------------------------
    new_solution = None
    if solution is not None:
        solution = np.asarray(solution, dtype=np.float64)
        if solution.shape[0] != nv_old:
            raise ValueError(
                f"solution has {solution.shape[0]} rows, mesh has {nv_old} vertices"
            )
        mid_sol = 0.5 * (
            solution[mesh.edges[marked_ids, 0]] + solution[mesh.edges[marked_ids, 1]]
        )
        new_solution = np.concatenate([solution, mid_sol])

    return RefineResult(
        mesh=new_mesh,
        parent=parent,
        child_count=child_count,
        midpoint_of=midpoint_of,
        edge_children=edge_children,
        edge_survivor=edge_survivor,
        solution=new_solution,
    )


def _split_boundary(mesh: TetMesh, midpoint_of: np.ndarray) -> np.ndarray:
    """The parent's boundary faces split by :data:`_FACE_SPLITS` and sorted
    as ``build_faces`` sorts them: ``nb`` faces, not the mesh's ``4·ne``."""
    bnd, nv = mesh.bnd_faces, mesh.nv
    keys = mesh.edges[:, 0] * nv + mesh.edges[:, 1]
    fm = midpoint_of[np.searchsorted(keys, bnd[:, [0, 0, 1]] * nv + bnd[:, [1, 2, 2]])]
    split = (fm >= 0) @ np.array([1, 2, 4])
    assert np.isin(split, list(_FACE_SPLITS)).all(), "no face has 2 bisected edges"
    fv = np.concatenate([bnd, fm], axis=1)
    tris = np.concatenate(
        [fv[split == s][:, t].reshape(-1, 3) for s, t in _FACE_SPLITS.items()]
    )
    tris.sort(axis=1)
    return tris[np.lexsort(tris.T[::-1])]


def _shortest_diagonals(
    mids: np.ndarray, new_coords: np.ndarray
) -> np.ndarray:
    """Per-element index d of the shortest octahedron diagonal (d, opposite)."""
    dlen = np.empty((mids.shape[0], 3))
    for d in range(3):
        o = OPPOSITE_EDGE[d]
        dlen[:, d] = np.linalg.norm(
            new_coords[mids[:, d]] - new_coords[mids[:, o]], axis=1
        )
    return np.argmin(dlen, axis=1)


#: Parents per block of a case's assembly, which bounds its temporaries.
_BLOCK = 1 << 13


def _assemble_children(
    mesh: TetMesh,
    midpoint_of: np.ndarray,
    patterns: np.ndarray,
    new_coords: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """The children, parent-major, and their edge table from the parent's.

    Returns ``(elems, (edges, elem2edge), edge_children, edge_survivor)``,
    what ``build_edges`` and a search of its table would give (DESIGN.md
    §9).  Each case's parents gather their 10-wide rows ``[corners,
    midpoints]``; a table gather gives their children, written at each
    parent's first child row.  A child edge is coded through its parent:
    ``3·e`` for the parent's edge ``e`` whole, ``3·e + 1`` / ``+ 2`` for
    its half at the lower / higher end, or ``3·ne_old`` plus its slot among
    the new keys — the halves, then each case's inner edges, once per
    parent that has them.  One sort of the new keys finds their distinct
    edges, a merge with the unbisected edges (already sorted) numbers the
    table, and the codes become ids in place.
    """
    nv, n_old = new_coords.shape[0], mesh.nedges
    count = NUM_CHILDREN[patterns]
    first = np.cumsum(count) - count  # each parent's first child row
    elems = np.empty((int(count.sum()), 4), dtype=np.int64)
    code = np.empty((elems.shape[0], 6), dtype=np.int64)
    keep = np.flatnonzero(patterns == 0)  # one child: the parent, edges whole
    elems[first[keep]] = mesh.elems[keep]
    code[first[keep]] = 3 * mesh.elem2edge[keep]
    del count, keep
    marked = np.flatnonzero(midpoint_of >= 0)
    keys = [(mesh.edges[marked].T * nv + midpoint_of[marked]).ravel()]
    nkeys = keys[0].size
    idx8 = np.flatnonzero(patterns == 0b111111)
    diag = _shortest_diagonals(midpoint_of[mesh.elem2edge[idx8]], new_coords)
    cases = [(np.flatnonzero(patterns == p), case) for p, case in _CASES]
    cases += [(idx8[diag == d], case) for d, case in enumerate(_CASES8)]
    for parents, (table, pieces, inner, cols) in cases:
        e, w, c, o = pieces.T
        for lo in range(0, parents.size, _BLOCK):  # bounded temporaries
            idx = parents[lo: lo + _BLOCK]
            e2e = mesh.elem2edge[idx]
            v = np.concatenate([mesh.elems[idx], midpoint_of[e2e]], axis=1)
            rows = first[idx, None] + np.arange(table.shape[0])
            elems[rows] = v[:, table]
            vi, vj = v[:, inner[:, 0]], v[:, inner[:, 1]]
            k = np.minimum(vi, vj)
            k *= nv
            k += np.maximum(vi, vj, out=vi)
            keys.append(k.ravel())
            slots = np.arange(nkeys, nkeys + k.size).reshape(k.shape)
            nkeys += k.size
            code[rows] = np.concatenate(
                [3 * e2e[:, e] + w + (v[:, c] > v[:, o]), slots + 3 * n_old],
                axis=1)[:, cols]
    del first
    new, inv = unique_inverse(np.concatenate(keys))
    del keys
    kept = np.flatnonzero(midpoint_of < 0)
    old = mesh.edges[kept]
    # two sorted runs: the stable sort (a timsort) only merges them
    order = np.argsort(np.concatenate([old[:, 0] * nv + old[:, 1], new]),
                       kind="stable")
    at = np.empty_like(order)  # each run entry's place in the merged table
    at[order] = np.arange(order.size)
    del order
    edges = np.empty((at.size, 2), dtype=np.int64)
    edges[at[: kept.size]] = old
    del old
    edges[at[kept.size:], 0], edges[at[kept.size:], 1] = np.divmod(new, nv)
    del new
    ids = np.full(3 * n_old + nkeys, -1, dtype=np.int64)
    ids[3 * kept] = at[: kept.size]
    np.take(at[kept.size:], inv, out=ids[3 * n_old:], mode="clip")  # unbuffered
    del at, inv
    ids[3 * marked + 1] = ids[3 * n_old:][: marked.size]
    ids[3 * marked + 2] = ids[3 * n_old + marked.size:][: marked.size]
    for lo in range(0, code.shape[0], _BLOCK):  # codes to ids, in place
        code[lo: lo + _BLOCK] = ids[code[lo: lo + _BLOCK]]
    per_edge = ids[: 3 * n_old].reshape(-1, 3)
    return elems, (edges, code), per_edge[:, 1:].copy(), per_edge[:, 0].copy()
