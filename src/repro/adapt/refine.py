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
from repro.parallel.ledger import CostLedger

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
    part: np.ndarray | None = None,
    ledger: CostLedger | None = None,
) -> RefineResult:
    """Subdivide every element according to its (valid) pattern.

    When ``part``/``ledger`` are given, each rank is charged work
    proportional to the number of children its elements create — this is
    how the load-(im)balance of the subdivision phase enters the timing
    model (remapping *before* subdivision balances exactly this phase).
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

    # per-element vertex ids and midpoint ids
    ev = mesh.elems  # (ne, 4)
    em = midpoint_of[mesh.elem2edge]  # (ne, 6), -1 where edge unbisected
    # the patterns the bisected edges spell, bit i from local edge i, packed
    # straight to one byte per element (no second (ne, 6) temporary)
    spelled = np.packbits(em >= 0, axis=1, bitorder="little")[:, 0]
    if not np.array_equal(spelled, patterns):
        raise ValueError("edge_marked disagrees with patterns")

    new_elems, parent = _assemble_children(ev, em, patterns, new_coords)
    # group children contiguously by parent element (stable order within)
    order = np.argsort(parent, kind="stable")
    new_elems = new_elems[order]
    parent = parent[order]
    child_count = np.bincount(parent, minlength=mesh.ne)
    assert np.array_equal(child_count, NUM_CHILDREN[patterns]), "child count"

    # right-handed children, the parent's boundary split: no full rebuild
    new_mesh = TetMesh.from_elems(new_coords, new_elems, orient=False,
                                  bnd_faces=_split_boundary(mesh, midpoint_of))

    # --- edge provenance ------------------------------------------------------
    nv_new = new_mesh.nv
    new_keys = new_mesh.edges[:, 0] * nv_new + new_mesh.edges[:, 1]

    def lookup(pairs: np.ndarray) -> np.ndarray:
        lo = pairs.min(axis=1).astype(np.int64)
        hi = pairs.max(axis=1).astype(np.int64)
        keys = lo * nv_new + hi
        pos = np.searchsorted(new_keys, keys)
        ok = (pos < new_keys.shape[0]) & (new_keys[np.minimum(pos, len(new_keys) - 1)] == keys)
        out = np.where(ok, pos, -1)
        return out

    edge_children = np.full((mesh.nedges, 2), -1, dtype=np.int64)
    if marked_ids.size:
        a = mesh.edges[marked_ids, 0]
        b = mesh.edges[marked_ids, 1]
        m = midpoint_of[marked_ids]
        edge_children[marked_ids, 0] = lookup(np.column_stack([a, m]))
        edge_children[marked_ids, 1] = lookup(np.column_stack([m, b]))
        assert np.all(edge_children[marked_ids] >= 0), "half-edges must exist"
    surv_ids = np.flatnonzero(~edge_marked)
    edge_survivor = np.full(mesh.nedges, -1, dtype=np.int64)
    if surv_ids.size:
        edge_survivor[surv_ids] = lookup(mesh.edges[surv_ids])
        assert np.all(edge_survivor[surv_ids] >= 0), "unbisected edges survive"

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

    # --- parallel timing: subdivision work ∝ children created ------------------
    if part is not None and ledger is not None:
        work = np.bincount(part, weights=child_count.astype(np.float64),
                           minlength=ledger.nranks)
        ledger.add_work_all(SUBDIV_WORK_PER_CHILD * work)
        ledger.barrier()

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


def _assemble_children(
    ev: np.ndarray,
    em: np.ndarray,
    patterns: np.ndarray,
    new_coords: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Build (child quadruples, parent ids) via the precomputed index tables.

    ``vm`` concatenates parent corners and edge midpoints into one 10-wide
    row per element, so every pattern group becomes a single gather
    ``vm[idx][:, table]``; transposing to (child, element, 4) before the
    reshape gives the child-major order of concatenating one column stack
    per child (the oracle in ``tests/kernels/oracles.py``).
    """
    vm = np.concatenate([ev, em], axis=1)  # (ne, 10)
    # seed with empties so meshes with no elements still assemble
    chunks: list[np.ndarray] = [np.empty((0, 4), dtype=np.int64)]
    parents: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    keep = patterns == 0
    if keep.any():
        chunks.append(ev[keep])
        parents.append(np.flatnonzero(keep))

    for pattern, table in _CHILD_TABLES:  # 6× 1:2 then 4× 1:4
        idx = np.flatnonzero(patterns == pattern)
        if not idx.size:
            continue
        kids = vm[idx][:, table]  # (nidx, nchild, 4)
        chunks.append(kids.transpose(1, 0, 2).reshape(-1, 4))
        parents.append(np.tile(idx, table.shape[0]))

    idx8 = np.flatnonzero(patterns == 0b111111)
    if idx8.size:
        vm8 = vm[idx8]
        chunks.append(vm8[:, _CORNER_TABLE].transpose(1, 0, 2).reshape(-1, 4))
        parents.append(np.tile(idx8, 4))
        diag = _shortest_diagonals(em[idx8], new_coords)
        for d in range(3):
            seld = diag == d
            if not seld.any():
                continue
            kids = vm8[seld][:, _OCTA_TABLES[d]]
            chunks.append(kids.transpose(1, 0, 2).reshape(-1, 4))
            parents.append(np.tile(idx8[seld], 4))

    return np.concatenate(chunks), np.concatenate(parents)
