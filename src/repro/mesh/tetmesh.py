"""The tetrahedral mesh container with edge-based connectivity."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .build import build_edges, build_faces, invert_to_csr
from .geometry import fix_orientation, tet_volumes
from .topology import LOCAL_EDGES

__all__ = ["TetMesh"]


@dataclass
class TetMesh:
    """An unstructured tetrahedral mesh with 3D_TAG-style connectivity.

    Attributes
    ----------
    coords:
        ``(nv, 3)`` vertex coordinates.
    elems:
        ``(ne, 4)`` vertex ids per element, positively oriented.
    edges:
        ``(nedge, 2)`` unique vertex pairs, lower id first, lexicographic.
    elem2edge:
        ``(ne, 6)`` edge ids per element in local edge order.
    bnd_faces / bnd_elem:
        ``(nb, 3)`` boundary vertex triples and their owning element.
    dual_pairs:
        ``(ni, 2)`` pairs of elements sharing an interior face — the dual
        graph edge list used by the load balancer.

    The arrays above are built eagerly by :meth:`from_elems` — every mesh
    consumer (adaptor, solver, dual graph) reads them.  The inverse
    adjacency of paper §3 is derived from them on first access and then
    kept; nothing shipped reads it (only :meth:`edge_elems` and
    :meth:`check`), so a mesh that is merely refined, solved on and
    partitioned never pays for it:

    edge2elem_ptr / edge2elem_dat:
        CSR adjacency from each edge to the elements sharing it.
    """

    coords: np.ndarray
    elems: np.ndarray
    edges: np.ndarray = field(repr=False)
    elem2edge: np.ndarray = field(repr=False)
    bnd_faces: np.ndarray = field(repr=False)
    bnd_elem: np.ndarray = field(repr=False)
    dual_pairs: np.ndarray = field(repr=False)

    # --- construction -------------------------------------------------------

    @classmethod
    def from_elems(
        cls, coords: np.ndarray, elems: np.ndarray, orient: bool = True
    ) -> "TetMesh":
        """Build the connectivity from vertices and an element list.

        The only constructor: validates shapes and index range, makes every
        element right-handed (``orient``), then derives the edge list, the
        element→edge map, the boundary faces and the dual-graph pairs.  The
        edge→element CSR list is *not* built here; it appears on first
        access (see the class docstring).
        """
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        elems = np.ascontiguousarray(elems, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must be (nv, 3), got {coords.shape}")
        if elems.ndim != 2 or elems.shape[1] != 4:
            raise ValueError(f"elems must be (ne, 4), got {elems.shape}")
        nv = coords.shape[0]
        if elems.size and (elems.min() < 0 or elems.max() >= nv):
            raise ValueError("element vertex index out of range")
        if orient:
            elems = fix_orientation(coords, elems)
        edges, elem2edge = build_edges(elems, nv)
        bnd_faces, bnd_elem, dual_pairs = build_faces(elems, nv)
        return cls(
            coords=coords,
            elems=elems,
            edges=edges,
            elem2edge=elem2edge,
            bnd_faces=bnd_faces,
            bnd_elem=bnd_elem,
            dual_pairs=dual_pairs,
        )

    # --- adjacency built on demand -------------------------------------------

    @cached_property
    def _edge2elem(self) -> tuple[np.ndarray, np.ndarray]:
        return invert_to_csr(self.elem2edge, self.nedges)

    @property
    def edge2elem_ptr(self) -> np.ndarray:
        return self._edge2elem[0]

    @property
    def edge2elem_dat(self) -> np.ndarray:
        return self._edge2elem[1]

    # --- sizes --------------------------------------------------------------

    @property
    def nv(self) -> int:
        return self.coords.shape[0]

    @property
    def ne(self) -> int:
        return self.elems.shape[0]

    @property
    def nedges(self) -> int:
        return self.edges.shape[0]

    @property
    def nbnd(self) -> int:
        return self.bnd_faces.shape[0]

    def sizes(self) -> dict[str, int]:
        """Grid-size row in the format of the paper's Table 1."""
        return {
            "vertices": self.nv,
            "elements": self.ne,
            "edges": self.nedges,
            "bdy_faces": self.nbnd,
        }

    # --- queries ------------------------------------------------------------

    def edge_elems(self, edge: int) -> np.ndarray:
        """Elements sharing ``edge`` (the edge's element list, paper §3)."""
        return self.edge2elem_dat[self.edge2elem_ptr[edge] : self.edge2elem_ptr[edge + 1]]

    def volumes(self) -> np.ndarray:
        return tet_volumes(self.coords, self.elems)

    def total_volume(self) -> float:
        return float(self.volumes().sum())

    # --- validation -----------------------------------------------------------

    def check(self) -> None:
        """Verify all structural invariants; raise AssertionError on failure.

        Intended for tests and debugging — O(ne log ne).
        """
        assert self.elems.shape == (self.ne, 4)
        assert np.all(self.edges[:, 0] < self.edges[:, 1]), "edge order"
        keys = self.edges[:, 0] * self.nv + self.edges[:, 1]
        assert np.all(np.diff(keys) > 0), "edges sorted & unique"
        vols = self.volumes()
        assert np.all(vols > 0), f"non-positive volumes: {np.sum(vols <= 0)}"
        # elem2edge consistency with local edge table
        pairs = np.sort(self.elems[:, LOCAL_EDGES], axis=2)
        assert np.array_equal(self.edges[self.elem2edge], pairs), "elem2edge"
        # every element has 4 distinct vertices
        assert np.all(
            np.diff(np.sort(self.elems, axis=1), axis=1) > 0
        ), "degenerate element"
        # CSR inverses round-trip
        for e in range(min(self.nedges, 50)):
            for el in self.edge_elems(e):
                assert e in self.elem2edge[el]
        # boundary faces belong to their owning element
        for f in range(min(self.nbnd, 50)):
            face = set(self.bnd_faces[f].tolist())
            assert face <= set(self.elems[self.bnd_elem[f]].tolist())
