"""The tetrahedral mesh container with edge-based connectivity."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .build import build_edges, build_faces
from .geometry import fix_orientation, tet_volumes

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

    All of them are built by :meth:`from_elems`, and every mesh consumer
    (adaptor, solver, dual graph) reads them.  Paper §3's edge→element
    lists are not kept: the vectorised adaptor works from ``elem2edge``
    alone.
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
        element→edge map, the boundary faces and the dual-graph pairs.
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

    def volumes(self) -> np.ndarray:
        return tet_volumes(self.coords, self.elems)
