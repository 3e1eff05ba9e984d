"""The tetrahedral mesh container with edge-based connectivity."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    bnd_faces:
        ``(nb, 3)`` boundary vertex triples, each ascending, lexicographic.
    dual_pairs:
        ``(ni, 2)`` pairs of elements sharing an interior face — the dual
        graph edge list used by the load balancer.

    Every mesh holds the first five, which the adaptor and the solver read.
    Only the initial mesh's dual graph reads ``dual_pairs`` (paper §4.1),
    so a refined mesh sorts its faces only when it is read.  Paper §3's
    edge→element lists are not kept: the vectorised adaptor works from
    ``elem2edge`` alone.
    """

    coords: np.ndarray
    elems: np.ndarray
    edges: np.ndarray = field(repr=False)
    elem2edge: np.ndarray = field(repr=False)
    bnd_faces: np.ndarray = field(repr=False)

    # --- construction -------------------------------------------------------

    @classmethod
    def from_elems(
        cls, coords: np.ndarray, elems: np.ndarray, orient: bool = True,
        bnd_faces: np.ndarray | None = None,
    ) -> "TetMesh":
        """Build the connectivity from vertices and an element list.

        The only constructor: validates shapes and index range, makes every
        element right-handed (``orient``), then derives the edge list, the
        element→edge map and, by one face sort, the boundary faces and the
        dual-graph pairs.  ``subdivide`` passes the boundary it split from
        the parent's, and the face sort waits for a read of ``dual_pairs``.
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
        mesh = cls(coords, elems, edges, elem2edge, bnd_faces)
        if bnd_faces is None:
            mesh.dual_pairs  # the face sort sets bnd_faces as well
        return mesh

    @cached_property
    def dual_pairs(self) -> np.ndarray:
        """The face sort, on first read; it fills a missing boundary too."""
        bnd_faces, dual_pairs = build_faces(self.elems, self.nv)
        if self.bnd_faces is None:
            self.bnd_faces = bnd_faces
        return dual_pairs

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
