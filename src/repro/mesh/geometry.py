"""Geometric primitives for tetrahedral meshes (vectorized)."""

from __future__ import annotations

import numpy as np

__all__ = [
    "tet_volumes",
    "fix_orientation",
    "edge_lengths",
    "edge_midpoints",
    "aspect_ratios",
]


def tet_volumes(coords: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Signed volumes of each tetrahedron (positive = right-handed)."""
    coords, elems = np.asarray(coords), np.asarray(elems)
    p0 = coords[elems[:, 0]]
    a = coords[elems[:, 1]]
    a -= p0
    b = coords[elems[:, 2]]
    b -= p0
    c = coords[elems[:, 3]]
    c -= p0
    # b × c spelled out: np.cross's own multiplies and subtractions, without
    # its axis shuffling and temporaries
    bxc = p0  # p0 has no further reader
    np.multiply(b[:, 1], c[:, 2], out=bxc[:, 0])
    bxc[:, 0] -= b[:, 2] * c[:, 1]
    np.multiply(b[:, 2], c[:, 0], out=bxc[:, 1])
    bxc[:, 1] -= b[:, 0] * c[:, 2]
    np.multiply(b[:, 0], c[:, 1], out=bxc[:, 2])
    bxc[:, 2] -= b[:, 1] * c[:, 0]
    return np.einsum("ij,ij->i", a, bxc) / 6.0


def fix_orientation(coords: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Return a copy of ``elems`` with every tetrahedron right-handed.

    Flipping the last two vertices negates the signed volume and leaves the
    element's vertex set (hence its edges) unchanged.
    """
    elems = np.array(elems, copy=True)
    neg = tet_volumes(coords, elems) < 0
    elems[neg, 2], elems[neg, 3] = elems[neg, 3].copy(), elems[neg, 2].copy()
    return elems


def edge_lengths(coords: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Euclidean length of each edge (``edges`` is an ``(n, 2)`` index array)."""
    d = coords[edges[:, 1]] - coords[edges[:, 0]]
    return np.linalg.norm(d, axis=1)


def edge_midpoints(coords: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Midpoint coordinates of each edge."""
    return 0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]])


def aspect_ratios(coords: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Crude element quality: longest edge cubed over volume, normalised so
    a regular tetrahedron scores 1.  Larger is worse; inf for degenerate."""
    from .topology import LOCAL_EDGES

    p = coords[elems]  # (ne, 4, 3)
    ev = p[:, LOCAL_EDGES[:, 1]] - p[:, LOCAL_EDGES[:, 0]]  # (ne, 6, 3)
    lmax = np.sqrt((ev**2).sum(axis=2)).max(axis=1)
    vol = np.abs(tet_volumes(coords, elems))
    # regular tet: V = L^3 / (6*sqrt(2))  =>  L^3 / V = 6*sqrt(2)
    with np.errstate(divide="ignore"):
        return (lmax**3 / vol) / (6.0 * np.sqrt(2.0))
