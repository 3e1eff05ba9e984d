"""Tetrahedral mesh substrate with 3D_TAG-style edge-based connectivity."""

from .generate import BladeSpec, box_mesh, rotor_domain_mesh
from .geometry import (
    edge_lengths,
    edge_midpoints,
    fix_orientation,
    tet_volumes,
)
from .tetmesh import TetMesh
from .topology import (
    FACE_EDGE_MASKS,
    FACE_EDGES,
    LOCAL_EDGES,
    LOCAL_FACES,
    OPPOSITE_EDGE,
)

__all__ = [
    "BladeSpec",
    "FACE_EDGES",
    "FACE_EDGE_MASKS",
    "LOCAL_EDGES",
    "LOCAL_FACES",
    "OPPOSITE_EDGE",
    "TetMesh",
    "box_mesh",
    "edge_lengths",
    "edge_midpoints",
    "fix_orientation",
    "rotor_domain_mesh",
    "tet_volumes",
]
