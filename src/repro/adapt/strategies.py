"""Geometric edge-marking strategies.

Paper §5: "Several other edge-marking strategies based on geometry have
been investigated elsewhere [1]."  The one kept here marks every edge
whose midpoint falls inside a sphere: a refinement region known exactly,
for controlled experiments.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.geometry import edge_midpoints
from repro.mesh.tetmesh import TetMesh

__all__ = ["mark_sphere"]


def mark_sphere(
    mesh: TetMesh, center: tuple[float, float, float], radius: float
) -> np.ndarray:
    """Edges whose midpoint lies inside a sphere."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    mid = edge_midpoints(mesh.coords, mesh.edges)
    d = np.linalg.norm(mid - np.asarray(center), axis=1)
    return d <= radius
