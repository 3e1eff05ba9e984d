"""Mesh export.

The paper's finalization phase exists so "the host can then interface the
mesh directly to the appropriate post-processing module"; this module
writes a legacy-ASCII VTK file for viewers.
"""

from __future__ import annotations

import os

import numpy as np

from .tetmesh import TetMesh

__all__ = ["write_vtk"]

#: The VTK header's title line.
TITLE = "repro mesh"


def write_vtk(
    path: str,
    mesh: TetMesh,
    cell_data: dict[str, np.ndarray] | None = None,
) -> None:
    """Write a legacy-ASCII VTK unstructured grid (tetra cells).

    ``cell_data`` maps field names to per-element scalar arrays.
    """
    cell_data = cell_data or {}
    for name, arr in cell_data.items():
        if np.asarray(arr).shape[0] != mesh.ne:
            raise ValueError(f"cell field {name!r} must have {mesh.ne} values")

    lines = [
        "# vtk DataFile Version 3.0",
        TITLE,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.nv} double",
    ]
    lines.extend(" ".join(f"{x:.17g}" for x in p) for p in mesh.coords)
    lines.append(f"CELLS {mesh.ne} {5 * mesh.ne}")
    lines.extend("4 " + " ".join(str(v) for v in e) for e in mesh.elems)
    lines.append(f"CELL_TYPES {mesh.ne}")
    lines.extend("10" for _ in range(mesh.ne))  # VTK_TETRA

    if cell_data:
        lines.append(f"CELL_DATA {mesh.ne}")
        for name, arr in cell_data.items():
            arr = np.asarray(arr, dtype=np.float64).ravel()
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in arr)

    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
