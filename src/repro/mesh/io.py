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


def write_vtk(
    path: str,
    mesh: TetMesh,
    point_data: dict[str, np.ndarray] | None = None,
    cell_data: dict[str, np.ndarray] | None = None,
    title: str = "repro mesh",
) -> None:
    """Write a legacy-ASCII VTK unstructured grid (tetra cells).

    ``point_data``/``cell_data`` map field names to per-vertex/per-element
    scalar arrays.
    """
    point_data = point_data or {}
    cell_data = cell_data or {}
    for name, arr in point_data.items():
        if np.asarray(arr).shape[0] != mesh.nv:
            raise ValueError(f"point field {name!r} must have {mesh.nv} values")
    for name, arr in cell_data.items():
        if np.asarray(arr).shape[0] != mesh.ne:
            raise ValueError(f"cell field {name!r} must have {mesh.ne} values")

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.nv} double",
    ]
    lines.extend(" ".join(f"{x:.17g}" for x in p) for p in mesh.coords)
    lines.append(f"CELLS {mesh.ne} {5 * mesh.ne}")
    lines.extend("4 " + " ".join(str(v) for v in e) for e in mesh.elems)
    lines.append(f"CELL_TYPES {mesh.ne}")
    lines.extend("10" for _ in range(mesh.ne))  # VTK_TETRA

    def emit_fields(kind: str, count: int, fields: dict) -> None:
        if not fields:
            return
        lines.append(f"{kind} {count}")
        for name, arr in fields.items():
            arr = np.asarray(arr, dtype=np.float64).ravel()
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in arr)

    emit_fields("POINT_DATA", mesh.nv, point_data)
    emit_fields("CELL_DATA", mesh.ne, cell_data)

    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
