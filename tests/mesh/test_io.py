"""VTK export."""

import numpy as np
import pytest

from repro.mesh import box_mesh
from repro.mesh.io import write_vtk

from tests.fixtures import single_tet


def test_vtk_export(tmp_path):
    m = box_mesh(1, 1, 1)
    path = str(tmp_path / "out.vtk")
    write_vtk(path, m, cell_data={"part": np.arange(m.ne, dtype=float)})
    text = open(path).read()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert f"POINTS {m.nv} double" in text
    assert f"CELLS {m.ne} {5 * m.ne}" in text
    assert f"CELL_DATA {m.ne}" in text
    assert "SCALARS part double 1" in text
    assert text.count("\n10") >= m.ne - 1  # VTK_TETRA cell types


def test_vtk_field_shape_checks(tmp_path):
    m = single_tet()
    with pytest.raises(ValueError, match="cell field"):
        write_vtk(str(tmp_path / "b.vtk"), m, cell_data={"x": np.zeros(2)})
