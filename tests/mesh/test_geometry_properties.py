"""Property-based tests for mesh geometry and generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import box_mesh, edge_lengths, edge_midpoints

from tests.fixtures import aspect_ratios


@given(
    nx=st.integers(1, 4),
    ny=st.integers(1, 4),
    nz=st.integers(1, 4),
    sx=st.floats(0.2, 5.0),
    sy=st.floats(0.2, 5.0),
    sz=st.floats(0.2, 5.0),
)
@settings(max_examples=25, deadline=None)
def test_box_mesh_volume_and_validity(nx, ny, nz, sx, sy, sz):
    m = box_mesh(nx, ny, nz, bounds=((0, sx), (0, sy), (0, sz)))
    vols = m.volumes()
    assert np.all(vols > 0)
    assert np.isclose(vols.sum(), sx * sy * sz, rtol=1e-10)
    # Euler characteristic of a tetrahedralised ball
    nfaces = (4 * m.ne + m.nbnd) // 2
    assert m.nv - m.nedges + nfaces - m.ne == 1


@given(nx=st.integers(1, 3), ny=st.integers(1, 3), nz=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_edge_midpoints_between_endpoints(nx, ny, nz):
    m = box_mesh(nx, ny, nz)
    mid = edge_midpoints(m.coords, m.edges)
    lo = np.minimum(m.coords[m.edges[:, 0]], m.coords[m.edges[:, 1]])
    hi = np.maximum(m.coords[m.edges[:, 0]], m.coords[m.edges[:, 1]])
    assert np.all(mid >= lo - 1e-12) and np.all(mid <= hi + 1e-12)
    assert np.all(edge_lengths(m.coords, m.edges) > 0)


@given(n=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_kuhn_tets_have_bounded_aspect(n):
    """Kuhn subdivision of a cube gives a fixed, finite element quality."""
    m = box_mesh(n, n, n)
    ar = aspect_ratios(m.coords, m.elems)
    assert np.all(np.isfinite(ar))
    assert ar.max() < 10.0
