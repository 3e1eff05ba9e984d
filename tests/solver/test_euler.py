"""Euler solver: dual-mesh geometry, conservation, free-stream preservation,
stability, and feature development."""

import numpy as np
import pytest

from repro.mesh import box_mesh, rotor_domain_mesh
from repro.solver import (
    EulerSolver,
    dual_volumes,
    edge_normals,
    rotor_acoustics_field,
    spherical_blast_field,
    uniform_flow,
)


def test_dual_volumes_tile_the_domain():
    m = box_mesh(3, 3, 3)
    dv = dual_volumes(m)
    assert dv.sum() == pytest.approx(m.total_volume())
    assert np.all(dv > 0)


def test_edge_normals_close_at_interior_vertices():
    """Median-dual closure: Σ_j n_ij = 0 for interior vertices — the
    discrete free-stream-preservation condition."""
    m = box_mesh(3, 3, 3)
    n = edge_normals(m)
    acc = np.zeros((m.nv, 3))
    np.add.at(acc, m.edges[:, 0], n)
    np.subtract.at(acc, m.edges[:, 1], n)
    interior = np.ones(m.nv, dtype=bool)
    interior[np.unique(m.bnd_faces)] = False
    assert interior.any()
    assert np.allclose(acc[interior], 0.0, atol=1e-13)


def test_uniform_flow_is_steady():
    m = box_mesh(3, 3, 3)
    s = EulerSolver(m, uniform_flow(m.coords, vel=(0.4, 0.2, -0.1)))
    q0 = s.q.copy()
    s.run(5)
    assert np.allclose(s.q, q0, atol=1e-12)


def test_interior_conservation():
    """With frozen boundaries, interior mass change equals the flux through
    edges touching the boundary — pure interior exchange cancels exactly."""
    mesh, blade = rotor_domain_mesh(resolution=3)
    s = EulerSolver(mesh, rotor_acoustics_field(mesh.coords, blade))
    res = s.residual()
    # residual is an exact redistribution: summed over ALL vertices it
    # telescopes to zero (each edge adds +f to one end, -f to the other)
    assert np.allclose(res.sum(axis=0), 0.0, atol=1e-9)


def test_blast_wave_runs_stably():
    m = box_mesh(4, 4, 4)
    q = spherical_blast_field(m.coords, center=(0.5, 0.5, 0.5), radius=0.2)
    s = EulerSolver(m, q)
    for _ in range(10):
        dt = s.step(cfl=0.4)
        assert dt > 0
    rho = s.q[:, 0]
    assert np.all(rho > 0)
    assert np.all(np.isfinite(s.q))


def test_blast_wave_spreads():
    m = box_mesh(4, 4, 4)
    q = spherical_blast_field(m.coords, center=(0.5, 0.5, 0.5), radius=0.2)
    s = EulerSolver(m, q)
    r = np.linalg.norm(m.coords - 0.5, axis=1)
    shell = (r > 0.3) & (r < 0.45)
    p_before = s.q[shell, 4].mean()
    s.run(15, cfl=0.4)
    p_after = s.q[shell, 4].mean()
    assert p_after > p_before  # energy is moving outward


def test_state_shape_validation():
    m = box_mesh(1, 1, 1)
    with pytest.raises(ValueError, match="state"):
        EulerSolver(m, np.zeros((3, 5)))
