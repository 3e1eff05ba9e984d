"""Synthetic fields and the edge error indicator."""

import numpy as np
import pytest

from repro.adapt import target_by_fraction
from repro.mesh import box_mesh, edge_lengths, edge_midpoints, rotor_domain_mesh
from repro.solver import density_indicator, primitive, rotor_acoustics_field
from repro.solver.indicator import edge_error_indicator

from tests.fixtures import spherical_blast_field, uniform_flow


def test_uniform_field_zero_indicator():
    m = box_mesh(2, 2, 2)
    q = uniform_flow(m.coords)
    assert np.allclose(density_indicator(m, q), 0.0)


def test_rotor_field_concentrates_error_near_blade():
    mesh, blade = rotor_domain_mesh(resolution=5)
    q = rotor_acoustics_field(mesh.coords, blade)
    err = density_indicator(mesh, q)
    mask = target_by_fraction(err, 0.05)
    mid = edge_midpoints(mesh.coords, mesh.edges)
    d = blade.distance(mid)
    # targeted edges (blade layer + acoustic front) sit markedly closer to
    # the blade than the average edge
    assert d[mask].mean() < 0.75 * d.mean()


def test_rotor_field_valid_state():
    mesh, blade = rotor_domain_mesh(resolution=3)
    q = rotor_acoustics_field(mesh.coords, blade, tip_mach=0.9)
    rho, vel, p = primitive(q)
    assert np.all(rho > 0) and np.all(p > 0)
    assert np.linalg.norm(vel, axis=1).max() <= 0.9 + 1e-9


def test_blast_field_radial_structure():
    m = box_mesh(4, 4, 4)  # (0.5, 0.5, 0.5) is a grid vertex
    q = spherical_blast_field(m.coords, center=(0.5, 0.5, 0.5), radius=0.25)
    rho = q[:, 0]
    r = np.linalg.norm(m.coords - 0.5, axis=1)
    assert rho[r < 0.15].mean() > rho[r > 0.6].mean()


def test_indicator_length_scaling():
    m = box_mesh(2, 2, 2)
    qty = m.coords[:, 0] ** 2
    raw = np.abs(qty[m.edges[:, 1]] - qty[m.edges[:, 0]])
    scaled = edge_error_indicator(m, qty)
    assert scaled.shape == (m.nedges,)
    assert np.array_equal(scaled, raw * edge_lengths(m.coords, m.edges))


def test_indicator_shape_check():
    m = box_mesh(1, 1, 1)
    with pytest.raises(ValueError):
        edge_error_indicator(m, np.zeros(3))
