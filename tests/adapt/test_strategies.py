"""Geometric marking: the sphere."""

import numpy as np
import pytest

from repro.adapt import AdaptiveMesh
from repro.adapt.strategies import mark_sphere
from repro.mesh import box_mesh, edge_midpoints

from tests.fixtures import check_mesh


@pytest.fixture
def mesh():
    return box_mesh(4, 4, 4)


def test_sphere_marks_inside_only(mesh):
    mask = mark_sphere(mesh, (0.5, 0.5, 0.5), 0.3)
    mid = edge_midpoints(mesh.coords, mesh.edges)
    d = np.linalg.norm(mid - 0.5, axis=1)
    assert np.array_equal(mask, d <= 0.3)
    assert 0 < mask.sum() < mesh.nedges


def test_validation(mesh):
    with pytest.raises(ValueError):
        mark_sphere(mesh, (0, 0, 0), -1.0)


def test_geometric_refinement_end_to_end(mesh):
    am = AdaptiveMesh(mesh)
    marking = am.mark(edge_mask=mark_sphere(mesh, (0.25, 0.25, 0.25), 0.3))
    res = am.refine(marking)
    check_mesh(am.mesh)
    # refinement concentrated in the marked corner
    cent = am.mesh.coords[am.mesh.elems].mean(axis=1)
    near = np.linalg.norm(cent - 0.25, axis=1) < 0.3
    far = np.linalg.norm(cent - np.array([0.75, 0.75, 0.75]), axis=1) < 0.3
    assert near.sum() > far.sum()
    assert 1.0 < res.growth_factor < 8.0
