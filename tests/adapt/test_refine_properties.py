"""Property-based tests: refinement invariants under arbitrary markings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import AdaptiveMesh, propagate_markings, subdivide
from repro.mesh import box_mesh

from tests.fixtures import check_mesh


def _random_mask(nedges, seed, frac):
    rng = np.random.default_rng(seed)
    return rng.random(nedges) < frac


@given(seed=st.integers(0, 2**31), frac=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_refinement_invariants(seed, frac):
    m = box_mesh(2, 2, 2)
    marking = propagate_markings(m, _random_mask(m.nedges, seed, frac))
    res = subdivide(m, marking)
    # volume conserved
    assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())
    # structural invariants (positive volumes, manifold faces, etc.)
    check_mesh(res.mesh)
    # element count = sum of children
    assert res.mesh.ne == res.child_count.sum()
    # growth factor within the paper's bound 1 <= G <= 8
    assert 1.0 <= res.growth_factor <= 8.0
    # conformity: no interior face orphaned into the boundary
    centroids = res.mesh.coords[res.mesh.bnd_faces].mean(axis=1)
    on_surface = np.zeros(len(centroids), dtype=bool)
    for ax in range(3):
        on_surface |= np.isclose(centroids[:, ax], 0.0)
        on_surface |= np.isclose(centroids[:, ax], 1.0)
    assert on_surface.all()


@given(seed=st.integers(0, 2**31), frac=st.floats(0.05, 0.9))
@settings(max_examples=20, deadline=None)
def test_marking_fixpoint_closed(seed, frac):
    """Re-running propagation on its own output changes nothing."""
    m = box_mesh(2, 2, 2)
    r1 = propagate_markings(m, _random_mask(m.nedges, seed, frac))
    r2 = propagate_markings(m, r1.edge_marked)
    assert np.array_equal(r1.edge_marked, r2.edge_marked)
    assert np.array_equal(r1.patterns, r2.patterns)
    assert r2.iterations == 1


@given(
    seed=st.integers(0, 2**31),
    frac=st.floats(0.0, 0.6),
    coarse_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=20, deadline=None)
def test_coarsen_never_breaks_mesh(seed, frac, coarse_frac):
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    am.refine(am.mark(edge_mask=_random_mask(m.nedges, seed, frac)))
    rng = np.random.default_rng(seed + 1)
    am.coarsen(rng.random(am.mesh.nedges) < coarse_frac)
    check_mesh(am.mesh)
    assert am.mesh.volumes().sum() == pytest.approx(1.0)
    assert am.mesh.ne >= m.ne  # never below the initial mesh
    assert am.wcomp().sum() == am.mesh.ne


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_two_level_refinement_valid(seed):
    m = box_mesh(1, 1, 2, bounds=((0, 1), (0, 1), (0, 2)))
    am = AdaptiveMesh(m)
    rng = np.random.default_rng(seed)
    am.refine(am.mark(edge_mask=rng.random(am.mesh.nedges) < 0.4))
    am.refine(am.mark(edge_mask=rng.random(am.mesh.nedges) < 0.4))
    check_mesh(am.mesh)
    assert am.mesh.volumes().sum() == pytest.approx(2.0)
    assert am.wcomp().sum() == am.mesh.ne
    # Wremap >= Wcomp always (nodes include leaves)
    assert np.all(am.wremap() >= am.wcomp())
