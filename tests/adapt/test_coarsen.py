"""Coarsening: sibling rule, reverse order, re-refinement for validity."""

import numpy as np

from repro.adapt import AdaptiveMesh
from repro.mesh import box_mesh

from tests.fixtures import check_mesh, refine_provenance, single_tet


def test_coarsen_initial_mesh_is_noop():
    am = AdaptiveMesh(single_tet())
    report = am.coarsen(np.ones(am.mesh.nedges, dtype=bool))
    assert not report.changed
    assert report.elements_removed == 0


def test_full_coarsen_undoes_refinement():
    am = AdaptiveMesh(single_tet())
    am.refine(am.mark(edge_mask=np.ones(6, dtype=bool)))
    assert am.mesh.ne == 8
    report = am.coarsen(np.ones(am.mesh.nedges, dtype=bool))
    assert report.changed
    assert am.mesh.ne == 1
    assert am.wcomp().tolist() == [1]
    assert am.wremap().tolist() == [1]
    check_mesh(am.mesh)


def test_sibling_rule_blocks_partial_targets():
    """Targeting only one half of a bisected edge must not coarsen it."""
    am = AdaptiveMesh(single_tet())
    marking = am.mark(edge_mask=np.array([True, False, False, False, False, False]))
    res = am.refine(marking)
    c0, c1 = refine_provenance(am.initial_mesh, marking, res.mesh).edge_children[0]
    mask = np.zeros(am.mesh.nedges, dtype=bool)
    mask[c0] = True  # only one sibling targeted
    report = am.coarsen(mask)
    assert not report.changed
    assert am.mesh.ne == 2


def test_sibling_rule_allows_full_pairs():
    am = AdaptiveMesh(single_tet())
    marking = am.mark(edge_mask=np.array([True, False, False, False, False, False]))
    res = am.refine(marking)
    c0, c1 = refine_provenance(am.initial_mesh, marking, res.mesh).edge_children[0]
    mask = np.zeros(am.mesh.nedges, dtype=bool)
    mask[[c0, c1]] = True
    report = am.coarsen(mask)
    assert report.changed
    assert report.n_undone == 1
    assert am.mesh.ne == 1


def test_partial_coarsen_keeps_valid_mesh():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    rng = np.random.default_rng(11)
    am.refine(am.mark(edge_mask=rng.random(m.nedges) < 0.3))
    ne_refined = am.mesh.ne
    # target a random half of the current edges
    mask = rng.random(am.mesh.nedges) < 0.5
    report = am.coarsen(mask)
    check_mesh(am.mesh)
    assert am.mesh.volumes().sum() == np.prod([1.0, 1.0, 1.0])
    if report.changed:
        assert am.mesh.ne <= ne_refined
        # forest consistent with the new mesh
        assert am.forest.root_of_elem.shape == (am.mesh.ne,)
        assert am.wcomp().sum() == am.mesh.ne


def test_coarsen_beyond_initial_mesh_stops():
    """Peel both levels, then a third coarsen is a no-op."""
    am = AdaptiveMesh(single_tet())
    am.refine(am.mark(edge_mask=np.ones(am.mesh.nedges, dtype=bool)))
    am.refine(am.mark(edge_mask=np.ones(am.mesh.nedges, dtype=bool)))
    assert am.mesh.ne == 64
    assert am.coarsen(np.ones(am.mesh.nedges, dtype=bool)).changed
    assert am.mesh.ne == 8
    assert am.coarsen(np.ones(am.mesh.nedges, dtype=bool)).changed
    assert am.mesh.ne == 1
    assert not am.coarsen(np.ones(am.mesh.nedges, dtype=bool)).changed


def test_coarsen_then_refine_roundtrip_weights():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    rng = np.random.default_rng(2)
    mask = rng.random(m.nedges) < 0.2
    am.refine(am.mark(edge_mask=mask))
    wc1 = am.wcomp().copy()
    am.coarsen(np.ones(am.mesh.nedges, dtype=bool))
    assert am.mesh.ne == m.ne
    am.refine(am.mark(edge_mask=mask))
    assert np.array_equal(am.wcomp(), wc1)


def test_connectivity_propagation_can_resurrect():
    """Undoing one bisection of a 1:8 element re-propagates: the adjusted
    5-edge pattern upgrades back to 1:8, so nothing changes."""
    am = AdaptiveMesh(single_tet())
    marking = am.mark(edge_mask=np.ones(6, dtype=bool))
    res = am.refine(marking)
    c0, c1 = refine_provenance(am.initial_mesh, marking, res.mesh).edge_children[0]
    mask = np.zeros(am.mesh.nedges, dtype=bool)
    mask[[c0, c1]] = True  # siblings of parent edge 0 only
    report = am.coarsen(mask)
    assert not report.changed  # propagation restored the full pattern
    assert report.n_candidates == 1
    assert am.mesh.ne == 8


#: bytes the adaptor holds beyond its current mesh and solution, per
#: current element (see the test below)
HISTORY_BYTES_PER_ELEMENT = 28


def test_refinement_history_memory_per_element():
    """What three refinement levels keep, as a count: the forest's
    per-element roots and per-level child counts, each level's marking and
    the solution it refined.  It fails if the history keeps each level's
    mesh or its subdivision provenance again.

    Resolution-6 rotor, uniform random edge error, ``refine_frac=0.1``
    three times (2 592 → 215 605 tets): 15.3 B per element with each
    level's marking kept as its edge mask and ``uint8`` patterns (18.6 B
    while it kept the caller's marking, ``edge_round`` and int64 patterns
    included), where keeping every level's ``mesh_before`` and full
    ``RefineResult`` read 67.7 B.
    Measured by ``tracemalloc`` as the memory that deleting the
    ``AdaptiveMesh`` frees while its current mesh and solution stay
    referenced; the initial mesh predates the trace.
    """
    import gc
    import tracemalloc

    from repro.mesh import rotor_domain_mesh
    from repro.solver import rotor_acoustics_field

    mesh, blade = rotor_domain_mesh(resolution=6, grading=2.0)
    solution = rotor_acoustics_field(mesh.coords, blade)
    rng = np.random.default_rng(0)
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        am = AdaptiveMesh(mesh, solution)
        for _ in range(3):
            error = rng.random(am.mesh.nedges)
            am.refine(am.mark(edge_error=error, refine_frac=0.1))
        del error
        gc.collect()
        with_history, _ = tracemalloc.get_traced_memory()
        current, current_solution = am.mesh, am.solution
        del am
        gc.collect()
        without, _ = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    assert current.ne == 215605 and current_solution.shape[0] == current.nv
    held = with_history - without
    assert held > 0
    assert held / current.ne <= HISTORY_BYTES_PER_ELEMENT
