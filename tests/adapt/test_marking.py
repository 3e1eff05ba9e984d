"""Edge targeting and marking propagation."""

import numpy as np
import pytest

from repro.adapt import (
    element_patterns,
    is_valid,
    propagate_markings,
    target_by_fraction,
)
from repro.adapt.marking import shared_edge_mask
from repro.mesh import box_mesh
from repro.parallel import CostLedger, MachineModel

from tests.fixtures import single_tet, two_tets


def test_target_by_fraction_counts():
    err = np.linspace(0, 1, 100)
    for frac in (0.0, 0.05, 0.33, 0.60, 1.0):
        mask = target_by_fraction(err, frac)
        assert mask.sum() == round(frac * 100)
    # highest-error edges selected
    mask = target_by_fraction(err, 0.1)
    assert np.all(np.flatnonzero(mask) >= 90)


def test_target_by_fraction_validates():
    with pytest.raises(ValueError):
        target_by_fraction(np.ones(5), 1.5)


def test_target_by_fraction_deterministic_ties():
    err = np.ones(10)
    m1 = target_by_fraction(err, 0.3)
    m2 = target_by_fraction(err, 0.3)
    assert np.array_equal(m1, m2)
    assert m1.sum() == 3


def test_propagation_fixpoint_is_valid():
    m = box_mesh(2, 2, 2)
    rng = np.random.default_rng(0)
    mask = rng.random(m.nedges) < 0.2
    res = propagate_markings(m, mask)
    assert is_valid(res.patterns).all()
    # marked set only grows
    assert np.all(res.edge_marked[mask])
    # patterns consistent with the final mask
    assert np.array_equal(element_patterns(m, res.edge_marked), res.patterns)


def test_propagation_empty_mask_is_identity():
    m = single_tet()
    res = propagate_markings(m, np.zeros(m.nedges, dtype=bool))
    assert res.edge_marked.sum() == 0
    assert np.all(res.patterns == 0)
    assert res.iterations == 1


def test_propagation_two_edges_upgrades_to_face():
    m = single_tet()
    # edges 0 (0-1) and 1 (0-2) lie in face (0,1,2); edge (1,2) must join
    mask = np.zeros(m.nedges, dtype=bool)
    mask[[0, 1]] = True
    res = propagate_markings(m, mask)
    assert res.edge_marked.sum() == 3
    assert bin(res.patterns[0]).count("1") == 3


def test_propagation_crosses_elements():
    """Marking in one element can force marks in its neighbour."""
    m = two_tets()
    # mark two edges of element 0 that lie on the shared face (1,2,3):
    # shared face edges are (1,2), (1,3), (2,3)
    def eid(a, b):
        key = np.flatnonzero((m.edges[:, 0] == min(a, b)) & (m.edges[:, 1] == max(a, b)))
        assert key.size == 1
        return key[0]

    mask = np.zeros(m.nedges, dtype=bool)
    mask[eid(1, 2)] = True
    mask[eid(1, 3)] = True
    res = propagate_markings(m, mask)
    # face (1,2,3) completes -> edge (2,3) marked; both elements become 1:4
    assert res.edge_marked[eid(2, 3)]
    assert res.iterations >= 2
    assert is_valid(res.patterns).all()


def test_full_marking_gives_1to8_everywhere():
    m = box_mesh(2, 2, 2)
    res = propagate_markings(m, np.ones(m.nedges, dtype=bool))
    assert np.all(res.patterns == 0b111111)


def test_shared_edge_mask():
    m = two_tets()
    part = np.array([0, 1])
    shared = shared_edge_mask(m, part)
    # exactly the 3 edges of the shared face (1,2,3)
    assert shared.sum() == 3
    sv = m.edges[shared]
    assert set(map(tuple, sv.tolist())) == {(1, 2), (1, 3), (2, 3)}
    # single partition: nothing shared
    assert shared_edge_mask(m, np.zeros(2, dtype=np.int64)).sum() == 0


def test_parallel_marking_matches_serial_and_charges_time():
    m = box_mesh(3, 3, 3)
    rng = np.random.default_rng(1)
    mask = rng.random(m.nedges) < 0.15
    serial = propagate_markings(m, mask)
    part = np.arange(m.ne) % 4
    ledger = CostLedger(4, MachineModel(t_setup=1e-5, t_word=1e-6, t_work=1e-6))
    par = propagate_markings(m, mask, part=part, ledger=ledger)
    assert np.array_equal(par.edge_marked, serial.edge_marked)
    assert np.array_equal(par.patterns, serial.patterns)
    assert ledger.elapsed > 0
    assert ledger.total_messages > 0  # shared edges were exchanged


def test_mask_shape_check():
    m = single_tet()
    with pytest.raises(ValueError, match="shape"):
        propagate_markings(m, np.zeros(3, dtype=bool))
