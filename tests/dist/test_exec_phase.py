"""Distributed marking propagation equals the serial fixpoint."""

import numpy as np
import pytest

from repro.adapt import is_valid, propagate_markings
from repro.adapt.marking import element_patterns
from repro.dist import decompose
from repro.dist.exec_phase import parallel_mark
from repro.mesh import box_mesh
from repro.partition import Graph, multilevel_kway

from tests.fixtures import two_tets


@pytest.mark.parametrize("nproc", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("seed,frac", [(0, 0.1), (1, 0.25), (2, 0.5)])
def test_matches_serial_fixpoint(nproc, seed, frac):
    m = box_mesh(3, 3, 3)
    g = Graph.from_pairs(m.dual_pairs, m.ne)
    part = multilevel_kway(g, nproc, seed=0)
    locals_ = decompose(m, part, nproc)
    rng = np.random.default_rng(seed)
    marks = rng.random(m.nedges) < frac

    serial = propagate_markings(m, marks)
    par = parallel_mark(m, locals_, marks)
    assert np.array_equal(par.edge_marked, serial.edge_marked)
    assert is_valid(element_patterns(m, par.edge_marked)).all()
    assert par.iterations >= 1


def test_cross_partition_propagation():
    """Marking that must bounce between partitions to stabilise."""
    m = two_tets()
    locals_ = decompose(m, np.array([0, 1]), 2)

    def eid(a, b):
        return int(
            np.flatnonzero(
                (m.edges[:, 0] == min(a, b)) & (m.edges[:, 1] == max(a, b))
            )[0]
        )

    # two edges of the shared face: completion of the face pattern happens
    # on both ranks and must stay consistent
    marks = np.zeros(m.nedges, dtype=bool)
    marks[eid(1, 2)] = True
    marks[eid(1, 3)] = True
    serial = propagate_markings(m, marks)
    par = parallel_mark(m, locals_, marks)
    assert np.array_equal(par.edge_marked, serial.edge_marked)
    assert par.edge_marked[eid(2, 3)]


def test_empty_marks_converge_in_one_round():
    m = box_mesh(2, 2, 2)
    part = np.arange(m.ne) % 2
    locals_ = decompose(m, part, 2)
    par = parallel_mark(m, locals_, np.zeros(m.nedges, dtype=bool))
    assert par.edge_marked.sum() == 0
    assert par.iterations == 1


def test_exchange_traffic_accounted():
    m = box_mesh(3, 3, 3)
    part = np.arange(m.ne) % 4
    locals_ = decompose(m, part, 4)
    rng = np.random.default_rng(3)
    marks = rng.random(m.nedges) < 0.2
    par = parallel_mark(m, locals_, marks)
    assert par.messages > 0
    assert par.words > 0
    assert par.time_seconds > 0


def test_shape_validation():
    m = two_tets()
    locals_ = decompose(m, np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="global edges"):
        parallel_mark(m, locals_, np.zeros(3, dtype=bool))
