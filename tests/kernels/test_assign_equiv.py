"""The balancer's two assignment solvers against SciPy, tie for tie.

``repro.partition.assignment`` ports ``scipy.optimize.linear_sum_assignment``
(``maximize=True``) and ``scipy.sparse.csgraph.maximum_bipartite_matching``
(``perm_type="column"``).  SciPy is the oracle and is called directly, as
the solver's AoS kernels are.  An equal optimum is not enough: the
processor map, the relabelled partition and every golden value downstream
depend on *which* optimum, so each comparison is ``array_equal`` on the
assignment itself.  The inputs are hypothesis-drawn integer matrices,
tie-heavy by construction, and every solve of one paper-sized sweep plus
Table 2 at resolution 6, recorded where the product makes it.
"""

from importlib import import_module

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.experiments import CASE_NAMES, PROC_COUNTS, case_for, mapper_comparison
from repro.parallel import SP2_1997
from repro.partition.assignment import bipartite_matching, max_weight_assignment

# the package re-exports functions under both modules' names
reassign = import_module("repro.core.reassign")
repartition = import_module("repro.partition.repartition")


def lsap_oracle(W):
    return linear_sum_assignment(W, maximize=True)[1]


def matching_oracle(mask):
    return maximum_bipartite_matching(csr_matrix(mask), perm_type="column")


@st.composite
def integer_matrices(draw, shapes=("square", "wide", "tall")):
    """Weights in {0, 1, 2} or 0..999, a fraction 0.05–1 of them non-zero,
    at most 80 rows and columns."""
    shape = draw(st.sampled_from(shapes))
    n = draw(st.integers(0, 80))
    m = {"square": n, "wide": draw(st.integers(n, 80)),
         "tall": draw(st.integers(0, n))}[shape]
    top = draw(st.sampled_from([2, 999]))
    density = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, top + 1, size=(n, m)) * (rng.random((n, m)) < density)


@given(W=integer_matrices(shapes=("square", "wide")))
@example(W=np.zeros((0, 0), dtype=np.int64))
@example(W=np.array([[0]]))
@example(W=np.array([[7]]))
@example(W=np.ones((40, 40), dtype=np.int64))  # all tied: the identity
@settings(max_examples=150, deadline=None)
def test_max_weight_assignment_is_scipys(W):
    assert np.array_equal(max_weight_assignment(W), lsap_oracle(W))


@given(W=integer_matrices())
@example(W=np.zeros((0, 0), dtype=np.int64))
@example(W=np.zeros((1, 1), dtype=np.int64))
@example(W=np.ones((1, 1), dtype=np.int64))
@example(W=np.ones((30, 50), dtype=np.int64))
@settings(max_examples=250, deadline=None)
def test_bipartite_matching_is_scipys(W):
    mask = W > 0
    assert np.array_equal(bipartite_matching(mask), matching_oracle(mask))


def test_more_rows_than_columns_is_refused():
    with pytest.raises(ValueError, match="rows <= columns"):
        max_weight_assignment(np.ones((3, 2)))


# --- every solve of a paper-sized sweep and Table 2 ---------------------------


@pytest.fixture(scope="module")
def recorded():
    """The solver inputs of the 36 cycles of Figs. 4–6 (three strategies,
    remap before and after, P = 2 … 64) and of Table 2, at resolution 6:
    ``relabel`` (the repartitioner's k×k overlaps), ``mwbg`` (Table 2's
    similarity matrices) and ``matching`` (the BMCM search's masks)."""
    inputs = {"relabel": [], "mwbg": [], "matching": []}

    def recording(kind, solve):
        def wrapper(a):
            inputs[kind].append(np.array(a))
            return solve(a)
        return wrapper

    case = case_for(6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repartition, "max_weight_assignment",
                   recording("relabel", max_weight_assignment))
        mp.setattr(reassign, "max_weight_assignment",
                   recording("mwbg", max_weight_assignment))
        mp.setattr(reassign, "bipartite_matching",
                   recording("matching", bipartite_matching))
        for name in CASE_NAMES:
            for mode in ("before", "after"):
                for nproc in PROC_COUNTS:
                    LoadBalancedAdaptiveSolver(
                        case.mesh, nproc, machine=SP2_1997,
                        cost_model=CostModel(machine=SP2_1997),
                        remap_when=mode, imbalance_threshold=1.0,
                    ).adapt_step(edge_mask=case.marking_mask(name))
        mapper_comparison(case, repeats=1)
    return inputs


def test_the_sweep_reaches_every_solver(recorded):
    # the fallback relabels at several k; every P is solved both ways
    assert len({W.shape for W in recorded["relabel"]}) >= 3
    assert {S.shape[0] for S in recorded["mwbg"]} == set(PROC_COUNTS)
    assert {m.shape[0] for m in recorded["matching"]} == set(PROC_COUNTS)


@pytest.mark.parametrize("kind", ["relabel", "mwbg"])
def test_recorded_assignments_are_scipys(recorded, kind):
    for W in recorded[kind]:
        assert np.array_equal(max_weight_assignment(W), lsap_oracle(W))


def test_recorded_matchings_are_scipys(recorded):
    for mask in recorded["matching"]:
        assert np.array_equal(bipartite_matching(mask), matching_oracle(mask))
