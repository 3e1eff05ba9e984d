"""Property-based verification of Theorem 1, its corollary, and BMCM
optimality over random similarity matrices, against the exhaustive
solvers defined here (``test_reassign.py`` uses them too), for F = 1 and
for the F > 1 duplication of §4.4."""

from itertools import permutations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    heuristic_mwbg,
    objective_value,
    optimal_bmcm,
    optimal_mwbg,
    remap_stats,
)


def brute_force_totalv(S: np.ndarray) -> int:
    """Optimal TotalV objective by enumeration (F = 1, small P)."""
    S = np.asarray(S)
    n = S.shape[0]
    return max(
        sum(int(S[p[j], j]) for j in range(n)) for p in permutations(range(n))
    )


def brute_force_maxv(S: np.ndarray, alpha: float = 1.0, beta: float = 1.0) -> float:
    """Optimal MaxV bottleneck by enumeration."""
    S = np.asarray(S)
    n = S.shape[0]
    row = S.sum(axis=1)
    col = S.sum(axis=0)
    best = np.inf
    for p in permutations(range(n)):
        worst = max(
            max(alpha * (row[p[j]] - S[p[j], j]), beta * (col[j] - S[p[j], j]))
            for j in range(n)
        )
        best = min(best, worst)
    return float(best)


def brute_force_totalv_f(S: np.ndarray, F: int) -> int:
    """Optimal TotalV objective over every map that gives each of the P
    processors exactly F of the F·P partitions, by enumeration."""
    nproc, npart = S.shape
    maps = np.array(list(product(range(nproc), repeat=npart)))
    counts = np.stack([(maps == p).sum(axis=1) for p in range(nproc)])
    regular = maps[(counts == F).all(axis=0)]
    return int(S[regular, np.arange(npart)].sum(axis=1).max())


@st.composite
def similarity_matrices(draw, max_p=6, max_w=200):
    p = draw(st.integers(2, max_p))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_w), min_size=p, max_size=p),
            min_size=p,
            max_size=p,
        )
    )
    return np.array(rows, dtype=np.int64)


@given(S=similarity_matrices())
@settings(max_examples=60, deadline=None)
def test_theorem1_heuristic_at_least_half_optimal(S):
    heu = objective_value(S, heuristic_mwbg(S))
    opt = brute_force_totalv(S)
    assert 2 * heu >= opt


@given(S=similarity_matrices())
@settings(max_examples=60, deadline=None)
def test_corollary_movement_at_most_twice_optimal(S):
    """Data movement cost ΣΣS − F under the heuristic is ≤ 2× optimal's."""
    total = int(S.sum())
    heu_moved = total - objective_value(S, heuristic_mwbg(S))
    opt_moved = total - objective_value(S, optimal_mwbg(S))
    assert heu_moved <= 2 * opt_moved


@given(S=similarity_matrices(max_p=5))
@settings(max_examples=40, deadline=None)
def test_optimal_mwbg_matches_enumeration(S):
    assert objective_value(S, optimal_mwbg(S)) == brute_force_totalv(S)


@given(S=similarity_matrices(max_p=5))
@settings(max_examples=40, deadline=None)
def test_optimal_bmcm_matches_enumeration(S):
    m = optimal_bmcm(S)
    assert remap_stats(S, m).c_max == brute_force_maxv(S)


@given(S=similarity_matrices())
@settings(max_examples=40, deadline=None)
def test_assignments_are_permutations(S):
    p = S.shape[0]
    for method in (optimal_mwbg, heuristic_mwbg, optimal_bmcm):
        m = method(S)
        assert sorted(m.tolist()) == list(range(p))


@st.composite
def duplicated_similarity(draw, max_w=200):
    """A P × F·P similarity matrix, P ≤ 3 and F ∈ {2, 3}."""
    p = draw(st.integers(1, 3))
    f = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(st.integers(0, max_w), min_size=f * p,
                                  max_size=f * p), min_size=p, max_size=p))
    return np.array(rows, dtype=np.int64), f


@given(SF=duplicated_similarity())
@settings(max_examples=60, deadline=None)
def test_f_copies_per_processor_and_enumeration_optimum(SF):
    S, F = SF
    opt = optimal_mwbg(S, F=F)
    assert np.bincount(opt, minlength=S.shape[0]).tolist() == [F] * S.shape[0]
    best = brute_force_totalv_f(S, F)
    assert objective_value(S, opt) == best
    heu = heuristic_mwbg(S, F=F)
    assert np.bincount(heu, minlength=S.shape[0]).tolist() == [F] * S.shape[0]
    assert 2 * objective_value(S, heu) >= best
