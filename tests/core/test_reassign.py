"""Processor reassignment: optimal MWBG, heuristic MWBG, optimal BMCM."""

import numpy as np
import pytest

from repro.core import (
    heuristic_mwbg,
    objective_value,
    optimal_bmcm,
    optimal_mwbg,
    remap_stats,
)

from .test_reassign_properties import brute_force_maxv, brute_force_totalv


def random_S(nproc, npart, seed, density=0.6, hi=100):
    rng = np.random.default_rng(seed)
    S = rng.integers(0, hi, size=(nproc, npart))
    S[rng.random((nproc, npart)) > density] = 0
    return S.astype(np.int64)


def assert_valid_assignment(proc_of_part, nproc, F):
    counts = np.bincount(proc_of_part, minlength=nproc)
    assert np.all(counts == F), f"each processor must get F={F} partitions"


class TestOptimalMWBG:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        S = random_S(5, 5, seed)
        m = optimal_mwbg(S)
        assert_valid_assignment(m, 5, 1)
        assert objective_value(S, m) == brute_force_totalv(S)

    def test_diagonal_matrix_maps_identity(self):
        S = np.diag([10, 20, 30, 40])
        assert optimal_mwbg(S).tolist() == [0, 1, 2, 3]

    def test_F2_duplication(self):
        # 2 processors, 4 partitions; optimal keeps the two heavy entries
        S = np.array([[9, 9, 0, 0], [0, 0, 9, 9]])
        m = optimal_mwbg(S, F=2)
        assert_valid_assignment(m, 2, 2)
        assert objective_value(S, m) == 36

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="partitions"):
            optimal_mwbg(np.zeros((3, 4)), F=1)
        with pytest.raises(ValueError, match="non-negative"):
            optimal_mwbg(np.array([[-1, 0], [0, 1]]))


class TestHeuristicMWBG:
    @pytest.mark.parametrize("seed", range(10))
    def test_theorem1_half_of_optimal(self, seed):
        """Theorem 1: heuristic objective > optimal/2."""
        S = random_S(6, 6, seed)
        h = heuristic_mwbg(S)
        assert_valid_assignment(h, 6, 1)
        opt = brute_force_totalv(S)
        assert 2 * objective_value(S, h) >= opt

    def test_greedy_order(self):
        """Largest entry is always taken first."""
        S = np.array([[1, 50], [2, 3]])
        h = heuristic_mwbg(S)
        assert h[1] == 0  # partition 1 -> processor 0 via the 50
        assert h[0] == 1
        assert objective_value(S, h) == 52

    def test_zero_rows_and_columns(self):
        S = np.zeros((3, 3), dtype=np.int64)
        h = heuristic_mwbg(S)
        assert_valid_assignment(h, 3, 1)

    def test_F2(self):
        S = np.array([[5, 4, 0, 0], [0, 0, 5, 4]])
        h = heuristic_mwbg(S, F=2)
        assert_valid_assignment(h, 2, 2)
        assert objective_value(S, h) == 18

    def test_deterministic(self):
        S = random_S(8, 8, 3)
        assert np.array_equal(heuristic_mwbg(S), heuristic_mwbg(S))


class TestOptimalBMCM:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_bottleneck(self, seed):
        S = random_S(5, 5, seed)
        m = optimal_bmcm(S)
        assert_valid_assignment(m, 5, 1)
        stats = remap_stats(S, m)
        assert stats.c_max == brute_force_maxv(S)

    def test_alpha_beta_scaling(self):
        S = random_S(4, 4, 0)
        m = optimal_bmcm(S, alpha=2.0, beta=0.5)
        stats_cost = _maxv_cost(S, m, 2.0, 0.5)
        assert stats_cost == brute_force_maxv(S, alpha=2.0, beta=0.5)

    def test_identity_when_diagonal_heavy(self):
        S = np.full((4, 4), 1, dtype=np.int64) + np.diag([100, 100, 100, 100])
        assert optimal_bmcm(S).tolist() == [0, 1, 2, 3]


def _maxv_cost(S, proc_of_part, alpha, beta):
    row = S.sum(axis=1)
    col = S.sum(axis=0)
    return max(
        max(alpha * (row[proc_of_part[j]] - S[proc_of_part[j], j]),
            beta * (col[j] - S[proc_of_part[j], j]))
        for j in range(S.shape[1])
    )


def test_paper_qualitative_ordering():
    """Optimal MWBG retains at least as much as the heuristic; BMCM's
    bottleneck is at most either MWBG's (mirrors Table 2's relationships)."""
    for seed in range(5):
        S = random_S(6, 6, seed, density=0.8)
        opt = optimal_mwbg(S)
        heu = heuristic_mwbg(S)
        bmc = optimal_bmcm(S)
        assert objective_value(S, opt) >= objective_value(S, heu)
        assert remap_stats(S, bmc).c_max <= remap_stats(S, opt).c_max
        assert remap_stats(S, bmc).c_max <= remap_stats(S, heu).c_max
