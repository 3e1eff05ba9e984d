"""Cost model algebra and remap execution on the virtual machine."""

import numpy as np
import pytest

from repro.core import (
    CostModel,
    build_move_matrix,
    execute_remap,
    load_imbalance,
    needs_repartition,
    remap_stats,
)
from repro.parallel import MachineModel


def test_load_imbalance_balanced():
    w = np.ones(8, dtype=np.int64)
    p = np.arange(8) % 4
    assert load_imbalance(w, p, 4) == pytest.approx(1.0)
    assert not needs_repartition(w, p, 4, threshold=1.1)


def test_load_imbalance_skewed():
    w = np.array([8, 1, 1, 1])
    p = np.array([0, 1, 2, 3])
    # max 8 vs avg 11/4
    assert load_imbalance(w, p, 4) == pytest.approx(8 / (11 / 4))
    assert needs_repartition(w, p, 4)


def test_needs_repartition_threshold_validation():
    with pytest.raises(ValueError):
        needs_repartition(np.ones(2), np.zeros(2, int), 2, threshold=0.5)


class TestCostModel:
    def make(self):
        m = MachineModel(t_setup=1e-4, t_word=1e-6, t_work=1e-6)
        return CostModel(machine=m, t_iter=1e-4, n_adapt=10, storage_words=10,
                         t_child=1e-5)

    def test_redistribution_cost_formula(self):
        cm = self.make()
        S = np.array([[0, 100], [100, 0]])
        st = remap_stats(S, np.array([0, 1]))  # move everything
        # M*C*Tlat + N*Tsetup = 10*200*1e-6 + 2*1e-4
        assert cm.redistribution_cost(st) == pytest.approx(0.002 + 0.0002)

    def test_decide_accepts_large_gain(self):
        cm = self.make()
        w = np.array([10, 10, 1, 1])
        old = np.array([0, 0, 1, 1])  # loads 20 / 2
        new = np.array([0, 1, 0, 1])  # loads 11 / 11
        S = np.array([[15, 5], [1, 1]])
        st = remap_stats(S, np.array([0, 1]))
        d = cm.decide(w, old, new, 2, st)
        assert d.w_max_old == 20 and d.w_max_new == 11
        assert d.gain > 0
        assert d.accept  # gain ~ 10*1e-4*9 = 9e-3 >> cost

    def test_decide_rejects_tiny_gain(self):
        cm = self.make()
        w = np.ones(4, dtype=np.int64)
        old = np.array([0, 0, 1, 1])
        new = np.array([1, 1, 0, 0])  # same balance, pure movement
        S = np.array([[0, 2000], [2000, 0]])
        st = remap_stats(S, np.array([0, 1]))
        d = cm.decide(w, old, new, 2, st)
        assert d.gain == pytest.approx(0.0)
        assert not d.accept


class TestRemapExecution:
    def test_move_matrix(self):
        old = np.array([0, 0, 1, 1])
        new = np.array([1, 0, 1, 0])
        w = np.array([3, 4, 5, 6])
        mv = build_move_matrix(old, new, w, 2)
        assert mv.tolist() == [[0, 3], [6, 0]]

    def test_execute_conserves_and_times(self):
        old = np.array([0, 0, 1, 1, 2, 2])
        new = np.array([1, 0, 2, 1, 0, 2])
        w = np.array([2, 2, 3, 3, 4, 4])
        m = MachineModel(t_setup=1e-3, t_word=1e-5, t_work=1e-6)
        ex = execute_remap(old, new, w, 3, storage_words=8, machine=m)
        assert ex.elements_moved == 2 + 3 + 4
        assert ex.messages == 3
        assert ex.words_moved == 9 * 8
        assert ex.time_seconds > 0
        assert np.array_equal(ex.new_owner, new)

    def test_no_movement_is_cheap(self):
        old = np.array([0, 1])
        ex = execute_remap(old, old, np.array([5, 5]), 2)
        assert ex.elements_moved == 0
        assert ex.messages == 0

    def test_remap_before_cheaper_than_after(self):
        """Moving pre-subdivision trees must beat moving post-subdivision
        ones — the heart of §4.6."""
        rng = np.random.default_rng(0)
        n = 200
        old = rng.integers(0, 4, n)
        new = rng.integers(0, 4, n)
        w_small = np.ones(n, dtype=np.int64)  # before: 1 node per tree
        w_big = rng.integers(2, 9, n)  # after: children included
        t_before = execute_remap(old, new, w_small, 4).time_seconds
        t_after = execute_remap(old, new, w_big, 4).time_seconds
        assert t_before < t_after
