"""Multilevel partitioner quality: balance and cut on structured graphs."""

import numpy as np
import pytest

from repro.mesh import box_mesh
from repro.partition import (
    Graph,
    edgecut,
    imbalance,
    loads,
    multilevel_bisect,
    multilevel_kway,
    repartition,
)


def dual_graph_of_box(nx, ny, nz):
    m = box_mesh(nx, ny, nz)
    return Graph.from_pairs(m.dual_pairs, m.ne), m


def grid_graph(nx, ny):
    def vid(i, j):
        return i * ny + j

    pairs = []
    for i in range(nx):
        for j in range(ny):
            if i + 1 < nx:
                pairs.append((vid(i, j), vid(i + 1, j)))
            if j + 1 < ny:
                pairs.append((vid(i, j), vid(i, j + 1)))
    return Graph.from_pairs(np.array(pairs), nx * ny)


def test_bisection_balance_and_cut():
    g = grid_graph(12, 12)
    side = multilevel_bisect(g, 0.5, seed=0)
    ld = loads(g, side, 2)
    assert ld.max() / (g.total_vwgt() / 2) <= 1.06
    # a 12x12 grid bisects with cut ~12; anything < 3x that is a sane cut
    assert edgecut(g, side) <= 36


@pytest.mark.parametrize("k", [2, 3, 4, 7, 8])
def test_kway_balance(k):
    g, _ = dual_graph_of_box(4, 4, 4)
    part = multilevel_kway(g, k, seed=1)
    assert part.min() >= 0 and part.max() == k - 1
    assert imbalance(g, part, k) <= 1.12
    assert np.bincount(part, minlength=k).min() > 0


def test_kway_beats_random_cut():
    g, _ = dual_graph_of_box(4, 4, 4)
    part = multilevel_kway(g, 8, seed=0)
    rand = np.random.default_rng(0).integers(0, 8, size=g.n)
    assert edgecut(g, part) < 0.5 * edgecut(g, rand)


def test_k1_trivial():
    g = grid_graph(4, 4)
    part = multilevel_kway(g, 1)
    assert np.all(part == 0)
    with pytest.raises(ValueError):
        multilevel_kway(g, 0)


def test_weighted_balance():
    """Heavily skewed vertex weights must still balance (this is exactly the
    post-adaption situation: refined elements carry large Wcomp)."""
    rng = np.random.default_rng(3)
    wv = np.where(rng.random(216) < 0.2, 8, 1).astype(np.int64)
    g, _ = dual_graph_of_box(3, 3, 3)
    g = g.with_vwgt(wv[: g.n])
    part = multilevel_kway(g, 4, seed=2)
    assert imbalance(g, part, 4) <= 1.15


def test_determinism():
    g, _ = dual_graph_of_box(3, 3, 3)
    p1 = multilevel_kway(g, 4, seed=42)
    p2 = multilevel_kway(g, 4, seed=42)
    assert np.array_equal(p1, p2)


class TestRepartition:
    def test_balances_new_weights(self):
        g, _ = dual_graph_of_box(4, 4, 4)
        old = multilevel_kway(g, 4, seed=0)
        # adaption: elements in one corner get heavy
        wv = np.ones(g.n, dtype=np.int64)
        wv[old == 0] = 8
        g2 = g.with_vwgt(wv)
        new = repartition(g2, 4, old, seed=1)
        assert imbalance(g2, new, 4) <= 1.2
        assert imbalance(g2, new, 4) < imbalance(g2, old, 4)

    def test_stays_close_to_old_partition(self):
        """With unchanged weights, the seeded repartitioner should barely
        move anything — that is its whole point (low remap volume)."""
        g, _ = dual_graph_of_box(4, 4, 4)
        old = multilevel_kway(g, 4, seed=0)
        new = repartition(g, 4, old, seed=1)
        moved = (new != old).mean()
        assert moved < 0.05

    def test_moves_less_than_fresh_partition(self):
        g, _ = dual_graph_of_box(4, 4, 4)
        old = multilevel_kway(g, 4, seed=0)
        wv = np.ones(g.n, dtype=np.int64)
        wv[old == 2] = 6
        g2 = g.with_vwgt(wv)
        seeded = repartition(g2, 4, old, seed=1)
        fresh = multilevel_kway(g2, 4, seed=1)
        assert (seeded != old).sum() <= (fresh != old).sum()

    def test_validates_inputs(self):
        g = grid_graph(4, 4)
        with pytest.raises(ValueError, match="shape"):
            repartition(g, 2, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="labels"):
            repartition(g, 2, np.full(16, 5))

    def test_k1(self):
        g = grid_graph(3, 3)
        assert np.all(repartition(g, 1, np.zeros(9, dtype=np.int64)) == 0)
