"""Spectral/inertial baseline partitioners."""

import numpy as np
import pytest

from repro.partition import (
    Graph,
    edgecut,
    inertial_bisect,
    loads,
    spectral_bisect,
)


def grid_graph(nx, ny):
    pairs = []
    for i in range(nx):
        for j in range(ny):
            v = i * ny + j
            if i + 1 < nx:
                pairs.append((v, (i + 1) * ny + j))
            if j + 1 < ny:
                pairs.append((v, v + 1))
    return Graph.from_pairs(np.array(pairs), nx * ny)


class TestSpectral:
    def test_path_graph_splits_in_middle(self):
        g = Graph.from_pairs(
            np.column_stack([np.arange(9), np.arange(1, 10)]), 10
        )
        side = spectral_bisect(g)
        assert edgecut(g, side) == 1  # the Fiedler split of a path
        assert loads(g, side, 2).tolist() == [5, 5]

    def test_elongated_grid_cut_near_optimal(self):
        g = grid_graph(20, 4)  # optimal bisection cut = 4
        side = spectral_bisect(g)
        assert edgecut(g, side) <= 8
        ld = loads(g, side, 2)
        assert abs(ld[0] - ld[1]) <= 4

    def test_large_graph_uses_sparse_path(self):
        g = grid_graph(12, 12)  # 144 > 64: eigsh branch
        side = spectral_bisect(g, seed=3)
        assert set(side.tolist()) == {0, 1}
        assert edgecut(g, side) <= 30

    def test_trivial_sizes(self):
        assert spectral_bisect(Graph.from_pairs(np.empty((0, 2)), 1)).tolist() == [0]


class TestInertial:
    def test_splits_along_long_axis(self):
        pts = np.column_stack(
            [np.linspace(0, 10, 50), np.zeros(50), np.zeros(50)]
        )
        side = inertial_bisect(pts, np.ones(50))
        # all of side 0 left of all of side 1 along x
        assert pts[side == 0, 0].max() < pts[side == 1, 0].min()

    def test_weighted_median(self):
        pts = np.column_stack([np.arange(4.0), np.zeros(4), np.zeros(4)])
        w = np.array([10.0, 1, 1, 1])
        side = inertial_bisect(pts, w)
        # the heavy first point balances the other three
        assert side.tolist() == [0, 1, 1, 1]

    def test_shape_check(self):
        with pytest.raises(ValueError):
            inertial_bisect(np.zeros((3, 3)), np.ones(2))
