"""Heavy-edge matching and graph contraction."""

import hashlib

import numpy as np
import pytest

from repro.core.dualgraph import DualGraph
from repro.experiments.cases import make_case
from repro.partition import Graph, contract, heavy_edge_matching, multilevel_kway
from repro.partition.multilevel import _COARSEN_TO, coarsen
from tests.fixtures import weighted_graph


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


def test_matching_is_valid():
    g = grid_graph(5, 5)
    match = heavy_edge_matching(g, np.random.default_rng(0))
    for v in range(g.n):
        u = match[v]
        assert match[u] == v  # symmetric
        if u != v:
            assert u in g.neighbors(v)  # matched along an edge


class _FixedOrder:
    """rng stub visiting vertices in index order (for deterministic tests)."""

    def permutation(self, n):
        return np.arange(n)


def test_matching_prefers_heavy_edges():
    # triangle with one heavy edge: 0-1 weight 10, others weight 1.
    # With vertex 0 visited first, HEM must take the weight-10 edge.
    g = weighted_graph([[0, 1], [1, 2], [0, 2]], 3, ewgt=[10, 1, 1])
    match = heavy_edge_matching(g, _FixedOrder())
    assert match[0] == 1 and match[1] == 0
    assert match[2] == 2


def test_matching_respects_allowed_labels():
    g = grid_graph(4, 4)
    labels = np.arange(16) % 2
    match = heavy_edge_matching(g, np.random.default_rng(1), allowed=labels)
    for v in range(16):
        assert labels[match[v]] == labels[v]


def test_contract_conserves_weight_and_shrinks():
    g = grid_graph(6, 6)
    match = heavy_edge_matching(g, np.random.default_rng(2))
    coarse, cmap = contract(g, match)
    assert coarse.total_vwgt() == g.total_vwgt()
    assert coarse.n < g.n
    assert cmap.shape == (g.n,)
    assert cmap.max() == coarse.n - 1
    # matched pairs land on the same coarse vertex
    for v in range(g.n):
        assert cmap[v] == cmap[match[v]]


def test_contract_merges_edge_weights():
    # square 0-1-2-3: match (0,1) and (2,3); two cut edges merge into one
    # coarse edge of weight 2
    g = Graph.from_pairs(np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), 4)
    match = np.array([1, 0, 3, 2])
    coarse, cmap = contract(g, match)
    assert coarse.n == 2
    assert coarse.nedges == 1
    assert coarse.edge_weights(0).tolist() == [2]
    assert coarse.vwgt.tolist() == [2, 2]


# --- the coarsening loop, pinned ---------------------------------------------

#: (resolution, unit edge weights?, restricted?) -> number of levels and
#: the blake2b of every level's ``ptr``/``adj``/``vwgt``/``ewgt`` and
#: ``cmap``, the coarsest graph, the projected labels and the rng's state
#: afterwards (``multilevel_bisect`` keeps drawing from it), on a rotor
#: dual with seeded random weights.  A faster matching or contraction must
#: leave these alone; ``python tests/partition/test_coarsening.py`` prints
#: the table.
COARSEN_DIGESTS = {
    (6, False, False): '7:690746d9ad9cd9e8',
    (6, False, True): '5:2fbf8547f240a4b9',
    (6, True, False): '7:5d322b9400f5c8f2',
    (6, True, True): '5:7135c78a043c7235',
    (8, False, False): '8:6be557cc500a0b71',
    (8, False, True): '6:57584e62e15015a3',
    (8, True, False): '8:1d9c94675100fb1f',
    (8, True, True): '6:65eb810d4b09b153',
}


def _weighted_dual(resolution: int, unit_edges: bool) -> Graph:
    g = DualGraph(make_case(resolution).mesh).graph
    rng = np.random.default_rng(resolution)
    vwgt = rng.integers(1, 50, size=g.n)
    if unit_edges:
        return g.with_vwgt(vwgt)
    src = np.repeat(np.arange(g.n), np.diff(g.ptr))
    edge = np.minimum(src, g.adj) * g.n + np.maximum(src, g.adj)
    _, which = np.unique(edge, return_inverse=True)
    w = rng.integers(1, 9, size=which.max() + 1)
    return Graph(ptr=g.ptr, adj=g.adj, vwgt=vwgt, ewgt=w[which])


def _coarsen_digest(resolution: int, unit_edges: bool, restricted: bool) -> str:
    g = _weighted_dual(resolution, unit_edges)
    rng = np.random.default_rng(7)
    if restricted:
        labels = multilevel_kway(g, 16)
        levels, coarsest, part = coarsen(g, rng, 4 * _COARSEN_TO, part=labels)
    else:
        levels, coarsest, part = coarsen(g, rng, _COARSEN_TO)
    h = hashlib.blake2b(digest_size=8)
    arrays = [a for fine, cmap in levels
              for a in (fine.ptr, fine.adj, fine.vwgt, fine.ewgt, cmap)]
    arrays += [coarsest.ptr, coarsest.adj, coarsest.vwgt, coarsest.ewgt]
    if part is not None:
        arrays.append(part)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(a.size.to_bytes(8, "little"))
        h.update(a)
    h.update(repr(rng.bit_generator.state).encode())
    return f"{len(levels)}:{h.hexdigest()}"


@pytest.mark.parametrize("case", sorted(COARSEN_DIGESTS), ids=str)
def test_coarsen_is_pinned(case):
    assert _coarsen_digest(*case) == COARSEN_DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(COARSEN_DIGESTS):
        print(f"    {case}: {_coarsen_digest(*case)!r},")
