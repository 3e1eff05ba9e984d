"""The k-way FM refiner, pinned by its properties (counts, no timers).

It has one implementation, so there is no twin to compare it with: what
is asserted is what every caller relies on — the cut never rises, the
heaviest part never grows past ``max(cap, what it weighed)``, no part is
emptied, labels stay labels, equal inputs give equal bytes, and it ends
when there is nothing to do — plus the agreement of its vectorised
heap fill with the one-vertex rule, recomputed here the slow way.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cases import make_case
from repro.partition import Graph, edgecut, loads, multilevel_kway
from repro.partition.fm_refine import UB, _boundary_moves, kway_fm_refine

from tests.fixtures import row

from .test_partition_properties import random_connected_graph


@lru_cache(maxsize=None)
def _dual(resolution):
    mesh = make_case(resolution).mesh
    return Graph.from_pairs(mesh.dual_pairs, mesh.ne)


def _check(g, part, k, out):
    cap = UB * g.total_vwgt() / k
    before, after = loads(g, part, k), loads(g, out, k)
    assert out.shape == part.shape and out.dtype == np.int64
    assert out.min() >= 0 and out.max() < k
    assert after.max() <= max(cap, before.max())
    if before.max() <= cap:
        assert edgecut(g, out) <= edgecut(g, part)
    populated = np.bincount(part, minlength=k) > 0
    assert (np.bincount(out, minlength=k)[populated] > 0).all()
    assert kway_fm_refine(g, part, k).tobytes() == out.tobytes()


@given(
    n=st.integers(8, 140),
    extra=st.integers(0, 250),
    k=st.integers(2, 12),
    seed=st.integers(0, 999),
    balanced=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_properties_on_random_weighted_graphs(n, extra, k, seed, balanced):
    g = random_connected_graph(n, extra, seed, max_w=8)
    if balanced:
        part = multilevel_kway(g, min(k, n), seed=seed)
    else:
        part = np.random.default_rng(seed).integers(0, k, size=n)
    _check(g, part, k, kway_fm_refine(g, part, k))


@pytest.mark.parametrize("resolution", [4, 6])
@pytest.mark.parametrize("k", [3, 16, 64])
def test_properties_on_rotor_duals(resolution, k):
    g = _dual(resolution)
    # a random partition, its cut as bad as cuts get: there is work to do
    part = np.random.default_rng(k).integers(0, k, size=g.n)
    out = kway_fm_refine(g, part, k)
    _check(g, part, k, out)
    assert edgecut(g, out) < edgecut(g, part)
    # and a good one: whatever it finds, it gives nothing back
    part = multilevel_kway(g, k, seed=1)
    _check(g, part, k, kway_fm_refine(g, part, k))


def test_ends_at_once_without_a_boundary():
    g = _dual(4)
    one = np.zeros(g.n, dtype=np.int64)
    assert np.array_equal(kway_fm_refine(g, one, 1), one)
    # two components, one part each: no vertex has a foreign neighbour
    pairs = np.array([[0, 1], [1, 2], [3, 4], [4, 5]])
    h = Graph.from_pairs(pairs, 6)
    part = np.array([0, 0, 0, 1, 1, 1])
    assert np.array_equal(kway_fm_refine(h, part, 2), part)
    assert np.array_equal(kway_fm_refine(h, part, 4), part)  # labels 2, 3 unused


def test_never_takes_the_last_vertex():
    # a star: the hub alone in part 0 and one leaf alone in part 1; the hub
    # gains by joining that leaf and the leaf by joining the hub, and both
    # moves fit under the cap (3.15 of 9 vertices in 3 parts)
    n = 9
    g = Graph.from_pairs(np.column_stack([np.zeros(n - 1, int), np.arange(1, n)]), n)
    part = np.array([0, 1] + [2] * 7)
    out = kway_fm_refine(g, part, 3)
    assert np.bincount(out, minlength=3).min() >= 1


@given(
    n=st.integers(6, 80),
    extra=st.integers(0, 120),
    k=st.integers(2, 9),
    seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_heap_fill_is_the_one_vertex_rule(n, extra, k, seed):
    """``_boundary_moves`` against the definition: per boundary vertex,
    over the adjacent parts that stay within the cap, the largest
    connection, then the lighter part, then the lower label — and nothing
    for a vertex that is its part's last."""
    g = random_connected_graph(n, extra, seed, max_w=8)
    part = np.random.default_rng(seed).integers(0, k, size=n)
    cap = UB * g.total_vwgt() / k
    ld = loads(g, part, k).tolist()
    counts = np.bincount(part, minlength=k).tolist()
    src = np.repeat(np.arange(n), np.diff(g.ptr))
    nboundary, moves = _boundary_moves(g, src, part, k, ld, counts, cap)
    want, boundary = [], 0
    for v in range(n):
        conn = {}
        for u, w in zip(*row(g, v)):
            conn[int(part[u])] = conn.get(int(part[u]), 0) + int(w)
        own = conn.pop(int(part[v]), 0)
        boundary += bool(conn)
        ok = [
            (c, -ld[t], -t) for t, c in conn.items()
            if ld[t] + g.vwgt[v] <= cap and counts[part[v]] > 1
        ]
        if ok:
            c, _, neg_t = max(ok)
            want.append((own - c, v, -neg_t))
    assert nboundary == boundary
    assert moves == want
