"""Reuse of k-way partitions is invisible except in time.

``multilevel_kway`` keeps finished partitions keyed on the content of
the call; these tests pin what a caller may rely on: a reused answer is
the computed one, nothing a caller does to its arrays leaks into a later
answer, and the store stays inside its byte bound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import Graph, multilevel, multilevel_kway

from .test_partition_properties import random_connected_graph

graphs = st.builds(
    random_connected_graph,
    n=st.integers(8, 90),
    extra_edges=st.integers(0, 120),
    seed=st.integers(0, 999),
)
ks = st.integers(1, 6)
seeds = st.integers(0, 2**40)


def test_every_test_starts_with_an_empty_store():
    # conftest.py's autouse fixture; the suite has partitioned plenty by now
    assert multilevel_kway.cache_info() == (0, 0, multilevel._STORE_BYTES, 0)
    assert multilevel._STORE_BYTES == 16 << 20


@given(g=graphs, k=ks, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_hit_equals_miss(g, k, seed):
    multilevel_kway.cache_clear()
    miss = multilevel_kway(g, k, seed=seed)
    hit = multilevel_kway(g, k, seed=seed)
    info = multilevel_kway.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, miss.nbytes)
    multilevel_kway.cache_clear()
    again = multilevel_kway(g, k, seed=seed)
    assert multilevel_kway.cache_info().misses == 1
    for other in (hit, again):
        assert other.dtype == miss.dtype
        assert np.array_equal(other, miss)


@given(g=graphs, k=ks, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_callers_writes_never_reach_a_later_answer(g, k, seed):
    multilevel_kway.cache_clear()
    first = multilevel_kway(g, k, seed=seed)
    expected = first.copy()
    first[:] = -1  # answers are private, writable copies ...
    second = multilevel_kway(g, k, seed=seed)
    assert np.array_equal(second, expected)
    second[:] = -2  # ... on a hit as much as on a miss
    assert np.array_equal(multilevel_kway(g, k, seed=seed), expected)

    # mutating the graph in place changes the key: the stored answer for
    # the old weights is not handed out for the new ones
    g.vwgt[0] += 7
    misses = multilevel_kway.cache_info().misses
    mutated = multilevel_kway(g, k, seed=seed)
    assert multilevel_kway.cache_info().misses == misses + 1
    multilevel_kway.cache_clear()
    assert np.array_equal(mutated, multilevel_kway(g, k, seed=seed))


@given(g=graphs, k=ks)
@settings(max_examples=10, deadline=None)
def test_numpy_and_python_scalars_share_an_entry(g, k):
    multilevel_kway.cache_clear()
    a = multilevel_kway(g, k, seed=3, ub=1.05)
    for kk, seed, ub in (
        (np.int64(k), 3, 1.05),
        (k, np.int64(3), 1.05),
        (k, 3, np.float64(1.05)),
    ):
        assert np.array_equal(multilevel_kway(g, kk, seed=seed, ub=ub), a)
    info = multilevel_kway.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    multilevel_kway(g, k, seed=3, ub=1.06)
    multilevel_kway(g, k, seed=4, ub=1.05)
    assert multilevel_kway.cache_info().misses == 3


def test_same_bytes_different_shape_do_not_share_an_entry():
    # ptr | adj | vwgt | ewgt concatenate to the same nine int64s; only
    # the lengths tell n=4, m=0 from n=2, m=1 (the second is not a valid
    # CSR graph, but Graph checks shapes only, so the key must not care)
    a = Graph(ptr=[0, 0, 0, 0, 0], adj=[], vwgt=[1, 1, 1, 1], ewgt=[])
    b = Graph(ptr=[0, 0, 0], adj=[0, 0], vwgt=[1, 1], ewgt=[1, 1])
    stream = lambda g: b"".join(
        x.tobytes() for x in (g.ptr, g.adj, g.vwgt, g.ewgt)
    )
    assert stream(a) == stream(b) and (a.n, a.nedges) != (b.n, b.nedges)
    assert multilevel_kway(a, 1).shape == (4,)
    assert multilevel_kway(b, 1).shape == (2,)
    info = multilevel_kway.cache_info()
    assert (info.hits, info.misses) == (0, 2)


def test_store_is_bounded_in_bytes_and_evicts_least_recently_used(monkeypatch):
    g = random_connected_graph(60, 80, seed=5)
    nbytes = g.n * 8
    monkeypatch.setattr(multilevel._STORE, "maxbytes", 3 * nbytes + 1)

    def misses_on(seed):
        before = multilevel_kway.cache_info().misses
        multilevel_kway(g, 4, seed=seed)
        info = multilevel_kway.cache_info()
        assert info.currsize <= info.maxsize == multilevel._STORE.maxbytes
        return info.misses - before

    assert [misses_on(s) for s in (0, 1, 2)] == [1, 1, 1]
    assert multilevel_kway.cache_info().currsize == 3 * nbytes
    assert misses_on(0) == 0  # seed 0 is now the most recently used
    assert misses_on(3) == 1  # full: seed 1, the oldest, makes room
    assert multilevel_kway.cache_info().currsize == 3 * nbytes
    assert [misses_on(s) for s in (0, 2, 3)] == [0, 0, 0]
    assert misses_on(1) == 1

    # a partition larger than the whole bound is computed but not kept
    monkeypatch.setattr(multilevel._STORE, "maxbytes", nbytes - 1)
    assert misses_on(9) == 1 and misses_on(9) == 1
    assert multilevel_kway.cache_info().currsize == 0
