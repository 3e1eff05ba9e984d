"""Seeded repartitions that need diffusion still end balanced.

At P >= 16 the restricted coarsening leaves so few coarse vertices per
part that ``balance_only`` moves on the coarsest graph cannot reach
``UB``: load cannot pass through a full neighbour.  ``repartition`` then
diffuses on the fine graph.  Every input below is one where that happens,
on each of its seeds: the resolution-6 sweep's strategies at P = 16-64,
and the resolution-8 set-up of ``benchmarks/e2e``'s ``vm_ranks``.  Each
result must use all k labels and weigh at most ``UB`` plus one maximal
vertex over the mean part, the bound an indivisible vertex can force.  A
fresh partition of the coarse graph, relabelled for agreement with the
old one, ended (6, Real_2, 64) and (8, Real_2, 256) outside it.
"""

import warnings
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import Graph, imbalance, multilevel_kway, repartition
from repro.partition.fm_refine import UB

from .test_nonempty_parts import _pair
from .test_partition_properties import random_connected_graph

rp = import_module("repro.partition.repartition")

SEEDS = (0, 1, 2)
SWEEP = [(6, strategy, k) for strategy in ("Real_1", "Real_2", "Real_3")
         for k in (16, 32, 64)]
VM_RANKS = [(8, "Real_2", k) for k in (64, 256)]


def _repartitioned(resolution, seed, strategy, k):
    before, after = _pair(resolution, seed, strategy)
    old = multilevel_kway(before, k, seed=seed)
    return after, repartition(after, k, old, seed=seed)


def _one_vertex(graph, k):
    return graph.vwgt.max() / (graph.total_vwgt() / k)


@pytest.mark.parametrize("resolution,strategy,k", SWEEP + VM_RANKS)
def test_diffusion_ends_balanced_with_every_label(resolution, strategy, k):
    for seed in SEEDS:
        graph, new = _repartitioned(resolution, seed, strategy, k)
        assert np.unique(new).size == k, seed
        assert imbalance(graph, new, k) <= UB + _one_vertex(graph, k), seed


def test_the_lumped_reproducer_is_within_one_vertex():
    """``test_nonempty_parts``'s ``(5, 4, Real_1, 64)`` once ended at 1.43
    (a part of two coarse lumps); on the fine graph one vertex is the
    only excess left."""
    graph, new = _repartitioned(5, 4, "Real_1", 64)
    assert imbalance(graph, new, 64) <= 1.1 + _one_vertex(graph, 64)


# --- the vectorised realisation against a per-vertex loop ---------------------


def realise_reference(graph, part, k, flow):
    """``_realise`` as a loop over vertices, edges and senders: each
    boundary vertex offers itself to the receiver of highest gain (then
    largest flow, then lowest label); along each part-graph edge, highest
    gain first (then lowest vertex), a vertex is a candidate while the
    weight before it is short of the edge's flow; each sender, least-covered
    edge first (then largest flow, lowest vertex), sends candidates while
    their midpoint is within its outflow and it keeps a vertex."""
    offers = {}
    for v in range(graph.n):
        s = int(part[v])
        conn, internal = {}, 0
        for i in range(graph.ptr[v], graph.ptr[v + 1]):
            pu, w = int(part[graph.adj[i]]), int(graph.ewgt[i])
            if pu == s:
                internal += w
            else:
                conn[pu] = conn.get(pu, 0) + w
        best = max(((c - internal, flow[s, t], -t) for t, c in conn.items()
                    if flow[s, t] > 0), default=None)
        if best is not None:
            offers.setdefault((s, -best[2]), []).append((-best[0], v))
    candidates = {}
    for (s, t), vs in offers.items():
        covered = 0
        for _, v in sorted(vs):
            if covered >= flow[s, t]:
                break
            candidates.setdefault(s, []).append(
                (covered / flow[s, t], -flow[s, t], v, t)
            )
            covered += int(graph.vwgt[v])
    out = part.copy()
    counts = np.bincount(part, minlength=k)
    for s, cands in candidates.items():
        sent, outflow = 0, flow[s].sum()
        for rank, (_, _, v, t) in enumerate(sorted(cands), start=1):
            sent += int(graph.vwgt[v])
            if sent - graph.vwgt[v] / 2 > outflow or rank >= counts[s]:
                break
            out[v] = t
    return out


def _src(graph):
    return np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))


def test_realise_is_the_loop_on_every_sweep_round(monkeypatch):
    """Every round of the resolution-6 sweep's diffusions at P = 16-64."""
    calls = []

    def recording(graph, src, part, k, flow):
        out = realise(graph, src, part, k, flow)
        calls.append((graph, part, k, flow, out))
        return out

    realise = rp._realise
    monkeypatch.setattr(rp, "_realise", recording)
    for strategy in ("Real_1", "Real_2", "Real_3"):
        for k in (16, 32, 64):
            _repartitioned(6, 0, strategy, k)
    assert len(calls) >= 9
    for graph, part, k, flow, out in calls:
        assert np.array_equal(out, realise_reference(graph, part, k, flow))


@given(
    n=st.integers(8, 90),
    extra=st.integers(0, 150),
    k=st.integers(2, 8),
    seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_realise_is_the_loop(n, extra, k, seed):
    """Random graphs and partitions with every label used, under their
    own diffusion flow and under random flows: tiny ones, and whole ones
    that vertex weights meet exactly."""
    graph = random_connected_graph(n, extra, seed, max_w=8)
    rng = np.random.default_rng(seed)
    part = rng.permutation(np.arange(n) % k)
    src = _src(graph)
    flows = [rp._flows(graph, src, part, k),
             rng.integers(0, 3, size=(k, k)) * rng.random((k, k)) * 10,
             rng.integers(0, 12, size=(k, k)).astype(float)]
    for flow in flows:
        got = rp._realise(graph, src, part, k, flow)
        assert np.array_equal(got, realise_reference(graph, part, k, flow))
        assert np.bincount(got, minlength=k).all()


def test_flows_balance_every_part_at_the_mean():
    """Net outflow of each part is its excess over the mean."""
    graph = random_connected_graph(60, 80, 3, max_w=8)
    part = np.arange(60) % 6
    flow = rp._flows(graph, _src(graph), part, 6)
    loads = np.bincount(part, weights=graph.vwgt, minlength=6)
    np.testing.assert_allclose(flow.sum(axis=1) - flow.sum(axis=0),
                               loads - loads.mean(), atol=1e-6)


def test_a_disconnected_graph_diffuses_without_dividing_by_zero():
    """Two paths, the heavy one split between parts 0 and 1: the part graph
    is disconnected, so the flow solve has no exact solution and conjugate
    gradients must stop where no descent is left."""
    pairs = [(i, i + 1) for i in range(19)] + [(i, i + 1) for i in range(20, 39)]
    graph = Graph.from_pairs(np.array(pairs), 40).with_vwgt(
        np.repeat([5, 1], 20)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = repartition(graph, 4, np.arange(40) // 10)
    assert np.unique(new).size == 4
