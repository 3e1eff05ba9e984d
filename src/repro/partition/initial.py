"""Greedy graph growing bisection of the coarsest graph (paper §4.2:
"applies a greedy graph growing algorithm for partitioning the coarsest
graph").

A region is grown from a seed vertex by repeatedly absorbing the frontier
vertex with the highest gain (edge weight toward the region minus edge
weight away) until it holds the target share of the total vertex weight.
Several seeds are tried; the bisection with the smallest cut that meets the
balance tolerance wins.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph
from .quality import edgecut

__all__ = ["greedy_graph_growing"]


def greedy_graph_growing(
    graph: Graph,
    target_frac: float,
    rng: np.random.Generator,
    ntries: int = 4,
) -> np.ndarray:
    """Bisect ``graph`` into sides {0, 1}; side 0 aims for ``target_frac``
    of the total vertex weight.  Returns the side array."""
    if not 0.0 < target_frac < 1.0:
        raise ValueError(f"target_frac must be in (0, 1), got {target_frac}")
    n = graph.n
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    total = graph.total_vwgt()
    target = target_frac * total

    best_side = None
    best_cut = np.inf
    seeds = rng.choice(n, size=min(ntries, n), replace=False)
    for seed in seeds:
        side = _grow(graph, int(seed), target)
        cut = edgecut(graph, side)
        # prefer smaller cut; require both sides non-empty
        if side.min() == 0 and side.max() == 1 and cut < best_cut:
            best_cut, best_side = cut, side
    if best_side is None:  # pathological (e.g. single vertex dominating)
        side = np.zeros(n, dtype=np.int64)
        side[np.argsort(graph.vwgt)[: n // 2]] = 1
        best_side = side
    return best_side


def _grow(graph: Graph, seed: int, target: float) -> np.ndarray:
    # plain lists and a bytearray: the loop below is all scalar indexing
    n = graph.n
    ptr = graph.ptr.tolist()
    adj = graph.adj.tolist()
    ewgt = graph.ewgt.tolist()
    vwgt = graph.vwgt.tolist()
    in_region = bytearray(n)
    gain = [0] * n
    heap: list[tuple[int, int]] = []
    grown = 0.0

    def absorb(v: int) -> None:
        nonlocal grown
        in_region[v] = 1
        grown += vwgt[v]
        for i in range(ptr[v], ptr[v + 1]):
            u = adj[i]
            if not in_region[u]:
                gain[u] += 2 * ewgt[i]  # edge flips from cut to internal
                heapq.heappush(heap, (-gain[u], u))

    absorb(seed)
    while grown < target and heap:
        g, v = heapq.heappop(heap)
        if in_region[v] or -g != gain[v]:
            continue  # stale heap entry
        if grown + vwgt[v] > 1.5 * target and grown > 0.5 * target:
            continue  # adding a huge vertex would overshoot badly
        absorb(v)
    inside = np.frombuffer(in_region, dtype=np.bool_)  # a writable view
    if grown < target:
        # graph was disconnected: top up with the lightest outside vertices
        outside = np.flatnonzero(~inside)
        for v in outside[np.argsort(graph.vwgt[outside])]:
            if grown >= target:
                break
            inside[v] = True
            grown += vwgt[v]
    return np.where(inside, 0, 1).astype(np.int64)
