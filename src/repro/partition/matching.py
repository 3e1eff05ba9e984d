"""Heavy-edge matching for multilevel coarsening (Karypis & Kumar).

Visits vertices in a (seeded) random order; each unmatched vertex matches
the unmatched neighbour connected by the heaviest edge.  Collapsing heavy
edges early removes as much edge weight as possible from coarser levels,
which is what lets the coarsest-level partition already be a good one.

Every adjacency list is put in ``(-weight, neighbour)`` order up front,
so the per-vertex visit is a short scan that stops at the first unmatched
neighbour — no per-vertex ``flatnonzero``/``lexsort`` allocations.  CSR
rows already ascend by neighbour (:class:`~repro.partition.graph.Graph`),
so that order is one stable sort on the packed key ``row * span +
(wmax - weight)``, and no sort at all when every edge weighs the same, as
on each finest level.  Restricted to labels, the cross-label edges are
masked out first, so one scan serves both modes.  The scan order equals
the per-vertex lexsort order of the oracle in ``tests/kernels/oracles.py``,
so both produce identical matchings (``tests/kernels`` verifies).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["heavy_edge_matching"]


def heavy_edge_matching(
    graph: Graph,
    rng: np.random.Generator,
    allowed: np.ndarray | None = None,
) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = partner of ``v`` (or ``v`` itself).

    Parameters
    ----------
    allowed:
        Optional per-vertex labels; vertices may only match within the same
        label.  The seeded repartitioner uses this to keep coarsening from
        crossing old-partition boundaries, so the old partition projects
        exactly onto every coarse level.
    """
    n = graph.n
    order = rng.permutation(n).tolist()
    ptr, adj, ewgt = graph.ptr, graph.adj, graph.ewgt
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
    if allowed is not None:
        # a cross-label edge is never taken: drop them all before the scan
        lab = np.asarray(allowed)
        same = lab[src] == lab[adj]
        src, adj, ewgt = src[same], adj[same], ewgt[same]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    if ewgt.size and ewgt.min() != ewgt.max():
        # rows ascend by neighbour, so a stable sort on (row, heaviest
        # first) leaves equal weights in neighbour order
        wmax = int(ewgt.max())
        span = wmax - int(ewgt.min()) + 1
        adj = adj[np.argsort(src * span + (wmax - ewgt), kind="stable")]
    adj = adj.tolist()
    ptr = ptr.tolist()
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        m = v
        for u in adj[ptr[v] : ptr[v + 1]]:
            if match[u] == -1:
                m = u
                break
        match[v] = m
        match[m] = v
    return np.asarray(match, dtype=np.int64)
