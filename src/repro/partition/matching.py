"""Heavy-edge matching for multilevel coarsening (Karypis & Kumar).

Visits vertices in a (seeded) random order; each unmatched vertex matches
the unmatched neighbour connected by the heaviest edge.  Collapsing heavy
edges early removes as much edge weight as possible from coarser levels,
which is what lets the coarsest-level partition already be a good one.

Every adjacency list is presorted by ``(-weight, neighbour)`` with one
global argsort, so the per-vertex visit is a short scan that stops at the
first unmatched neighbour — no per-vertex ``flatnonzero``/``lexsort``
allocations.  The scan order equals the per-vertex lexsort order of the
oracle in ``tests/kernels/oracles.py``, so both produce identical
matchings (``tests/kernels`` verifies).
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
    # one pass-wide argsort puts each adjacency segment in (-w, nbr) order:
    # the first free neighbour found in a scan IS the heaviest-edge partner
    # (ties broken by smaller neighbour id), as a per-vertex lexsort gives
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.ptr))
    by_weight = np.lexsort((graph.adj, -graph.ewgt, src))
    adj = graph.adj[by_weight].tolist()
    ptr = graph.ptr.tolist()
    match = [-1] * n
    if allowed is None:
        for v in order:
            if match[v] != -1:
                continue
            m = v
            for i in range(ptr[v], ptr[v + 1]):
                u = adj[i]
                if match[u] == -1:
                    m = u
                    break
            match[v] = m
            if m != v:
                match[m] = v
    else:
        lab = np.asarray(allowed).tolist()
        for v in order:
            if match[v] != -1:
                continue
            m = v
            lv = lab[v]
            for i in range(ptr[v], ptr[v + 1]):
                u = adj[i]
                if match[u] == -1 and lab[u] == lv:
                    m = u
                    break
            match[v] = m
            if m != v:
                match[m] = v
    return np.asarray(match, dtype=np.int64)
