"""Partition quality metrics: edge cut and load imbalance."""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["edgecut", "imbalance", "loads"]


def loads(graph: Graph, part: np.ndarray, k: int | None = None) -> np.ndarray:
    """Total vertex weight per partition."""
    part = np.asarray(part, dtype=np.int64)
    if k is None:
        k = int(part.max()) + 1 if part.size else 0
    return np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)


def edgecut(graph: Graph, part: np.ndarray) -> int:
    """Total weight of edges whose endpoints lie in different partitions."""
    part = np.asarray(part, dtype=np.int64)
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
    cut = part[src] != part[graph.adj]
    return int(graph.ewgt[cut].sum()) // 2  # each edge counted twice


def imbalance(graph: Graph, part: np.ndarray, k: int) -> float:
    """Max partition load over the perfectly-balanced load (>= 1.0).

    This is the quantity whose decrease the paper's cost model calls the
    computational gain (max-loaded processor dominates a synchronous solver).
    """
    ld = loads(graph, part, k)
    avg = graph.total_vwgt() / k
    if avg == 0:
        return 1.0
    return float(ld.max() / avg)

