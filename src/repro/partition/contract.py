"""Graph contraction: collapse a matching into a coarser graph.

The coarse CSR is built from the fine one directly: each kept directed
fine edge becomes the key ``csrc * nc + cdst``, one stable argsort groups
equal keys in row order, and ``np.add.reduceat`` sums their weights.
Both directions of every coarse edge come out of that one sort, already
in the ascending-row order :class:`~repro.partition.graph.Graph` promises
(``tests/kernels`` holds the result ``array_equal`` to its oracle).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["contract"]


def contract(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Collapse matched pairs; returns ``(coarse_graph, cmap)``.

    ``cmap[v]`` is the coarse vertex of fine vertex ``v``.  Coarse vertex
    weights are the sums of their constituents; parallel edges between
    coarse vertices merge with weights summed; internal edges vanish.
    ``match`` must be an involution (``match[match[v]] == v``), as
    :func:`~repro.partition.matching.heavy_edge_matching` returns.
    """
    n = graph.n
    match = np.asarray(match, dtype=np.int64)
    if match.shape != (n,):
        raise ValueError(f"match must have shape ({n},)")
    # representative = min(v, match[v]); coarse ids by order of representative
    fine = np.arange(n, dtype=np.int64)
    is_rep = match >= fine
    nc = int(is_rep.sum())
    cmap = (np.cumsum(is_rep) - 1)[np.minimum(fine, match)]
    cvwgt = np.bincount(cmap, weights=graph.vwgt, minlength=nc).astype(np.int64)
    # fine edges -> coarse edges, both directions, merged on (src, dst) keys
    csrc = np.repeat(cmap, np.diff(graph.ptr))
    cdst = cmap[graph.adj]
    keep = csrc != cdst
    key = csrc[keep] * nc + cdst[keep]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    ewgt = np.add.reduceat(graph.ewgt[keep][order], first)
    src, adj = np.divmod(key[first], nc)
    ptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nc), out=ptr[1:])
    coarse = Graph(ptr=ptr, adj=adj, vwgt=cvwgt, ewgt=ewgt)
    return coarse, cmap
