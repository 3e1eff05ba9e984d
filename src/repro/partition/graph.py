"""Weighted undirected graph in CSR form for partitioning.

The load balancer partitions the *dual graph* of the initial mesh: dual
vertices are tetrahedra, dual edges join elements sharing a face, vertex
weights are the ``Wcomp``/``Wremap`` of paper §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Graph"]


@dataclass
class Graph:
    """Undirected graph: CSR adjacency with vertex and edge weights.

    ``adj[ptr[v]:ptr[v+1]]`` are the neighbours of ``v``; ``ewgt`` is
    aligned with ``adj`` (each undirected edge appears twice, once per
    direction, with equal weight).
    """

    ptr: np.ndarray
    adj: np.ndarray
    vwgt: np.ndarray
    ewgt: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.ptr = np.asarray(self.ptr, dtype=np.int64)
        self.adj = np.asarray(self.adj, dtype=np.int64)
        self.vwgt = np.asarray(self.vwgt, dtype=np.int64)
        if self.ewgt is None:
            self.ewgt = np.ones(self.adj.shape[0], dtype=np.int64)
        else:
            self.ewgt = np.asarray(self.ewgt, dtype=np.int64)
        if self.ptr.shape[0] != self.n + 1:
            raise ValueError("ptr length must be n+1")
        if self.ewgt.shape != self.adj.shape:
            raise ValueError("ewgt must align with adj")
        if self.vwgt.shape[0] != self.n:
            raise ValueError("vwgt must have one entry per vertex")

    @property
    def n(self) -> int:
        return self.vwgt.shape[0] if self.vwgt is not None else self.ptr.shape[0] - 1

    @property
    def nedges(self) -> int:
        """Number of undirected edges."""
        return self.adj.shape[0] // 2

    def total_vwgt(self) -> int:
        return int(self.vwgt.sum())

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.ptr[v] : self.ptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        return self.ewgt[self.ptr[v] : self.ptr[v + 1]]

    @classmethod
    def from_pairs(
        cls,
        pairs: np.ndarray,
        n: int,
        vwgt: np.ndarray | None = None,
        ewgt: np.ndarray | None = None,
    ) -> "Graph":
        """Build from an ``(m, 2)`` list of undirected edges.

        Parallel edges are merged with weights summed; self-loops dropped.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if ewgt is None:
            ewgt = np.ones(pairs.shape[0], dtype=np.int64)
        else:
            ewgt = np.asarray(ewgt, dtype=np.int64)
        keep = pairs[:, 0] != pairs[:, 1]
        pairs, ewgt = pairs[keep], ewgt[keep]
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoint out of range")
        if vwgt is None:
            vwgt = np.ones(n, dtype=np.int64)
        if pairs.shape[0] == 0:
            return cls(
                ptr=np.zeros(n + 1, dtype=np.int64),
                adj=np.empty(0, dtype=np.int64),
                vwgt=vwgt,
                ewgt=np.empty(0, dtype=np.int64),
            )
        # merge duplicates on canonical (lo, hi) keys
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        keys_s, lo_s, hi_s, w_s = keys[order], lo[order], hi[order], ewgt[order]
        first = np.r_[True, keys_s[1:] != keys_s[:-1]]
        starts = np.flatnonzero(first)
        wsum = np.add.reduceat(w_s, starts) if starts.size else np.empty(0, np.int64)
        ulo, uhi = lo_s[first], hi_s[first]
        # symmetrize
        src = np.concatenate([ulo, uhi])
        dst = np.concatenate([uhi, ulo])
        ww = np.concatenate([wsum, wsum])
        order2 = np.lexsort((dst, src))
        src, dst, ww = src[order2], dst[order2], ww[order2]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
        return cls(ptr=ptr, adj=dst, vwgt=vwgt, ewgt=ww)

    def with_vwgt(self, vwgt: np.ndarray) -> "Graph":
        """Same topology, new vertex weights (adaption updates Wcomp)."""
        vwgt = np.asarray(vwgt, dtype=np.int64)
        if vwgt.shape[0] != self.n:
            raise ValueError(f"expected {self.n} weights, got {vwgt.shape[0]}")
        return Graph(ptr=self.ptr, adj=self.adj, vwgt=vwgt, ewgt=self.ewgt)
