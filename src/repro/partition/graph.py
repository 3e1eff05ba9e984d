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

    Every row is strictly ascending by neighbour and holds no self-loop.
    :meth:`from_pairs`, :func:`~repro.partition.contract.contract` and the
    partitioner's induced subgraphs all build rows that way, and the
    coarsening kernels rely on it: heavy-edge matching breaks weight ties
    by neighbour id with one stable sort, and a subgraph keeps its
    parent's row order without sorting.
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
    def from_pairs(cls, pairs: np.ndarray, n: int) -> "Graph":
        """Build the unit-vertex-weight graph of an ``(m, 2)`` list of
        undirected edges.

        Self-loops are dropped; an edge listed ``c`` times (in either
        orientation) gets weight ``c``.  Weight the vertices with
        :meth:`with_vwgt`.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoint out of range")
        a, b = pairs[:, 0], pairs[:, 1]
        # both directions of every edge; equal (src, dst) keys merge
        key, ewgt = np.unique(np.concatenate([a * n + b, b * n + a]),
                              return_counts=True)
        src, adj = np.divmod(key, n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
        return cls(ptr=ptr, adj=adj, vwgt=np.ones(n, dtype=np.int64), ewgt=ewgt)

    def with_vwgt(self, vwgt: np.ndarray) -> "Graph":
        """Same topology, new vertex weights (adaption updates Wcomp)."""
        vwgt = np.asarray(vwgt, dtype=np.int64)
        if vwgt.shape[0] != self.n:
            raise ValueError(f"expected {self.n} weights, got {vwgt.shape[0]}")
        return Graph(ptr=self.ptr, adj=self.adj, vwgt=vwgt, ewgt=self.ewgt)
