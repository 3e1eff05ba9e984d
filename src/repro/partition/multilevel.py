"""Multilevel k-way graph partitioning (the MeTiS algorithm family).

Coarsen with heavy-edge matching until the graph is small, bisect the
coarsest graph with greedy graph growing, then uncoarsen while refining
with FM at every level.  k-way partitions come from recursive bisection
with proportional weight splits, followed by a final k-way greedy boundary
refinement.  All randomness flows through an explicit seed, so a k-way
partition is a pure function of the graph's arrays, ``k``, ``seed`` and
``ub`` — and :func:`multilevel_kway` computes each distinct one once per
process (DESIGN.md §9, "Partition reuse").
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .contract import contract
from .fm_refine import fm_bisection_refine, kway_greedy_refine
from .graph import Graph
from .initial import greedy_graph_growing
from .matching import heavy_edge_matching

__all__ = ["multilevel_bisect", "multilevel_kway"]

#: Stop coarsening below this many vertices.
_COARSEN_TO = 64
#: Stop coarsening when a level shrinks by less than this factor.
_MIN_SHRINK = 0.95
#: Bytes of finished k-way partitions kept for reuse, least recently used
#: dropped first: ~800 partitions of a 2.6k-vertex dual graph, ~34 at the
#: paper's 61k elements.
_STORE_BYTES = 16 << 20


def multilevel_bisect(
    graph: Graph,
    target0: float,
    seed: int = 0,
    ub: float = 1.05,
) -> np.ndarray:
    """Bisect into sides {0, 1}; side 0 targets ``target0`` of the weight."""
    rng = np.random.default_rng(seed)
    levels: list[tuple[Graph, np.ndarray]] = []
    g = graph
    while g.n > _COARSEN_TO:
        match = heavy_edge_matching(g, rng)
        coarse, cmap = contract(g, match)
        if coarse.n > _MIN_SHRINK * g.n:
            break
        levels.append((g, cmap))
        g = coarse
    side = greedy_graph_growing(g, target0, rng)
    side = fm_bisection_refine(g, side, target0, ub=ub)
    for fine, cmap in reversed(levels):
        side = side[cmap]
        side = fm_bisection_refine(fine, side, target0, ub=ub)
    return side


def multilevel_kway(
    graph: Graph,
    k: int,
    seed: int = 0,
    ub: float = 1.05,
) -> np.ndarray:
    """Partition into ``k`` parts via recursive bisection + k-way refine.

    The result is keyed on the *content* of the call — a digest of the
    graph's four arrays, ``k``, ``seed`` and ``ub`` — and computed once
    per process; a repeat returns a private copy of the stored labels,
    so callers may write into what they get.  ``multilevel_kway
    .cache_info()`` / ``.cache_clear()`` follow ``functools.lru_cache``
    (sizes are bytes, bounded by ``_STORE_BYTES``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    key = _content_key(graph, k, seed, ub)
    part = _STORE.get(key)
    if part is None:
        part = _kway(graph, k, seed, ub)
        _STORE.put(key, part)
    return part.copy()


def _kway(graph: Graph, k: int, seed: int, ub: float) -> np.ndarray:
    part = np.zeros(graph.n, dtype=np.int64)
    _recurse(graph, np.arange(graph.n, dtype=np.int64), k, 0, seed, ub, part)
    if k > 1:
        part = kway_greedy_refine(graph, part, k, ub=ub)
    return part


def _content_key(graph: Graph, k: int, seed: int, ub: float) -> bytes:
    """128-bit digest of everything a k-way partition depends on.

    Each array is preceded by its length so the byte stream is injective
    (two graphs whose concatenated bytes agree but whose (n, m) differ
    get different keys); ``int()``/``float()`` make ``np.int64(3)`` and
    ``3`` the same call.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in (graph.ptr, graph.adj, graph.vwgt, graph.ewgt):
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(arr.size.to_bytes(8, "little"))
        h.update(arr)
    h.update(f"{int(k)}/{int(seed)}/{float(ub)!r}".encode())
    return h.digest()


class CacheInfo(NamedTuple):
    """``functools.lru_cache``'s statistics; both sizes are in bytes."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _PartitionStore:
    """Finished partitions by content key: LRU, bounded in bytes."""

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.clear()

    def clear(self) -> None:
        self._parts: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._nbytes = 0
        self._hits = self._misses = 0

    def info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.maxbytes, self._nbytes)

    def get(self, key: bytes) -> np.ndarray | None:
        part = self._parts.get(key)
        if part is None:
            self._misses += 1
            return None
        self._hits += 1
        self._parts.move_to_end(key)
        return part

    def put(self, key: bytes, part: np.ndarray) -> None:
        """Keep ``part`` (read-only from here on), evicting oldest first."""
        part.flags.writeable = False
        self._parts[key] = part
        self._nbytes += part.nbytes
        while self._nbytes > self.maxbytes:
            _, old = self._parts.popitem(last=False)
            self._nbytes -= old.nbytes


_STORE = _PartitionStore(_STORE_BYTES)
multilevel_kway.cache_info = _STORE.info
multilevel_kway.cache_clear = _STORE.clear


def _recurse(
    graph: Graph,
    vertices: np.ndarray,
    k: int,
    offset: int,
    seed: int,
    ub: float,
    out: np.ndarray,
) -> None:
    if k == 1:
        out[vertices] = offset
        return
    k0 = (k + 1) // 2
    sub = _subgraph(graph, vertices)
    side = multilevel_bisect(sub, target0=k0 / k, seed=seed, ub=ub)
    left = vertices[side == 0]
    right = vertices[side == 1]
    _recurse(graph, left, k0, offset, seed * 2 + 1, ub, out)
    _recurse(graph, right, k - k0, offset + k0, seed * 2 + 2, ub, out)


def _subgraph(graph: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph with vertices renumbered 0..len(vertices)-1."""
    n = graph.n
    local = np.full(n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.shape[0])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.ptr))
    sel = (local[src] >= 0) & (local[graph.adj] >= 0)
    half = sel & (src < graph.adj)
    pairs = np.column_stack([local[src[half]], local[graph.adj[half]]])
    return Graph.from_pairs(
        pairs, vertices.shape[0], vwgt=graph.vwgt[vertices], ewgt=graph.ewgt[half]
    )
