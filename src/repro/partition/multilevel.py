"""Multilevel k-way graph partitioning (the MeTiS algorithm family).

Direct k-way (paper §4.2, DESIGN.md §9 "Direct k-way"): coarsen the whole
graph *once* with heavy-edge matching until it holds a few vertices per
part, partition that coarsest graph k ways, then uncoarsen, and on every
level rebalance with the greedy boundary pass and refine with the k-way
FM.  The coarsest graph is partitioned by recursive bisection with
proportional weight splits — each bisection the same scheme at k = 2:
coarsen, greedy graph growing, FM on the way up — so at k <= 2 the
bisection is the whole method.  :func:`coarsen` is the one coarsening
loop; the seeded repartitioner runs it too.  All randomness flows through
an explicit seed, so a k-way partition is a pure function of the graph's
arrays, ``k`` and ``seed`` — and :func:`multilevel_kway` computes
each distinct one once per process (DESIGN.md §9, "Partition reuse").
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from .contract import contract
from .fm_refine import UB, fm_bisection_refine, kway_fm_refine, kway_greedy_refine
from .graph import Graph
from .initial import greedy_graph_growing
from .matching import heavy_edge_matching
from .quality import loads

__all__ = ["coarsen", "multilevel_bisect", "multilevel_kway"]

#: Stop coarsening below this many vertices.
_COARSEN_TO = 64
#: ... or, partitioning k ways, below this many vertices per part: the
#: recursive bisection of the coarsest graph needs a few vertices per part
#: to balance with, and its cost grows with every one of them.
_COARSE_PER_PART = 8
#: Stop coarsening when a level shrinks by less than this factor.
_MIN_SHRINK = 0.95
#: Bytes of finished k-way partitions kept for reuse, least recently used
#: dropped first: ~800 partitions of a 2.6k-vertex dual graph, ~34 at the
#: paper's 61k elements.
_STORE_BYTES = 16 << 20


def coarsen(
    graph: Graph,
    rng: np.random.Generator,
    floor: int,
    part: np.ndarray | None = None,
) -> tuple[list[tuple[Graph, np.ndarray]], Graph, np.ndarray | None]:
    """Contract heavy-edge matchings until ``n <= floor`` or a level
    shrinks by less than 5 %.

    Returns ``(levels, coarsest, part)``: ``levels`` lists ``(fine graph,
    fine -> coarse map)`` from the input down.  With ``part``, no matching
    crosses its boundaries, so it projects exactly onto every level; what
    comes back is its projection onto ``coarsest``.
    """
    levels: list[tuple[Graph, np.ndarray]] = []
    g = graph
    while g.n > floor:
        match = heavy_edge_matching(g, rng, allowed=part)
        coarse, cmap = contract(g, match)
        if coarse.n > _MIN_SHRINK * g.n:
            break
        levels.append((g, cmap))
        if part is not None:
            cpart = np.zeros(coarse.n, dtype=np.int64)
            cpart[cmap] = part
            part = cpart
        g = coarse
    return levels, g, part


def multilevel_bisect(
    graph: Graph,
    target0: float,
    seed: int = 0,
) -> np.ndarray:
    """Bisect into sides {0, 1}; side 0 targets ``target0`` of the weight."""
    rng = np.random.default_rng(seed)
    levels, g, _ = coarsen(graph, rng, _COARSEN_TO)
    side = greedy_graph_growing(g, target0, rng)
    side = fm_bisection_refine(g, side, target0)
    for fine, cmap in reversed(levels):
        side = side[cmap]
        side = fm_bisection_refine(fine, side, target0)
    return side


def multilevel_kway(
    graph: Graph,
    k: int,
    seed: int = 0,
) -> np.ndarray:
    """Partition into ``k`` non-empty parts (direct multilevel k-way).

    The result is keyed on the *content* of the call — a digest of the
    graph's four arrays, ``k`` and ``seed`` — and computed once
    per process; a repeat returns a private copy of the stored labels,
    so callers may write into what they get.  The store holds at most
    ``_STORE_BYTES`` bytes of labels; ``multilevel_kway.cache_clear()``
    empties it, as ``functools.lru_cache``'s does.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > graph.n:
        raise ValueError(f"cannot cut {graph.n} vertices into k = {k} parts")
    key = _content_key(graph, k, seed)
    part = _STORE.get(key)
    if part is None:
        part = _kway(graph, k, seed)
        _STORE.put(key, part)
    return part.copy()


def _kway(graph: Graph, k: int, seed: int) -> np.ndarray:
    if k == 1:
        return np.zeros(graph.n, dtype=np.int64)
    levels: list[tuple[Graph, np.ndarray]] = []
    g = graph
    if k > 2:  # a bisection coarsens for itself
        floor = max(_COARSEN_TO, _COARSE_PER_PART * k)
        levels, g, _ = coarsen(graph, np.random.default_rng(seed), floor)
    part = np.zeros(g.n, dtype=np.int64)
    _recurse(g, np.arange(g.n, dtype=np.int64), k, 0, seed, part)
    part = _refine(g, part, k)
    for fine, cmap in reversed(levels):
        part = _refine(fine, part[cmap], k)
    return part


def _refine(g: Graph, part: np.ndarray, k: int) -> np.ndarray:
    """One level of k-way refinement: balance if need be, then climb."""
    if loads(g, part, k).max() > UB * (g.total_vwgt() / k):
        part = kway_greedy_refine(g, part, k, max_passes=8)
    return kway_fm_refine(g, part, k)


def _content_key(graph: Graph, k: int, seed: int) -> bytes:
    """128-bit digest of everything a k-way partition depends on.

    Each array is preceded by its length so the byte stream is injective
    (two graphs whose concatenated bytes agree but whose (n, m) differ
    get different keys); ``int()`` makes ``np.int64(3)`` and ``3`` the
    same call.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in (graph.ptr, graph.adj, graph.vwgt, graph.ewgt):
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(arr.size.to_bytes(8, "little"))
        h.update(arr)
    h.update(f"{int(k)}/{int(seed)}".encode())
    return h.digest()


class _PartitionStore:
    """Finished partitions by content key: LRU, bounded in bytes."""

    def __init__(self, maxbytes: int):
        self.maxbytes = maxbytes
        self.clear()

    def clear(self) -> None:
        self._parts: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._nbytes = 0
        self._hits = self._misses = 0

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
multilevel_kway.cache_clear = _STORE.clear


def _recurse(
    graph: Graph,
    vertices: np.ndarray,
    k: int,
    offset: int,
    seed: int,
    out: np.ndarray,
) -> None:
    if k == 1:
        out[vertices] = offset
        return
    k0 = (k + 1) // 2
    sub = _subgraph(graph, vertices)
    side = multilevel_bisect(sub, target0=k0 / k, seed=seed)
    _top_up(sub, side, (k0, k - k0))
    left = vertices[side == 0]
    right = vertices[side == 1]
    _recurse(graph, left, k0, offset, seed * 2 + 1, out)
    _recurse(graph, right, k - k0, offset + k0, seed * 2 + 2, out)


def _top_up(sub: Graph, side: np.ndarray, need: tuple[int, int]) -> None:
    """Give each side at least as many vertices as the parts it will be
    cut into, in place: the short side (heavy vertices, few per part)
    takes the other's lightest boundary vertices first."""
    count = np.bincount(side, minlength=2)
    for s in (0, 1):
        short = need[s] - int(count[s])
        if short <= 0:
            continue
        src = np.repeat(np.arange(sub.n, dtype=np.int64), np.diff(sub.ptr))
        touches = np.zeros(sub.n, dtype=bool)
        touches[src[side[sub.adj] == s]] = True
        other = np.flatnonzero(side != s)
        order = np.lexsort((other, sub.vwgt[other], ~touches[other]))
        side[other[order[:short]]] = s


def _subgraph(graph: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph with vertices renumbered 0..len(vertices)-1.

    ``vertices`` ascend (``_recurse`` only ever splits ``arange`` order),
    so the renumbering is monotone and the kept entries of each ascending
    CSR row stay ascending: a filter and one ``bincount``, no sort.
    """
    nv = vertices.shape[0]
    local = np.full(graph.n, -1, dtype=np.int64)
    local[vertices] = np.arange(nv)
    lsrc = np.repeat(local, np.diff(graph.ptr))
    ldst = local[graph.adj]
    sel = (lsrc >= 0) & (ldst >= 0)
    ptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(lsrc[sel], minlength=nv), out=ptr[1:])
    return Graph(ptr=ptr, adj=ldst[sel], vwgt=graph.vwgt[vertices],
                 ewgt=graph.ewgt[sel])
