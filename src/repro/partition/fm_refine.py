"""Boundary refinement: Fiduccia–Mattheyses for bisections, and for k-way
partitions a greedy boundary pass plus a k-way FM (paper §4.2: "a
combination of boundary greedy and Kernighan-Lin refinement").

The inner loops run on plain Python lists and scalars, with incremental
gain maintenance between FM passes.  The straightforward numpy-scalar
forms of the bisection FM and the greedy pass are the oracles in
``tests/kernels/oracles.py``: bit-identical by construction — same move
sequence, same IEEE-double balance arithmetic — which ``tests/kernels``
verifies on every graph family we partition.  The k-way FM has one
implementation and is pinned by its properties
(``tests/partition/test_kway_fm.py``).

One invariant holds in all three: a part (or side) never gives up its
last vertex, rollback included, so no refiner can empty a part.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph

__all__ = ["fm_bisection_refine", "kway_fm_refine", "kway_greedy_refine"]

#: Balance tolerance of every partition: a part (or side) may weigh at
#: most ``UB`` times its target.
UB = 1.05
#: FM passes a bisection refinement runs at most.
FM_PASSES = 4


def _gains_bisection(graph: Graph, side: np.ndarray) -> np.ndarray:
    """FM gain of moving each vertex to the other side (ext - int weight)."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
    ext = side[src] != side[graph.adj]
    # integer weights: the float64 sums of bincount are exact
    signed = np.where(ext, graph.ewgt, -graph.ewgt)
    return np.bincount(src, weights=signed, minlength=graph.n).astype(np.int64)


def _gains_subset(graph: Graph, side: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """FM gains of ``vertices`` only (the incremental inter-pass update)."""
    starts = graph.ptr[vertices]
    counts = graph.ptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(vertices.shape[0], dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    eidx = np.repeat(starts - offsets, counts) + np.arange(total)
    owner = np.repeat(np.arange(vertices.shape[0]), counts)
    ext = side[vertices][owner] != side[graph.adj[eidx]]
    signed = np.where(ext, graph.ewgt[eidx], -graph.ewgt[eidx])
    return np.bincount(
        owner, weights=signed, minlength=vertices.shape[0]
    ).astype(np.int64)


def fm_bisection_refine(
    graph: Graph,
    side: np.ndarray,
    target0: float,
) -> np.ndarray:
    """Refine a bisection with FM passes (hill-climbing + rollback).

    ``target0`` is side 0's intended share of the total vertex weight; a
    move is admissible while the receiving side stays within ``UB`` times
    its target and the giving side keeps a vertex.  Each pass moves every
    vertex at most once, keeps the best prefix of the move sequence (by
    cut, ties by balance), and rolls back past it.  Negative-gain moves
    are explored until no improvement has been seen for a while, which
    lets FM climb out of local minima.

    Between passes only the gains of moved vertices and their neighbours
    are recomputed (a move — kept or rolled back — can only have disturbed
    its own neighbourhood's cached gains); everything stays on plain
    Python scalars inside the pass to keep the per-move cost flat.
    """
    side_np = np.array(side, dtype=np.int64)
    n = graph.n
    total = graph.total_vwgt()
    caps = (UB * (target0 * total), UB * ((1.0 - target0) * total))
    vwgt_np = graph.vwgt
    w = [
        float(vwgt_np[side_np == 0].sum()),
        float(vwgt_np[side_np == 1].sum()),
    ]
    ones = int(side_np.sum())
    count = [n - ones, ones]
    stall_limit = max(50, n // 4)

    ptr = graph.ptr.tolist()
    adj = graph.adj.tolist()
    ewgt = graph.ewgt.tolist()
    vwgt = vwgt_np.tolist()
    side_l = side_np.tolist()
    fill_caps = (max(caps[0], 1e-12), max(caps[1], 1e-12))

    gain_np = _gains_bisection(graph, side_np)
    touched: list[int] | None = None  # moves of the previous pass
    for _ in range(FM_PASSES):
        if touched:
            side_np = np.asarray(side_l, dtype=np.int64)
            moved = np.asarray(touched, dtype=np.int64)
            starts = graph.ptr[moved]
            counts = graph.ptr[moved + 1] - starts
            offsets = np.cumsum(counts) - counts
            eidx = np.repeat(starts - offsets, counts) + np.arange(
                int(counts.sum())
            )
            aff = np.unique(np.concatenate([moved, graph.adj[eidx]]))
            gain_np[aff] = _gains_subset(graph, side_np, aff)
        gain = gain_np.tolist()
        locked = bytearray(n)
        heaps: list[list[tuple[int, int]]] = [[], []]
        for v in range(n):
            heaps[side_l[v]].append((-gain[v], v))
        heapq.heapify(heaps[0])
        heapq.heapify(heaps[1])
        moves: list[int] = []
        cum = 0
        best_cum = 0
        best_len = 0
        since_best = 0
        while since_best <= stall_limit:
            # best admissible move across both sides: higher gain wins,
            # ties go to the currently more overweight side (side 0 on a
            # full tie, as a stable sort of the candidates would)
            best_v = -1
            best_s = 0
            best_g = 0
            best_fill = 0.0
            for s in (0, 1):
                if count[s] <= 1:
                    continue  # a side never gives up its last vertex
                heap = heaps[s]
                t = 1 - s
                cap_t = caps[t]
                w_t = w[t]
                while heap:
                    negg, v = heap[0]
                    if locked[v] or side_l[v] != s or -negg != gain[v]:
                        heapq.heappop(heap)  # stale
                        continue
                    if w_t + vwgt[v] > cap_t:
                        heapq.heappop(heap)  # would break balance; drop
                        continue
                    g = -negg
                    fill = w[s] / fill_caps[s]
                    if best_v < 0 or g > best_g or (g == best_g and fill > best_fill):
                        best_v, best_s, best_g, best_fill = v, s, g, fill
                    break
            if best_v < 0:
                break
            s = best_s
            v = best_v
            heapq.heappop(heaps[s])
            cum += gain[v]
            wv = vwgt[v]
            w[s] -= wv
            w[1 - s] += wv
            count[s] -= 1
            count[1 - s] += 1
            sv = 1 - s
            side_l[v] = sv
            locked[v] = 1
            moves.append(v)
            for i in range(ptr[v], ptr[v + 1]):
                u = adj[i]
                if locked[u]:
                    continue
                # side_l[v] is already flipped: if u now shares v's side the
                # edge went external->internal (gain drops), else the reverse
                ew = ewgt[i]
                gu = gain[u] + (-2 * ew if side_l[u] == sv else 2 * ew)
                gain[u] = gu
                heapq.heappush(heaps[side_l[u]], (-gu, u))
            if cum > best_cum:
                best_cum = cum
                best_len = len(moves)
                since_best = 0
            else:
                since_best += 1
        for v in moves[best_len:]:  # rollback past the best prefix
            s = side_l[v]
            wv = vwgt[v]
            w[s] -= wv
            w[1 - s] += wv
            count[s] -= 1
            count[1 - s] += 1
            side_l[v] = 1 - s
        touched = moves
        if best_cum <= 0:
            break
    return np.asarray(side_l, dtype=np.int64)


def kway_greedy_refine(
    graph: Graph,
    part: np.ndarray,
    k: int,
    max_passes: int = 4,
    balance_only: bool = False,
) -> np.ndarray:
    """Greedy boundary refinement of a k-way partition.

    Boundary vertices move to the neighbouring partition with the largest
    positive gain, provided the destination stays within ``UB`` times the
    average load; overweight partitions may also shed vertices at zero or
    negative gain, and may shed into a neighbour that ends *above* the cap
    as long as it ends below where the source started (weight then flows
    through full neighbours to wherever there is room).  No move takes a
    partition's last vertex.

    With ``balance_only=True`` — the mode the seeded repartitioner uses to
    keep data movement minimal — cut-improving moves between balanced
    partitions are suppressed and every destination stays within the cap:
    that path has no cut refinement to repair what shedding through a full
    neighbour does to the boundary.
    """
    part_np = np.array(part, dtype=np.int64)
    total = graph.total_vwgt()
    cap = UB * (total / k)
    loads = np.bincount(
        part_np, weights=graph.vwgt.astype(np.float64), minlength=k
    ).tolist()
    if balance_only and max(loads) <= cap:
        return part_np  # no part is overweight: no move is admissible
    counts = np.bincount(part_np, minlength=k).tolist()
    ptr = graph.ptr.tolist()
    adj = graph.adj.tolist()
    ewgt = graph.ewgt.tolist()
    vwgt = graph.vwgt.tolist()
    part_l = part_np.tolist()
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
    adj_np = graph.adj
    neg_inf = float("-inf")

    for _ in range(max_passes):
        moved = 0
        part_arr = np.asarray(part_l, dtype=np.int64)
        boundary = np.unique(src[part_arr[src] != part_arr[adj_np]])
        if balance_only:
            # only an overweight part gives anything up, and no part
            # becomes overweight on the way: the rest need no visit
            boundary = boundary[np.asarray(loads)[part_arr[boundary]] > cap]
        for v in boundary.tolist():
            s = part_l[v]
            if counts[s] <= 1:
                continue
            conn: dict[int, int] = {}
            for i in range(ptr[v], ptr[v + 1]):
                pu = part_l[adj[i]]
                conn[pu] = conn.get(pu, 0) + ewgt[i]
            internal = conn.get(s, 0)
            overweight = loads[s] > cap
            wv = vwgt[v]
            # what a destination may weigh after the move
            room = loads[s] if overweight and not balance_only else cap
            best_t = -1
            best_gain = neg_inf
            for t in sorted(conn):
                if t == s:
                    continue
                if loads[t] + wv > room:
                    continue
                g = conn[t] - internal
                if g > best_gain:
                    best_t, best_gain = t, g
            if best_t < 0:
                continue
            improves_cut = best_gain > 0 and not balance_only
            sheds_overload = overweight and loads[best_t] + wv < loads[s]
            if improves_cut or sheds_overload:
                loads[s] -= wv
                loads[best_t] += wv
                counts[s] -= 1
                counts[best_t] += 1
                part_l[v] = best_t
                moved += 1
        if moved == 0:
            break
    return np.asarray(part_l, dtype=np.int64)


def _boundary_moves(graph, src, part, k, loads, counts, cap):
    """``(boundary size, [(-gain, vertex, target), ...])``: the best
    admissible move of every boundary vertex that has one — what
    ``best_move`` in :func:`kway_fm_refine` answers for one vertex, for
    the whole boundary in one sweep."""
    adj_part = part[graph.adj]
    cut = adj_part != part[src]
    # weight from each boundary vertex into each other part it touches
    pair, inverse = np.unique(src[cut] * k + adj_part[cut], return_inverse=True)
    conn = np.bincount(inverse, weights=graph.ewgt[cut]).astype(np.int64)
    pv, pt = pair // k, pair % k
    nboundary = int(np.count_nonzero(pv[1:] != pv[:-1])) + min(pv.shape[0], 1)
    loads = np.asarray(loads)
    ok = (loads[pt] <= cap - graph.vwgt[pv]) & (np.asarray(counts)[part[pv]] > 1)
    pv, pt, conn = pv[ok], pt[ok], conn[ok]
    # per vertex the heaviest connection, then the lighter part, then the
    # lower label: the last entry of each vertex's run
    order = np.lexsort((-pt, -loads[pt], conn, pv))
    pv, pt, conn = pv[order], pt[order], conn[order]
    last = np.ones(pv.shape[0], dtype=bool)
    last[:-1] = pv[1:] != pv[:-1]
    pv, pt, conn = pv[last], pt[last], conn[last]
    internal = np.bincount(src[~cut], weights=graph.ewgt[~cut], minlength=graph.n)
    neg_gain = internal[pv].astype(np.int64) - conn
    return nboundary, list(zip(neg_gain.tolist(), pv.tolist(), pt.tolist()))


def kway_fm_refine(
    graph: Graph,
    part: np.ndarray,
    k: int,
) -> np.ndarray:
    """k-way Fiduccia–Mattheyses: hill-climbing boundary refinement.

    One lazy max-heap holds the boundary vertices, keyed by the best gain
    any admissible move of that vertex has: over the adjacent parts ``t``
    that stay within ``UB`` times the average load, the largest
    ``conn[t] - conn[own]``, ties to the lighter part.  The top vertex is
    moved — at negative gain too — and locked for the pass, and its
    unlocked neighbours are re-evaluated, so a gain in the heap is never
    stale; only the loads move under it, and a vertex whose target has
    filled up since it was pushed goes back in with what it is worth now.
    A pass ends when the heap is empty or when too many moves in a row
    brought no new best cut, a number that grows with the *boundary* and
    not with ``n``; everything past the best prefix is rolled back.
    Passes repeat until one gains nothing, four at most.

    Every move is admissible when made, so the cut never rises and the
    heaviest part never grows beyond ``max(cap, what it weighed on
    entry)``; no move takes a part's last vertex.
    """
    part_np = np.array(part, dtype=np.int64)
    n = graph.n
    cap = UB * (graph.total_vwgt() / k)
    loads = np.bincount(
        part_np, weights=graph.vwgt.astype(np.float64), minlength=k
    ).tolist()
    counts = np.bincount(part_np, minlength=k).tolist()
    part_l = part_np.tolist()
    ptr = graph.ptr.tolist()
    adj = graph.adj.tolist()
    ewgt = graph.ewgt.tolist()
    vwgt = graph.vwgt.tolist()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.ptr))

    def best_move(v: int) -> tuple[int, int] | None:
        """``(gain, target)`` of ``v``'s best admissible move."""
        s = part_l[v]
        if counts[s] <= 1:
            return None
        conn: dict[int, int] = {}
        for i in range(ptr[v], ptr[v + 1]):
            pu = part_l[adj[i]]
            conn[pu] = conn.get(pu, 0) + ewgt[i]
        internal = conn.pop(s, 0)
        room = cap - vwgt[v]
        best = None
        for t, c in conn.items():
            lt = loads[t]
            if lt > room:
                continue
            if best is None or (c, -lt, -t) > best:
                best = (c, -lt, -t)
        if best is None:
            return None
        return best[0] - internal, -best[2]

    for _ in range(4):
        part_np = np.asarray(part_l, dtype=np.int64)
        nboundary, heap = _boundary_moves(
            graph, src, part_np, k, loads, counts, cap
        )
        # how far a pass may wander without a new best cut: a quarter of
        # the boundary, within 30..150 moves
        stall_limit = max(30, min(nboundary // 4, 150))
        locked = bytearray(n)
        # the (gain, target) each vertex was last pushed with
        known = {v: (-negg, t) for negg, v, t in heap}
        heapq.heapify(heap)
        moves: list[tuple[int, int]] = []  # (vertex, part it left)
        cum = best_cum = best_len = 0
        while heap and len(moves) - best_len <= stall_limit:
            negg, v, t = heapq.heappop(heap)
            if locked[v] or known.get(v) != (-negg, t):
                continue  # superseded entry
            s = part_l[v]
            wv = vwgt[v]
            if loads[t] + wv > cap or counts[s] <= 1:
                # no longer admissible: back in with what it is worth now
                move = best_move(v)
                if move is None:
                    del known[v]
                else:
                    known[v] = move
                    heapq.heappush(heap, (-move[0], v, move[1]))
                continue
            loads[s] -= wv
            loads[t] += wv
            counts[s] -= 1
            counts[t] += 1
            part_l[v] = t
            locked[v] = 1
            moves.append((v, s))
            cum -= negg
            if cum > best_cum:
                best_cum = cum
                best_len = len(moves)
            for i in range(ptr[v], ptr[v + 1]):
                u = adj[i]
                if locked[u]:
                    continue
                move = best_move(u)
                if move is None:
                    known.pop(u, None)
                elif known.get(u) != move:
                    known[u] = move
                    heapq.heappush(heap, (-move[0], u, move[1]))
        for v, s in reversed(moves[best_len:]):  # rollback past the best prefix
            t = part_l[v]
            wv = vwgt[v]
            loads[t] -= wv
            loads[s] += wv
            counts[t] -= 1
            counts[s] += 1
            part_l[v] = s
        if best_cum <= 0:
            break
    return np.asarray(part_l, dtype=np.int64)
