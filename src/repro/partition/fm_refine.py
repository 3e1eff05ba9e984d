"""Boundary refinement: Fiduccia–Mattheyses for bisections and greedy
boundary refinement for k-way partitions (paper §4.2: "a combination of
boundary greedy and Kernighan-Lin refinement").

The inner loops run on plain Python lists and scalars, with incremental
gain maintenance between FM passes.  The straightforward numpy-scalar
forms they replaced are the oracles in ``tests/kernels/oracles.py``:
bit-identical by construction — same move sequence, same IEEE-double
balance arithmetic — which ``tests/kernels`` verifies on every graph
family we partition.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph

__all__ = ["fm_bisection_refine", "kway_greedy_refine"]


def _gains_bisection(graph: Graph, side: np.ndarray) -> np.ndarray:
    """FM gain of moving each vertex to the other side (ext - int weight)."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
    ext = side[src] != side[graph.adj]
    g = np.zeros(graph.n, dtype=np.int64)
    np.add.at(g, src, np.where(ext, graph.ewgt, -graph.ewgt))
    return g


def _gains_subset(graph: Graph, side: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """FM gains of ``vertices`` only (the incremental inter-pass update)."""
    starts = graph.ptr[vertices]
    counts = graph.ptr[vertices + 1] - starts
    total = int(counts.sum())
    g = np.zeros(vertices.shape[0], dtype=np.int64)
    if total == 0:
        return g
    offsets = np.cumsum(counts) - counts
    eidx = np.repeat(starts - offsets, counts) + np.arange(total)
    owner = np.repeat(np.arange(vertices.shape[0]), counts)
    ext = side[vertices][owner] != side[graph.adj[eidx]]
    np.add.at(g, owner, np.where(ext, graph.ewgt[eidx], -graph.ewgt[eidx]))
    return g


def fm_bisection_refine(
    graph: Graph,
    side: np.ndarray,
    target0: float,
    ub: float = 1.05,
    max_passes: int = 4,
) -> np.ndarray:
    """Refine a bisection with FM passes (hill-climbing + rollback).

    ``target0`` is side 0's intended share of the total vertex weight; a
    move is admissible while the receiving side stays within ``ub`` times
    its target.  Each pass moves every vertex at most once, keeps the best
    prefix of the move sequence (by cut, ties by balance), and rolls back
    past it.  Negative-gain moves are explored until no improvement has
    been seen for a while, which lets FM climb out of local minima.

    Between passes only the gains of moved vertices and their neighbours
    are recomputed (a move — kept or rolled back — can only have disturbed
    its own neighbourhood's cached gains); everything stays on plain
    Python scalars inside the pass to keep the per-move cost flat.
    """
    side_np = np.array(side, dtype=np.int64)
    n = graph.n
    total = graph.total_vwgt()
    caps = (ub * (target0 * total), ub * ((1.0 - target0) * total))
    vwgt_np = graph.vwgt
    w = [
        float(vwgt_np[side_np == 0].sum()),
        float(vwgt_np[side_np == 1].sum()),
    ]
    stall_limit = max(50, n // 4)

    ptr = graph.ptr.tolist()
    adj = graph.adj.tolist()
    ewgt = graph.ewgt.tolist()
    vwgt = vwgt_np.tolist()
    side_l = side_np.tolist()
    fill_caps = (max(caps[0], 1e-12), max(caps[1], 1e-12))

    gain_np = _gains_bisection(graph, side_np)
    touched: list[int] | None = None  # moves of the previous pass
    for _ in range(max_passes):
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
            side_l[v] = 1 - s
        touched = moves
        if best_cum <= 0:
            break
    return np.asarray(side_l, dtype=np.int64)


def kway_greedy_refine(
    graph: Graph,
    part: np.ndarray,
    k: int,
    ub: float = 1.05,
    max_passes: int = 4,
    balance_only: bool = False,
) -> np.ndarray:
    """Greedy boundary refinement of a k-way partition.

    Boundary vertices move to the neighbouring partition with the largest
    positive gain, provided the destination stays within ``ub`` times the
    average load; overweight partitions may also shed vertices at zero or
    negative gain.  With ``balance_only=True`` cut-improving moves between
    balanced partitions are suppressed — the mode the seeded repartitioner
    uses to keep data movement minimal.
    """
    part_np = np.array(part, dtype=np.int64)
    total = graph.total_vwgt()
    cap = ub * (total / k)
    loads = np.bincount(
        part_np, weights=graph.vwgt.astype(np.float64), minlength=k
    ).tolist()
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
        boundary = np.unique(src[part_arr[src] != part_arr[adj_np]]).tolist()
        for v in boundary:
            s = part_l[v]
            conn: dict[int, int] = {}
            for i in range(ptr[v], ptr[v + 1]):
                pu = part_l[adj[i]]
                conn[pu] = conn.get(pu, 0) + ewgt[i]
            internal = conn.get(s, 0)
            overweight = loads[s] > cap
            wv = vwgt[v]
            best_t = -1
            best_gain = neg_inf
            for t in sorted(conn):
                if t == s:
                    continue
                if loads[t] + wv > cap:
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
                part_l[v] = best_t
                moved += 1
        if moved == 0:
            break
    return np.asarray(part_l, dtype=np.int64)
