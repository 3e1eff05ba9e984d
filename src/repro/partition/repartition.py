"""Seeded repartitioning — the parallel-MeTiS mode the paper relies on.

Paper §4.2: "An additional benefit of the algorithm is the potential
reduction in remapping cost since parallel MeTiS, unlike the serial
version, uses the previous partition as the initial guess for the
repartitioning."

We coarsen with matchings *within* old parts (so the old partition projects
onto every level) and rebalance it there and on the way back up.  Where a
part stays above ``UB`` or a label unused (usually at P >= 16), multilevel
diffusion (Schloegel, Karypis & Kumar, 1997) finishes on the fine graph and
k-way FM repairs the cut: the result stays close to the old partition.
"""

from __future__ import annotations

import numpy as np

from repro.obs import current_tracer, maybe_phase

from .fm_refine import UB, kway_fm_refine, kway_greedy_refine
from .graph import Graph
from .multilevel import _COARSE_PER_PART, _COARSEN_TO, _STORE, _content_key, coarsen
from .quality import imbalance

__all__ = ["repartition"]

#: Diffusion rounds a repartition runs at most on the fine graph.
DIFFUSION_ROUNDS = 8


def repartition(
    graph: Graph,
    k: int,
    old_part: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """k-way partition balanced under ``graph.vwgt``, biased toward
    ``old_part`` to reduce data movement.  No part of the result is empty,
    whether or not ``old_part`` used all ``k`` labels.

    Like :func:`~repro.partition.multilevel_kway`, whose store it shares,
    it computes each distinct call once per process, keyed on the graph's
    arrays, ``k``, ``seed`` and ``old_part``; every answer is a private
    copy.  An ambient tracer records the coarsen / rebalance / uncoarsen
    stages of a computed answer as wall-clock spans, the rebalance span
    with the ``diffusion_rounds`` that followed it; a reused answer ran
    none of them and records nothing.
    """
    old_part = np.asarray(old_part, dtype=np.int64)
    if old_part.shape != (graph.n,):
        raise ValueError(f"old_part must have shape ({graph.n},)")
    if old_part.size and (old_part.min() < 0 or old_part.max() >= k):
        raise ValueError("old_part labels must be in [0, k)")
    if k > graph.n:
        raise ValueError(f"cannot cut {graph.n} vertices into k = {k} parts")
    if k == 1:
        return np.zeros(graph.n, dtype=np.int64)
    if _acceptable(graph, old_part, k):
        # already balanced: moving nothing is the cheapest remap of all
        return old_part.copy()
    return _STORE.serve(
        _content_key(graph, k, seed, old_part),
        lambda: _repartition(graph, k, old_part, seed),
    )


def _repartition(
    graph: Graph, k: int, old_part: np.ndarray, seed: int
) -> np.ndarray:
    tracer = current_tracer()
    rng = np.random.default_rng(seed)
    # stop four times earlier than a from-scratch partition does: there is
    # no initial partitioner below, only balancing moves of whole vertices
    floor = max(4 * _COARSEN_TO, _COARSE_PER_PART * k)
    with maybe_phase(tracer, "repartition.coarsen", n_fine=graph.n) as sp:
        levels, g, part = coarsen(graph, rng, floor, part=old_part)
        if sp is not None:
            sp.attrs.update(levels=len(levels), n_coarse=g.n)

    # rebalance on the coarsest graph, then refine on the way back up;
    # balance_only keeps cut-improving (but data-moving) churn out
    with maybe_phase(tracer, "repartition.rebalance") as rebalance:
        part = kway_greedy_refine(g, part, k, max_passes=8, balance_only=True)
    with maybe_phase(tracer, "repartition.uncoarsen", levels=len(levels)):
        for fine, cmap in reversed(levels):
            part = part[cmap]
            part = kway_greedy_refine(fine, part, k, balance_only=True)
    part, rounds = _diffuse(graph, part, k)
    if rebalance is not None:
        rebalance.attrs["diffusion_rounds"] = rounds
    return part


def _acceptable(g: Graph, part: np.ndarray, k: int) -> bool:
    """Balanced within ``UB`` under ``g.vwgt``, and no part empty."""
    balanced = imbalance(g, part, k) <= UB + 1e-9
    return bool(balanced and np.bincount(part, minlength=k).all())


def _diffuse(graph: Graph, part: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """``(part, rounds)``: unused labels take the heaviest vertex of the
    heaviest part; rounds of flow, realisation and polish run until ``part``
    is acceptable; after any, k-way FM repairs the cut."""
    part = part.copy()
    for t in np.flatnonzero(np.bincount(part, minlength=k) == 0).tolist():
        loads = np.bincount(part, weights=graph.vwgt, minlength=k)
        loads[np.bincount(part, minlength=k) <= 1] = -1
        members = np.flatnonzero(part == np.argmax(loads))
        part[members[np.argmax(graph.vwgt[members])]] = t
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
    rounds = 0
    while rounds < DIFFUSION_ROUNDS and not _acceptable(graph, part, k):
        rounds += 1
        part = _realise(graph, src, part, k, _flows(graph, src, part, k))
        part = kway_greedy_refine(graph, part, k, balance_only=True)
    return (kway_fm_refine(graph, part, k) if rounds else part), rounds


def _flows(graph: Graph, src: np.ndarray, part: np.ndarray, k: int) -> np.ndarray:
    """``flow[s, t]`` for every part to weigh the mean: ``x[s] - x[t]`` on the
    part graph's edges, ``L x = loads - mean`` solved as the regular ``L + 1/k``
    by CG (dense LAPACK stalled 0.1 s a call at k = 256, threaded)."""
    a, b = part[src], part[graph.adj]
    adjacent = np.zeros((k, k))
    adjacent[a[a != b], b[a != b]] = 1.0
    ea, eb = np.nonzero(adjacent)
    loads = np.bincount(part, weights=graph.vwgt, minlength=k)
    x, r = np.zeros(k), loads - loads.mean()
    p, rr, rr0 = r.copy(), r @ r, r @ r
    for _ in range(2 * k):
        q = adjacent.sum(axis=1) * p - np.bincount(ea, p[eb], k) + p.sum() / k
        if rr <= 1e-20 * rr0 or p @ q <= 0:  # converged, or no descent left
            break
        alpha = rr / (p @ q)
        x, r = x + alpha * p, r - alpha * q
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return np.maximum(x[:, None] - x[None, :], 0.0) * adjacent


def _realise(graph, src, part, k, flow):
    """Each part sends boundary vertices to the parts it owes flow: a vertex
    to its best-gain receiver; per edge best gains first while short of the
    flow; per sender least-covered edge first, within its outflow, keeping one."""
    own, adj_part = part[src], part[graph.adj]
    cut = own != adj_part
    # weight from each boundary vertex into each other part it touches
    pair, inverse = np.unique(src[cut] * k + adj_part[cut], return_inverse=True)
    conn = np.bincount(inverse, weights=graph.ewgt[cut])
    pv, pt = np.divmod(pair, k)
    gain = conn - np.bincount(src[~cut], graph.ewgt[~cut], graph.n)[pv]
    ps, w, spare = part[pv], graph.vwgt[pv], np.bincount(part, minlength=k) - 1
    edge, f = ps * k + pt, flow[ps, pt]
    i = np.flatnonzero(f > 0)
    i = i[np.lexsort((pt[i], -f[i], -gain[i], pv[i]))]
    i = i[np.unique(pv[i], return_index=True)[1]]
    i = i[np.lexsort((pv[i], -gain[i], edge[i]))]
    covered = _segment_cumsum(edge[i], w[i]) - w[i]
    i, covered = i[covered < f[i]], covered[covered < f[i]]
    i = i[np.lexsort((pv[i], -f[i], covered / f[i], ps[i]))]
    go = _segment_cumsum(ps[i], w[i]) - w[i] / 2 <= flow.sum(axis=1)[ps[i]]
    go &= _segment_cumsum(ps[i], np.ones_like(i)) <= spare[ps[i]]
    part = part.copy()
    part[pv[i[go]]] = pt[i[go]]
    return part


def _segment_cumsum(key: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running sum of ``values`` restarting with each run of sorted ``key``."""
    total = np.cumsum(values)
    start = np.flatnonzero(np.diff(key, prepend=-1) != 0)
    lengths = np.diff(start, append=key.size)
    return total - np.repeat(total[start] - values[start], lengths)
