"""The straightforward twin of every optimized kernel, and the switch.

Each hot kernel in ``src/`` has one implementation.  The form it replaced
lives here, unchanged, as the oracle it must match bit for bit:

* :func:`run_reference` — the one-op-per-heap-pop VM scheduler with its
  :class:`_ListMailbox`, eager ``CausalNode`` / ``CausalMsg`` record
  (:class:`_EagerRecord`, whose object lists the product's derivation
  must reproduce) and inline per-rank traffic and wait counters
  (:class:`ReferenceResult`, which ``rank_stats`` must reproduce from
  the product's record);
* :func:`fm_bisection_refine_reference`,
  :func:`kway_greedy_refine_reference`,
  :func:`heavy_edge_matching_reference`,
  :func:`greedy_graph_growing_reference` — numpy-scalar refiners and
  region growing, per-vertex ``lexsort`` matching;
* :func:`contract_reference`, :func:`subgraph_reference` — coarse and
  induced CSR rebuilt from edge pairs by :func:`from_pairs_reference`
  (``Graph.from_pairs`` when it still took weights, and the oracle of
  today's, called directly), where the product builds it from the CSR it
  is given;
* :func:`gains_bisection_reference`, :func:`gains_subset_reference`,
  :func:`csr_ptr_reference` — ``np.add.at`` where the product counts
  with ``np.bincount``;
* :func:`assemble_children_reference` — one column stack per child,
  grouped by parent by a stable sort, and ``build_edges`` with a search of
  its table where the product derives the children's edges from the
  parent's;
* :func:`marking_schedule_reference` — the marking loop re-run with its
  per-round charging in line (a touch mask and a per-edge loop over SPL
  rank pairs each round, :func:`charge_shared_exchange_reference`),
  recorded into a stub, where the product derives every round from the
  round each edge was first marked in;
* :func:`scatter_add_rows_reference`,
  :func:`scatter_add_components_reference` — ``np.add.at`` on zeros.

The solver's AoS kernels — :func:`edge_normals_aos`,
:func:`gas_state_aos` and the flux core :func:`rusanov_aos` — are
oracles too, but not substituted: the equivalence tests call them directly.
So are SciPy's ``scipy.optimize.linear_sum_assignment`` and
``scipy.sparse.csgraph.maximum_bipartite_matching``, the routines
``repro.partition.assignment`` ports: ``test_assign_equiv.py`` calls them
directly, and only the tests import SciPy.

:func:`reference_kernels` substitutes them *from outside*, the way
``benchmarks/e2e/spans.py`` installs its timers: every ``repro.*`` module
global that *is* the product function is rebound to the oracle, and the
scheduler method is replaced with ``setattr`` on ``VirtualMachine``.  The
product has no switch and does not know this module exists.  The oracle
scheduler reaches into ``repro.parallel.runtime`` for ``RunResult`` and
the deadlock report — the price of living outside.

:data:`CALLS` counts the calls that reached each oracle through a
substituted binding (``test_oracle_harness.py`` uses it to prove no
equivalence test compares the product with itself).
"""

from __future__ import annotations

import functools
import heapq
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

import numpy as np

from repro.adapt.refine import _DIAG_CYCLE, _shortest_diagonals
from repro.mesh.build import build_edges
from repro.mesh.geometry import fix_orientation
from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import (
    FACE_EDGE_MASKS,
    FACE_EDGES,
    LOCAL_EDGES,
    LOCAL_FACES,
    OPPOSITE_EDGE,
)
from repro.obs.causal import CausalMsg, CausalNode, CausalRecord, rank_stats
from repro.parallel.runtime import ANY, RecvOp, RunResult, SendOp, WorkOp
from repro.partition import multilevel_kway
from repro.partition.graph import Graph
from repro.partition.quality import edgecut
from repro.solver.state import GAMMA

from tests.fixtures import row, run_from_result

# --- parallel/runtime.py: scheduler and mailbox ------------------------------


class _Message(NamedTuple):
    """The oracle's message; its fields sit in the order of the product's
    mailbox tuples, so the product's deadlock census reads both."""

    seq: int
    arrival: float
    payload: Any
    nwords: int
    source: int
    tag: int


class _ListMailbox:
    """Reference mailbox: one list, scanned whole for the minimum-``seq``
    match on every recv."""

    __slots__ = ("_msgs",)

    def __init__(self):
        self._msgs: list[_Message] = []

    def __len__(self) -> int:
        return len(self._msgs)

    def __iter__(self):
        return iter(self._msgs)

    def add(self, msg: _Message) -> None:
        self._msgs.append(msg)

    def has_match(self, source: int, tag: int) -> bool:
        return any(
            (source in (ANY, m.source)) and (tag in (ANY, m.tag))
            for m in self._msgs
        )

    def pop_match(self, source: int, tag: int) -> _Message | None:
        # removal is by index, never by equality: ``list.remove`` would
        # invoke the tuple ``__eq__``, which both raises on ndarray
        # payloads and can remove a different-but-equal message
        best = None
        best_i = -1
        for i, m in enumerate(self._msgs):
            if (source not in (ANY, m.source)) or (tag not in (ANY, m.tag)):
                continue
            if best is None or m.seq < best.seq:
                best, best_i = m, i
        if best is not None:
            del self._msgs[best_i]
        return best


@dataclass
class _Rank:
    """Per-rank state of the oracle scheduler (the product keeps the same
    quantities in parallel per-rank arrays instead)."""

    rank: int
    gen: Iterator
    clock: float = 0.0
    blocked_on: RecvOp | None = None
    done: bool = False
    retval: Any = None
    send_value: Any = None  # value to inject at the next generator step
    mailbox: _ListMailbox | None = None
    words_sent: int = 0
    msgs_sent: int = 0
    words_recv: int = 0
    msgs_recv: int = 0
    data_msgs_sent: int = 0  # payload-bearing sends (nwords > 0)
    data_msgs_recv: int = 0
    waited: float = 0.0  # virtual seconds blocked waiting for arrivals


class _EagerRecord(CausalRecord):
    """The oracle's causal record: the object lists it built eagerly,
    which :meth:`objects` returns as they are, over the rows they encode
    — what the product's scheduler stores — for the tracer and the
    exporter."""

    __slots__ = ("eager",)

    def __init__(self, t_setup: float, run: int, nodes: list, msgs: list):
        code = {"work": 0, "send": 2, "recv": 3}
        super().__init__(t_setup, run, [
            v for n in nodes for v in (
                code[n.kind], n.rank,
                n.msg + 1 if n.kind == "recv" else -1, n.t_end)
        ], [v for m in msgs for v in (m.dst, m.tag, m.nwords)])
        self.eager = (nodes, msgs)

    def objects(self) -> tuple[list, list]:
        return self.eager


class ReferenceResult(RunResult):
    """The oracle scheduler's :class:`RunResult`, which also keeps its
    per-rank state (:class:`_Rank`): the counters it adds inline as it
    runs, which the product derives from the causal record instead."""

    __slots__ = ("ranks",)

    def __init__(self, *args, ranks: list, **kwargs):
        super().__init__(*args, **kwargs)
        self.ranks = ranks


def assert_derived_traffic(res: RunResult, ref: ReferenceResult) -> None:
    """The per-rank traffic and waits of the traced run ``res``, derived
    from its causal record (``rank_stats``), equal the counters the
    oracle scheduler added inline as it ran ``ref``, bit for bit."""
    stats = rank_stats(run_from_result(res))
    assert len(stats) == len(ref.ranks)
    for st, s in zip(stats, ref.ranks):
        assert (st.msgs_sent, st.msgs_recv, st.words_sent, st.words_recv) \
            == (s.msgs_sent, s.msgs_recv, s.words_sent, s.words_recv)
        assert st.msgs_sent - st.sync_sent == s.data_msgs_sent
        assert st.msgs_recv - st.sync_recv == s.data_msgs_recv
        assert st.wait == s.waited
        assert st.busy == s.clock - s.waited
        assert st.idle == ref.makespan - (s.clock - s.waited)


def run_reference(self, gens: list) -> RunResult:
    """One-op-per-heap-pop scheduler with eager object records; bound in
    place of ``VirtualMachine._run_fast``, so ``self`` is the machine."""
    ranks = [
        _Rank(r, gen, mailbox=_ListMailbox())
        for r, gen in enumerate(gens)
    ]
    ready: list[tuple[float, int]] = [(0.0, r) for r in range(self.nranks)]
    heapq.heapify(ready)
    seq = 0
    nodes: list | None = None
    msgs_rec: list | None = None
    if self.trace or self.tracer is not None:
        nodes, msgs_rec = [], []

    while ready:
        clock, r = heapq.heappop(ready)
        st = ranks[r]
        if st.done:
            continue
        st.clock = max(st.clock, clock)
        try:
            op = st.gen.send(st.send_value)
        except StopIteration as stop:
            st.done = True
            st.retval = stop.value
            continue
        st.send_value = None

        if isinstance(op, WorkOp):
            t0 = st.clock
            st.clock += self.machine.work_time(op.units)
            if nodes is not None:
                nodes.append(CausalNode(-1, len(nodes), r, "work",
                                        t0, st.clock))
            heapq.heappush(ready, (st.clock, r))
        elif isinstance(op, SendOp):
            if not 0 <= op.dest < self.nranks:
                raise ValueError(f"rank {r}: send to invalid rank {op.dest}")
            t0 = st.clock
            if op.nwords < 0:
                raise ValueError(f"negative message size: {op.nwords}")
            st.clock += self.machine.t_setup + self.machine.t_word * op.nwords
            st.words_sent += op.nwords
            st.msgs_sent += 1
            if op.nwords > 0:
                st.data_msgs_sent += 1
            seq += 1
            if nodes is not None:
                # msg id == seq - 1: both advance once per send
                nodes.append(CausalNode(-1, len(nodes), r, "send",
                                        t0, st.clock, msg=len(msgs_rec)))
                msgs_rec.append(
                    CausalMsg(-1, len(msgs_rec), r, op.dest, op.tag,
                              op.nwords, send_node=len(nodes) - 1)
                )
            msg = _Message(seq, st.clock, op.payload, op.nwords, r, op.tag)
            dst = ranks[op.dest]
            dst.mailbox.add(msg)
            if dst.blocked_on is not None and _matches(dst.blocked_on, msg):
                _deliver(self, dst, ready, nodes, msgs_rec)
            heapq.heappush(ready, (st.clock, r))
        elif isinstance(op, RecvOp):
            st.blocked_on = op
            if st.mailbox.has_match(op.source, op.tag):
                _deliver(self, st, ready, nodes, msgs_rec)
            # else: stays blocked until a matching send arrives
        else:
            raise TypeError(f"rank {r} yielded unknown op {op!r}")

    stuck = [s for s in ranks if not s.done]
    if stuck:
        self._raise_deadlock(stuck, nodes, msgs_rec)

    makespan = max((s.clock for s in ranks), default=0.0)

    record = None
    if nodes is not None:
        run_id = (
            self.tracer.next_causal_run() if self.tracer is not None else 0
        )
        for nd in nodes:
            nd.run = run_id
        for mg in msgs_rec:
            mg.run = run_id
        record = _EagerRecord(self.machine.t_setup, run_id, nodes, msgs_rec)
    if self.tracer is not None:
        base = self.tracer.virtual_now
        self.tracer.causal_records.append(record)
        self.tracer.event(
            "vm.run", v_time=base, run=run_id, base=base,
            makespan=makespan, nranks=self.nranks,
            cycle=self.tracer.cycle, nodes=len(nodes), msgs=len(msgs_rec),
        )

    return ReferenceResult(
        returns=[s.retval for s in ranks],
        clocks=[s.clock for s in ranks],
        total_messages=sum(s.msgs_sent for s in ranks),
        total_words=sum(s.words_sent for s in ranks),
        record=record,
        ranks=ranks,
    )


def _matches(op: RecvOp, msg: _Message) -> bool:
    return (op.source in (ANY, msg.source)) and (op.tag in (ANY, msg.tag))


def _deliver(vm, st: _Rank, ready: list, nodes: list | None = None,
             msgs_rec: list | None = None) -> None:
    """Hand the oldest matching message to a rank blocked on a recv."""
    op = st.blocked_on
    assert op is not None
    best = st.mailbox.pop_match(op.source, op.tag)
    assert best is not None, "deliver called without a matching message"
    st.blocked_on = None
    t0 = st.clock
    wait = max(0.0, best.arrival - (st.clock + vm.machine.t_setup))
    st.waited += wait
    st.clock = max(st.clock + vm.machine.t_setup, best.arrival)
    st.words_recv += best.nwords
    st.msgs_recv += 1
    if best.nwords > 0:
        st.data_msgs_recv += 1
    if nodes is not None:
        mid = best.seq - 1
        msgs_rec[mid].recv_node = len(nodes)
        nodes.append(CausalNode(-1, len(nodes), st.rank, "recv",
                                t0, st.clock, wait=wait, msg=mid))
    st.send_value = (best.payload, best.source, best.tag)
    heapq.heappush(ready, (st.clock, st.rank))


# --- partition/fm_refine.py, partition/matching.py ---------------------------


def fm_bisection_refine_reference(
    graph: Graph,
    side: np.ndarray,
    target0: float,
    ub: float = 1.05,
    max_passes: int = 4,
) -> np.ndarray:
    """Reference FM: full gain rebuild per pass, numpy scalars throughout."""
    side = np.array(side, dtype=np.int64)
    n = graph.n
    count = np.bincount(side, minlength=2)
    total = graph.total_vwgt()
    targets = np.array([target0 * total, (1.0 - target0) * total])
    caps = ub * targets
    w = np.array(
        [graph.vwgt[side == 0].sum(), graph.vwgt[side == 1].sum()], dtype=np.float64
    )
    stall_limit = max(50, n // 4)

    for _ in range(max_passes):
        gain = gains_bisection_reference(graph, side)
        locked = np.zeros(n, dtype=bool)
        heaps: list[list[tuple[int, int]]] = [[], []]
        for v in range(n):
            heapq.heappush(heaps[side[v]], (-int(gain[v]), v))
        moves: list[int] = []
        cum = 0
        best_cum = 0
        best_len = 0
        since_best = 0
        while since_best <= stall_limit:
            v = _best_feasible(heaps, side, gain, locked, w, caps, graph, count)
            if v is None:
                break
            s = int(side[v])
            cum += int(gain[v])
            w[s] -= graph.vwgt[v]
            w[1 - s] += graph.vwgt[v]
            count[s] -= 1
            count[1 - s] += 1
            side[v] = 1 - s
            locked[v] = True
            moves.append(v)
            for u, ew in zip(*row(graph, v)):
                if locked[u]:
                    continue
                # side[v] is already flipped: if u now shares v's side the
                # edge went external->internal (gain drops), else the reverse
                gain[u] += -2 * ew if side[u] == side[v] else 2 * ew
                heapq.heappush(heaps[side[u]], (-int(gain[u]), int(u)))
            if cum > best_cum:
                best_cum = cum
                best_len = len(moves)
                since_best = 0
            else:
                since_best += 1
        for v in moves[best_len:]:  # rollback past the best prefix
            s = int(side[v])
            w[s] -= graph.vwgt[v]
            w[1 - s] += graph.vwgt[v]
            count[s] -= 1
            count[1 - s] += 1
            side[v] = 1 - s
        if best_cum <= 0:
            break
    return side


def gains_bisection_reference(graph: Graph, side: np.ndarray) -> np.ndarray:
    """FM gain of every vertex, accumulated with ``np.add.at``."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
    ext = side[src] != side[graph.adj]
    g = np.zeros(graph.n, dtype=np.int64)
    np.add.at(g, src, np.where(ext, graph.ewgt, -graph.ewgt))
    return g


def gains_subset_reference(
    graph: Graph, side: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """FM gains of ``vertices`` only, accumulated with ``np.add.at``."""
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


def _best_feasible(heaps, side, gain, locked, w, caps, graph, count):
    """Pick the best admissible move across both sides.

    Feasibility: the receiving side must stay under its cap and the giving
    side must keep a vertex.  Among feasible candidates the higher gain
    wins; ties go to the side that is currently more overweight (drives
    toward balance).
    """
    cands = []
    for s in (0, 1):
        if count[s] <= 1:
            continue
        heap = heaps[s]
        while heap:
            negg, v = heap[0]
            if locked[v] or side[v] != s or -negg != gain[v]:
                heapq.heappop(heap)  # stale
                continue
            if w[1 - s] + graph.vwgt[v] > caps[1 - s]:
                heapq.heappop(heap)  # would break balance; drop this pass
                continue
            cands.append((int(-negg), float(w[s] / max(caps[s], 1e-12)), s, int(v)))
            break
    if not cands:
        return None
    cands.sort(key=lambda c: (-c[0], -c[1]))
    _, _, s, v = cands[0]
    heapq.heappop(heaps[s])
    return v


def kway_greedy_refine_reference(
    graph: Graph,
    part: np.ndarray,
    k: int,
    ub: float = 1.05,
    max_passes: int = 4,
    balance_only: bool = False,
) -> np.ndarray:
    """Reference k-way greedy refinement (numpy indexing per vertex)."""
    part = np.array(part, dtype=np.int64)
    total = graph.total_vwgt()
    target = total / k
    cap = ub * target
    loads = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    counts = np.bincount(part, minlength=k)

    for _ in range(max_passes):
        moved = 0
        src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.ptr))
        boundary = np.unique(src[part[src] != part[graph.adj]])
        for v in boundary:
            s = int(part[v])
            if counts[s] <= 1:
                continue  # a part never gives up its last vertex
            conn: dict[int, int] = {}
            for u, ew in zip(*row(graph, v)):
                pu = int(part[u])
                conn[pu] = conn.get(pu, 0) + int(ew)
            internal = conn.get(s, 0)
            overweight = loads[s] > cap
            # from scratch, an overweight part may shed into a neighbour
            # that ends above the cap but below where the source started
            room = loads[s] if overweight and not balance_only else cap
            best_t, best_gain = -1, -np.inf
            for t, c in sorted(conn.items()):
                if t == s:
                    continue
                if loads[t] + graph.vwgt[v] > room:
                    continue
                gain = c - internal
                if gain > best_gain:
                    best_t, best_gain = t, gain
            if best_t < 0:
                continue
            improves_cut = best_gain > 0 and not balance_only
            sheds_overload = overweight and loads[best_t] + graph.vwgt[v] < loads[s]
            if improves_cut or sheds_overload:
                loads[s] -= graph.vwgt[v]
                loads[best_t] += graph.vwgt[v]
                counts[s] -= 1
                counts[best_t] += 1
                part[v] = best_t
                moved += 1
        if moved == 0:
            break
    return part


def heavy_edge_matching_reference(
    graph: Graph,
    rng: np.random.Generator,
    allowed: np.ndarray | None = None,
) -> np.ndarray:
    """Reference matching: per-vertex ``flatnonzero``/``lexsort`` selection."""
    n = graph.n
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    ptr, adj, ewgt = graph.ptr, graph.adj, graph.ewgt
    for v in order:
        if match[v] != -1:
            continue
        nbrs = adj[ptr[v] : ptr[v + 1]]
        wts = ewgt[ptr[v] : ptr[v + 1]]
        free = match[nbrs] == -1
        if allowed is not None:
            free &= allowed[nbrs] == allowed[v]
        if free.any():
            cand = np.flatnonzero(free)
            # heaviest edge; ties broken by smaller neighbour id for determinism
            w = wts[cand]
            best = cand[np.lexsort((nbrs[cand], -w))[0]]
            u = nbrs[best]
            match[v] = u
            match[u] = v
        else:
            match[v] = v
    return match


def greedy_graph_growing_reference(
    graph: Graph,
    target_frac: float,
    rng: np.random.Generator,
    ntries: int = 4,
) -> np.ndarray:
    """Reference region growing: numpy-scalar indexing in the loop."""
    if not 0.0 < target_frac < 1.0:
        raise ValueError(f"target_frac must be in (0, 1), got {target_frac}")
    n = graph.n
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    target = target_frac * graph.total_vwgt()
    best_side = None
    best_cut = np.inf
    for seed in rng.choice(n, size=min(ntries, n), replace=False):
        side = _grow_reference(graph, int(seed), target)
        cut = edgecut(graph, side)
        if side.min() == 0 and side.max() == 1 and cut < best_cut:
            best_cut, best_side = cut, side
    if best_side is None:
        best_side = np.zeros(n, dtype=np.int64)
        best_side[np.argsort(graph.vwgt)[: n // 2]] = 1
    return best_side


def _grow_reference(graph: Graph, seed: int, target: float) -> np.ndarray:
    n = graph.n
    in_region = np.zeros(n, dtype=bool)
    gain = np.zeros(n, dtype=np.int64)
    heap: list[tuple[int, int]] = []
    grown = 0.0

    def absorb(v: int) -> None:
        nonlocal grown
        in_region[v] = True
        grown += graph.vwgt[v]
        for u, w in zip(*row(graph, v)):
            if not in_region[u]:
                gain[u] += 2 * w  # edge flips from cut to internal
                heapq.heappush(heap, (-int(gain[u]), int(u)))

    absorb(seed)
    while grown < target and heap:
        g, v = heapq.heappop(heap)
        if in_region[v] or -g != gain[v]:
            continue  # stale heap entry
        if grown + graph.vwgt[v] > 1.5 * target and grown > 0.5 * target:
            continue  # adding a huge vertex would overshoot badly
        absorb(v)
    if grown < target:
        outside = np.flatnonzero(~in_region)
        for v in outside[np.argsort(graph.vwgt[outside])]:
            if grown >= target:
                break
            in_region[v] = True
            grown += graph.vwgt[v]
    return np.where(in_region, 0, 1).astype(np.int64)


def csr_ptr_reference(pairs: np.ndarray, n: int) -> np.ndarray:
    """Row pointers of the graph ``Graph.from_pairs(pairs, n)`` builds,
    counted with ``np.add.at`` over its distinct undirected edges."""
    edges = {(min(a, b), max(a, b)) for a, b in np.asarray(pairs).tolist() if a != b}
    ends = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, ends.ravel() + 1, 1)
    return np.cumsum(ptr)


# --- partition/contract.py, partition/multilevel.py: CSR via edge pairs -----


def from_pairs_reference(
    pairs: np.ndarray,
    n: int,
    vwgt: np.ndarray | None = None,
    ewgt: np.ndarray | None = None,
) -> Graph:
    """``Graph.from_pairs`` as it was when it still took weights: halve,
    sort, merge, symmetrise, ``lexsort``.  Unweighted, the oracle of
    today's one-``np.unique`` build; weighted, what the two oracles below
    build through."""
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
        return Graph(
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
    return Graph(ptr=ptr, adj=dst, vwgt=vwgt, ewgt=ww)


def contract_reference(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Reference contraction: ``np.unique`` numbering, coarse edges rebuilt
    through :func:`from_pairs_reference`."""
    n = graph.n
    match = np.asarray(match, dtype=np.int64)
    if match.shape != (n,):
        raise ValueError(f"match must have shape ({n},)")
    # representative = min(v, match[v]); coarse ids by order of representative
    rep = np.minimum(np.arange(n), match)
    uniq, cmap = np.unique(rep, return_inverse=True)
    nc = uniq.shape[0]
    cvwgt = np.bincount(cmap, weights=graph.vwgt.astype(np.float64), minlength=nc)
    # fine edges -> coarse edges
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.ptr))
    csrc = cmap[src]
    cdst = cmap[graph.adj]
    keep = csrc != cdst
    pairs = np.column_stack([csrc[keep], cdst[keep]])
    # each undirected fine edge appears twice; halve by keeping src < dst
    half = pairs[:, 0] < pairs[:, 1]
    coarse = from_pairs_reference(
        pairs[half], nc, vwgt=cvwgt.astype(np.int64), ewgt=graph.ewgt[keep][half]
    )
    return coarse, cmap


def subgraph_reference(graph: Graph, vertices: np.ndarray) -> Graph:
    """Reference induced subgraph: the half edges, rebuilt through
    :func:`from_pairs_reference`."""
    n = graph.n
    local = np.full(n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.shape[0])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.ptr))
    sel = (local[src] >= 0) & (local[graph.adj] >= 0)
    half = sel & (src < graph.adj)
    pairs = np.column_stack([local[src[half]], local[graph.adj[half]]])
    return from_pairs_reference(
        pairs, vertices.shape[0], vwgt=graph.vwgt[vertices], ewgt=graph.ewgt[half]
    )


# --- adapt/refine.py ---------------------------------------------------------


def assemble_children_reference(
    mesh: TetMesh,
    midpoint_of: np.ndarray,
    patterns: np.ndarray,
    new_coords: np.ndarray,
):
    """Reference assembly: per-pattern column stacks (one array op per child),
    the orientation pass ``TetMesh.from_elems`` made on every refined mesh
    before the child tables came out right-handed, a stable sort grouping
    the children by parent, then the rebuild the product derives instead:
    ``build_edges`` over every child, and each parent edge's pieces looked
    up in its table."""
    ev = mesh.elems
    em = midpoint_of[mesh.elem2edge]
    chunks: list[np.ndarray] = [np.empty((0, 4), dtype=np.int64)]
    parents: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    # unrefined elements pass through
    keep = patterns == 0
    if keep.any():
        chunks.append(ev[keep])
        parents.append(np.flatnonzero(keep))

    # 1:2 — one marked edge e=(a,b): children swap one endpoint for m
    for le in range(6):
        sel = patterns == (1 << le)
        if not sel.any():
            continue
        idx = np.flatnonzero(sel)
        a, b = LOCAL_EDGES[le]
        m = em[idx, le]
        c1 = ev[idx].copy()
        c1[:, b] = m
        c2 = ev[idx].copy()
        c2[:, a] = m
        chunks.append(np.concatenate([c1, c2]))
        parents.append(np.tile(idx, 2))

    # 1:4 — one marked face (A,B,C), apex D
    for f in range(4):
        sel = patterns == int(FACE_EDGE_MASKS[f])
        if not sel.any():
            continue
        idx = np.flatnonzero(sel)
        A, B, C = LOCAL_FACES[f]
        D = (set(range(4)) - {int(A), int(B), int(C)}).pop()
        eAB, eAC, eBC = FACE_EDGES[f]
        vA, vB, vC, vD = ev[idx, A], ev[idx, B], ev[idx, C], ev[idx, D]
        mAB, mAC, mBC = em[idx, eAB], em[idx, eAC], em[idx, eBC]
        kids = np.concatenate(
            [
                np.column_stack([vA, mAB, mAC, vD]),
                np.column_stack([vB, mAB, mBC, vD]),
                np.column_stack([vC, mAC, mBC, vD]),
                np.column_stack([mAB, mBC, mAC, vD]),
            ]
        )
        chunks.append(kids)
        parents.append(np.tile(idx, 4))

    # 1:8 — isotropic; split the inner octahedron on its shortest diagonal
    sel8 = patterns == 0b111111
    if sel8.any():
        idx8 = np.flatnonzero(sel8)
        mids = em[idx8]  # (n8, 6), all valid
        diag = _shortest_diagonals(mids, new_coords)
        # four corner tets (same for every diagonal choice)
        corner_local_edges = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
        kids = [
            np.column_stack(
                [ev[idx8, c], mids[:, e0], mids[:, e1], mids[:, e2]]
            )
            for c, (e0, e1, e2) in enumerate(corner_local_edges)
        ]
        chunks.append(np.concatenate(kids))
        parents.append(np.tile(idx8, 4))
        for d in range(3):
            seld = diag == d
            if not seld.any():
                continue
            idxd = idx8[seld]
            md = mids[seld]
            o = OPPOSITE_EDGE[d]
            cyc = _DIAG_CYCLE[d]
            oct_kids = [
                np.column_stack(
                    [md[:, d], md[:, o], md[:, cyc[k]], md[:, cyc[(k + 1) % 4]]]
                )
                for k in range(4)
            ]
            chunks.append(np.concatenate(oct_kids))
            parents.append(np.tile(idxd, 4))

    order = np.argsort(np.concatenate(parents), kind="stable")
    elems = fix_orientation(new_coords, np.concatenate(chunks))[order]
    nv = new_coords.shape[0]
    edges, elem2edge = build_edges(elems, nv)
    table = edges[:, 0] * nv + edges[:, 1]

    def lookup(a, b):
        keys = np.minimum(a, b) * nv + np.maximum(a, b)
        pos = np.searchsorted(table, keys)
        assert np.array_equal(table[pos], keys), "every piece is an edge"
        return pos

    marked = np.flatnonzero(midpoint_of >= 0)
    kept = np.flatnonzero(midpoint_of < 0)
    a, b, m = mesh.edges[marked, 0], mesh.edges[marked, 1], midpoint_of[marked]
    edge_children = np.full((mesh.nedges, 2), -1, dtype=np.int64)
    edge_children[marked, 0] = lookup(a, m)
    edge_children[marked, 1] = lookup(m, b)
    edge_survivor = np.full(mesh.nedges, -1, dtype=np.int64)
    edge_survivor[kept] = lookup(mesh.edges[kept, 0], mesh.edges[kept, 1])
    return elems, (edges, elem2edge), edge_children, edge_survivor


# --- core/phases.py: the marking schedule -------------------------------------


class _ScheduleStub:
    """What the marking loop charged, round by round, in the calls it
    made: ``add_work_all`` opens a round, ``add_exchange`` adds to its
    volume matrix, ``barrier`` closes it."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.work: list[np.ndarray] = []
        self.volume: list[np.ndarray] = []

    def add_work_all(self, units) -> None:
        self.work.append(np.asarray(units, dtype=np.int64))
        self.volume.append(np.zeros((self.nranks, self.nranks), np.int64))

    def add_exchange(self, volume: np.ndarray) -> None:
        self.volume[-1] += volume

    def barrier(self) -> None:
        pass


def charge_shared_exchange_reference(
    ledger: _ScheduleStub, edge_ranks, newly: np.ndarray
):
    """Charge one message per (owner, neighbour) partition pair carrying the
    newly-marked shared edges between them (1 word per edge id)."""
    e_ids, r_ids = edge_ranks
    sel = newly[e_ids]
    if not sel.any():
        return
    nr = ledger.nranks
    es, rs = e_ids[sel], r_ids[sel]
    # count newly-marked shared edges per rank pair: every rank touching the
    # edge sends its local copy's id to every other rank in the edge's SPL
    # group by edge: ranks of each edge are contiguous in es/rs
    starts = np.flatnonzero(np.r_[True, es[1:] != es[:-1]])
    ends = np.r_[starts[1:], es.shape[0]]
    volume = np.zeros((nr, nr), dtype=np.int64)
    for s, e in zip(starts, ends):
        ranks = rs[s:e]
        for i in ranks:
            for j in ranks:
                if i != j:
                    volume[i, j] += 1
    ledger.add_exchange(volume)


def marking_schedule_reference(mesh: TetMesh, owner, marking, nproc: int):
    """The marking loop with its per-round charging in line: it re-runs
    the propagation from the initial targets, charging every rank the
    elements it examines (round 1 its own, later rounds those adjacent to
    an edge marked in the round before) and the newly marked shared edges
    it exchanges, into a :class:`_ScheduleStub`; the result is
    ``marking_schedule``'s ``(work, msgs)``."""
    from repro.adapt.marking import element_patterns
    from repro.adapt.patterns import UPGRADE, pattern_bits

    part = np.asarray(owner, dtype=np.int64)
    ledger = _ScheduleStub(nproc)
    edge_marked = marking.edge_round == 0
    # shared: edges incident to elements of more than one partition
    inc_rank = part[np.repeat(np.arange(mesh.ne), 6)]
    eids = mesh.elem2edge.ravel()
    lo = np.full(mesh.nedges, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(mesh.nedges, -1, dtype=np.int64)
    np.minimum.at(lo, eids, inc_rank)
    np.maximum.at(hi, eids, inc_rank)
    shared = (hi >= 0) & (lo != hi)
    # each edge's ranks, in edge-then-rank order
    order = np.lexsort((inc_rank, eids))
    e_sorted, r_sorted = eids[order], inc_rank[order]
    keep = np.ones(e_sorted.shape[0], dtype=bool)
    keep[1:] = (e_sorted[1:] != e_sorted[:-1]) | (r_sorted[1:] != r_sorted[:-1])
    edge_ranks = (e_sorted[keep], r_sorted[keep])

    patterns = element_patterns(mesh, edge_marked)
    iterations = 0
    touched_per_rank = np.bincount(part, minlength=nproc)
    while True:
        iterations += 1
        bits = pattern_bits(UPGRADE[patterns])
        new_marked = edge_marked.copy()
        new_marked[mesh.elem2edge[bits]] = True
        ledger.add_work_all(touched_per_rank)
        newly = new_marked & ~edge_marked & shared
        charge_shared_exchange_reference(ledger, edge_ranks, newly)
        ledger.barrier()
        newly_any = new_marked & ~edge_marked
        touch = newly_any[mesh.elem2edge].any(axis=1)
        touched_per_rank = np.bincount(part[touch], minlength=nproc)
        if np.array_equal(new_marked, edge_marked) and np.array_equal(
            UPGRADE[patterns], patterns
        ):
            break
        edge_marked = new_marked
        patterns = element_patterns(mesh, edge_marked)
    assert np.array_equal(edge_marked, marking.edge_marked)
    assert iterations == marking.iterations

    msgs = [(k, i, j, int(vol[i, j]))
            for k, vol in enumerate(ledger.volume)
            for i in range(nproc) for j in range(nproc) if vol[i, j] > 0]
    return (np.array(ledger.work, dtype=np.int64).reshape(iterations, nproc),
            np.array(msgs, dtype=np.int64).reshape(len(msgs), 4))


# --- solver/scatter.py ----------------------------------------------------------


def scatter_add_rows_reference(
    index: np.ndarray, values: np.ndarray, nrows: int
) -> np.ndarray:
    """``out[index[i]] += values[i]`` from zeros, by ``np.add.at``."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((nrows,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, index, values)
    return out


def scatter_add_components_reference(
    index: np.ndarray, values: np.ndarray, nrows: int
) -> np.ndarray:
    """``out[:, index[i]] += values[:, i]`` from zeros, by ``np.add.at``."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((values.shape[0], nrows), dtype=np.float64)
    np.add.at(out.T, index, values.T)
    return out


# --- solver/euler.py, fluxes.py, state.py: the AoS kernels, called directly ---
#
# The forms the component-major (3, n) / (5, n) kernels replaced, on AoS
# ("array of structures") rows: (n, 3) coordinates and normals, (n, 5)
# states, summed in whatever order numpy's einsum / norm / mean / cross take.


def _parity(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inv % 2


def edge_normals_aos(mesh) -> np.ndarray:
    """Directed median-dual interface area per edge, per local edge on
    ``(ne, 4, 3)`` corner coordinates."""
    coords = mesh.coords
    p = coords[mesh.elems]  # (ne, 4, 3)
    cell = p.mean(axis=1)  # (ne, 3)
    all_eids: list[np.ndarray] = []
    all_n: list[np.ndarray] = []
    for le, (a, b) in enumerate(LOCAL_EDGES):
        a, b = int(a), int(b)
        k, l = (c for c in range(4) if c not in (a, b))
        if _parity((a, b, k, l)) == 1:
            k, l = l, k
        xa, xb = p[:, a], p[:, b]
        mid = 0.5 * (xa + xb)
        f1 = (xa + xb + p[:, k]) / 3.0  # centroid of face (a, b, k)
        f2 = (xa + xb + p[:, l]) / 3.0  # centroid of face (a, b, l)
        n = 0.5 * np.cross(f1 - mid, cell - mid) + 0.5 * np.cross(
            cell - mid, f2 - mid
        )
        eids = mesh.elem2edge[:, le]
        flip = mesh.edges[eids, 0] != mesh.elems[:, a]
        n = np.where(flip[:, None], -n, n)
        all_eids.append(eids)
        all_n.append(n)
    return scatter_add_rows_reference(
        np.concatenate(all_eids), np.concatenate(all_n), mesh.nedges
    )


class GasStateAoS(NamedTuple):
    rho: np.ndarray  #: ``(n,)``
    vel: np.ndarray  #: ``(n, 3)``
    p: np.ndarray  #: ``(n,)``
    c: np.ndarray  #: ``(n,)``
    lam: np.ndarray  #: ``(n,)``

    def take(self, rows: np.ndarray) -> "GasStateAoS":
        return GasStateAoS(*(field[rows] for field in self))


def gas_state_aos(q: np.ndarray) -> GasStateAoS:
    """(rho, velocity, pressure, c, |v|+c) of ``(n, 5)`` states."""
    q = np.asarray(q, dtype=np.float64)
    rho = q[:, 0]
    vel = q[:, 1:4] / rho[:, None]
    p = (GAMMA - 1.0) * (q[:, 4] - 0.5 * rho * (vel**2).sum(axis=1))
    c = np.sqrt(GAMMA * np.maximum(p, 1e-300) / rho)
    return GasStateAoS(rho, vel, p, c, np.linalg.norm(vel, axis=1) + c)


def physical_flux_aos(q: np.ndarray, g: GasStateAoS, n: np.ndarray) -> np.ndarray:
    vn = np.einsum("ij,ij->i", g.vel, n)
    f = np.empty_like(q)
    f[:, 0] = g.rho * vn
    mom = f[:, 1:4]
    np.multiply(g.rho[:, None], g.vel, out=mom)
    mom *= vn[:, None]
    mom += g.p[:, None] * n
    f[:, 4] = (q[:, 4] + g.p) * vn
    return f


def rusanov_aos(qL, qR, gL, gR, n, area) -> np.ndarray:
    f = physical_flux_aos(qL, gL, n)
    f += physical_flux_aos(qR, gR, n)
    f *= 0.5
    half_speed = np.maximum(gL.lam, gR.lam)
    half_speed *= area
    half_speed *= 0.5
    jump = qR - qL
    jump *= half_speed[:, None]
    f -= jump
    return f


# --- the switch ---------------------------------------------------------------

#: Calls that arrived through a substituted binding, by product target.
CALLS: Counter = Counter()


def _counted(target: str, oracle):
    @functools.wraps(oracle)
    def counted(*args, **kwargs):
        CALLS[target] += 1
        return oracle(*args, **kwargs)

    return counted


#: (``module:attr`` or ``module:Class.method`` of the product, its oracle).
SUBSTITUTIONS = tuple(
    (target, _counted(target, oracle))
    for target, oracle in (
        ("repro.parallel.runtime:VirtualMachine._run_fast", run_reference),
        ("repro.partition.fm_refine:fm_bisection_refine", fm_bisection_refine_reference),
        ("repro.partition.fm_refine:kway_greedy_refine", kway_greedy_refine_reference),
        ("repro.partition.matching:heavy_edge_matching", heavy_edge_matching_reference),
        ("repro.partition.initial:greedy_graph_growing", greedy_graph_growing_reference),
        ("repro.partition.contract:contract", contract_reference),
        ("repro.partition.multilevel:_subgraph", subgraph_reference),
        ("repro.adapt.refine:_assemble_children", assemble_children_reference),
        ("repro.core.phases:marking_schedule", marking_schedule_reference),
        ("repro.solver.scatter:scatter_add_rows", scatter_add_rows_reference),
        (
            "repro.solver.scatter:scatter_add_components",
            scatter_add_components_reference,
        ),
    )
)

#: (owner, attr, is_method, product, oracle) per substitution while the
#: oracles are bound; empty while the product runs its own kernels.
_bound: list = []


def _resolve(target: str):
    """``(owner, attr, is_method, product)``; raises if the name is gone."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, bool(parents), getattr(owner, attr)


def _swap(owner, attr, is_method, old, new) -> int:
    """Rebind ``old`` to ``new`` wherever the product looks it up."""
    if is_method:  # one binding, on the class
        setattr(owner, attr, new)
        return 1
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for global_name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, global_name, new)
                n += 1
    return n


def _switch(on: bool) -> None:
    if on == bool(_bound):
        return
    if on:
        # resolve everything first: an unknown target raises before any
        # binding has moved
        _bound[:] = [(*_resolve(t), oracle) for t, oracle in SUBSTITUTIONS]
        replaced = [_swap(*entry) for entry in _bound]
        if 0 in replaced:
            _switch(False)
            raise RuntimeError(
                "oracle bound nowhere: "
                f"{[t for (t, _), n in zip(SUBSTITUTIONS, replaced) if not n]}"
            )
    else:
        # also catches modules first imported while the oracles were bound
        for owner, attr, is_method, product, oracle in _bound:
            _swap(owner, attr, is_method, oracle, product)
        _bound.clear()


@contextmanager
def reference_kernels(enabled: bool = True):
    """Run the body on the oracles (or, ``enabled=False``, on the product
    kernels whatever the enclosing state); the state found on entry is
    restored on exit, error or not.

    The content-addressed partition store ``multilevel_kway`` and
    ``repartition`` share is emptied on entry and on exit, so neither kind
    of partition is served across the switch: the oracle recomputes what
    the product computed, and nothing it computed is handed to a later
    product run.
    """
    prev = bool(_bound)
    _switch(bool(enabled))
    multilevel_kway.cache_clear()
    try:
        yield
    finally:
        _switch(prev)
        multilevel_kway.cache_clear()
