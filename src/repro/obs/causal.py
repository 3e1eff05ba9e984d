"""Happens-before analysis of virtual-machine runs: critical paths, slack.

The :class:`~repro.parallel.runtime.VirtualMachine` records every operation
a rank executes, and every message, in a :class:`CausalRecord` —
what it cannot derive — and
:meth:`CausalRecord.objects` derives a :class:`CausalNode` per operation
— a half-open interval ``[t_start, t_end)`` of that rank's virtual clock
— and a :class:`CausalMsg` per message, linking its send node to the
node that consumed it.  Together they form the happens-before DAG of the
run:

* **program order** — consecutive nodes of one rank abut exactly
  (``t_start == predecessor.t_end``; per-rank node intervals tile
  ``[0, clock]`` with no gaps), and
* **message edges** — a recv that *waited* (``wait > 0``) ends exactly at
  the sender's clock when the send completed (``t_end == send.t_end`` as
  floats, because the scheduler stores the very same value).

The critical path is found by walking backward from the sink (the node
with the largest ``t_end``): at a recv that waited, cross to the sender;
otherwise step to the program-order predecessor.  Every edge taken is an
exact float equality, so the chain is *tight* all the way back to virtual
time zero and the reported :attr:`CriticalPath.length` — taken directly
from ``sink.t_end`` rather than summed over segments — equals
``RunResult.makespan`` to the last bit.

Slack is the classic latest-finish CPM quantity: how many virtual seconds
a node (or the best node of a rank) could slow down without moving the
run's makespan.  The sink always has slack exactly ``0.0``.

:func:`analyze` lifts all of this to a whole exported trace: every
``vm.run`` becomes a critical path placed at its absolute virtual time,
and the remaining virtual time is cut at span ends,
each piece going to the deepest span covering it — yielding a (phase,
rank, kind) breakdown of the makespan, per-cycle straggler rankings,
and the input to ``repro critical-path`` / ``repro diff``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

__all__ = [
    "CausalMsg",
    "CausalNode",
    "CausalRecord",
    "CausalRun",
    "CriticalPath",
    "RankStats",
    "TraceAnalysis",
    "TraceDiff",
    "analyze",
    "chain_of",
    "critical_path",
    "diff",
    "format_chain",
    "format_critical_path",
    "format_diff",
    "rank_stats",
    "runs_from_tracer",
    "verify_makespans",
]

#: Node kind per ``kind`` code of the trace file (1 is unused): the codes
#: the VM's op classes carry.  A record stores no kind: it derives the
#: code from the sign of the node's ``msg`` slot.
KIND_CODES = ("work", None, "send", "recv")
WORK, SEND, RECV = 0, 2, 3

#: A run's columns, in file order.  ``t_start`` and ``wait``
#: (per node) and ``id`` (per message) are stored by a measured run only;
#: a virtual run derives them.
NODE_COLUMNS = ("kind", "rank", "msg", "t_end", "t_start", "wait")
MSG_COLUMNS = ("dst", "tag", "nwords", "id")

#: Attribution of node kinds to the (work | comm) split.
KIND_OF = {
    "work": "work",
    "send": "comm",
    "recv": "comm",
}


@dataclass(slots=True)
class CausalNode:
    """One executed operation of one rank, on the run-local virtual clock."""

    run: int  #: id of the VM run this node belongs to
    id: int  #: creation order within the run; all DAG edges go low -> high
    rank: int
    kind: str  #: one of :data:`NODE_KINDS`
    t_start: float
    t_end: float
    wait: float = 0.0  #: seconds blocked inside a recv waiting for arrival
    msg: int | None = None  #: message consumed/produced, if any

    @property
    def local(self) -> float:
        """Busy (charged) seconds of this node — its duration minus wait."""
        return self.t_end - self.t_start - self.wait


@dataclass(slots=True)
class CausalMsg:
    """One message; links the send node to the node that consumed it."""

    run: int
    id: int  #: send order within the run
    src: int
    dst: int
    tag: int
    nwords: int
    send_node: int
    recv_node: int | None = None  #: recv node id; None if unconsumed


class CausalRecord:
    """One run's happens-before record: the slots nothing derives.

    ``rows`` holds one flat ``rank, msg`` pair per operation, in id order,
    as the scheduler appends it, and ``t_end`` the operation's end time,
    unboxed in an ``array('d')``.  Messages are numbered 0, 1, ... in the
    order of their send nodes; ``msg`` is that number + 1 on a recv (the
    send sequence the VM already holds, so it stores no new int), 0 on a
    send and -1 on work, so its sign is the node's kind
    (:data:`KIND_CODES`).  ``msg_rows`` holds one row per message, in
    that order: ``dst``, ``tag``, ``nwords``.  One ``list.extend`` and
    one ``array.append`` per node keep the scheduler's recording as
    cheap, and its containers as few, as they can be; the trace file
    stores the same slots as columns (:meth:`columns`), ``kind`` among
    them.

    A virtual run (``t_setup`` set) derives everything else, exactly as
    its scheduler computed it: a node starts where its rank's previous
    node ended (0.0 for its first), because a rank's clock moves only by
    its own ops; a recv waited ``t_end - (t_start + t_setup)``, the
    scheduler's own float expression, which is +0.0 on a recv that did
    not wait; a message's id is its number.  A measured run
    (``t_setup`` None) also stores, per node, the ``t_start`` and
    ``wait`` its clocks read (two more ``array('d')`` columns) and, per
    message, the ``id`` its rank gave it.  :meth:`objects` is the one
    derivation, for a run recorded in this process and for one read
    from a trace file alike.
    """

    __slots__ = ("run", "t_setup", "rows", "t_end", "t_start", "wait",
                 "msg_rows")

    def __init__(self, t_setup: float | None, run: int = -1):
        self.t_setup = t_setup
        self.run = run  #: assigned when the run ends
        self.rows: list[int] = []
        self.t_end = array("d")
        measured = t_setup is None
        self.t_start = array("d") if measured else None
        self.wait = array("d") if measured else None
        self.msg_rows: list[int] = []

    @property
    def nnodes(self) -> int:
        return len(self.t_end)

    def columns(self) -> tuple[dict, dict]:
        """``(nodes, msgs)``: one list per column of :data:`NODE_COLUMNS`
        and :data:`MSG_COLUMNS`, None where a virtual run derives it.
        ``kind`` is derived from the sign of the stored ``msg``, and the
        ``msg`` column is -1 on every node but a recv."""
        msg = self.rows[1::2]
        m = 3 if self.t_setup is not None else 4
        nodes = ([RECV if k > 0 else SEND if k == 0 else WORK for k in msg],
                 self.rows[0::2], [k if k > 0 else -1 for k in msg],
                 self.t_end.tolist(),
                 None if m == 3 else self.t_start.tolist(),
                 None if m == 3 else self.wait.tolist())
        return (dict(zip(NODE_COLUMNS, nodes)),
                {c: self.msg_rows[i::m] if i < m else None
                 for i, c in enumerate(MSG_COLUMNS)})

    def load_columns(self, nodes: dict | None = None,
                     msgs: dict | None = None) -> None:
        """Store a ``nodes`` and/or ``msgs`` record's columns, as read
        back from a trace file (:meth:`columns` inverted)."""
        if nodes is not None:
            self.rows = list(chain.from_iterable(zip(
                nodes["rank"], [0 if k == SEND else m
                                for k, m in zip(nodes["kind"], nodes["msg"])])))
            self.t_end = array("d", nodes["t_end"])
            if self.t_setup is None:
                self.t_start = array("d", nodes["t_start"])
                self.wait = array("d", nodes["wait"])
        if msgs is not None:
            self.msg_rows = list(chain.from_iterable(zip(
                *(msgs[c] for c in MSG_COLUMNS if msgs[c] is not None))))

    def objects(self) -> tuple[list[CausalNode], list[CausalMsg]]:
        """The run's :class:`CausalNode` and :class:`CausalMsg` lists, in
        id order."""
        run = self.run
        rank, msg, t_end = self.rows[0::2], self.rows[1::2], self.t_end
        t_setup = self.t_setup
        m = 3 if t_setup is not None else 4
        rows = self.msg_rows
        if t_setup is None:
            t_start, wait, ids = self.t_start, self.wait, rows[3::4]
        else:
            t_start, wait, ids = [], [], range(len(rows) // 3)
            last: dict[int, float] = {}
            for r, k, e in zip(rank, msg, t_end):
                s = last.get(r, 0.0)
                last[r] = e
                t_start.append(s)
                wait.append(e - (s + t_setup) if k > 0 else 0.0)
        sends: list[int] = []
        recv_node: list[int | None] = [None] * len(ids)
        nodes = []
        for i, (r, k, s, e, w) in enumerate(
                zip(rank, msg, t_start, t_end, wait)):
            if k > 0:
                recv_node[k - 1] = i
                nodes.append(CausalNode(run, i, r, "recv", s, e, w, ids[k - 1]))
            elif k == 0:
                nodes.append(CausalNode(run, i, r, "send", s, e, w,
                                        ids[len(sends)]))
                sends.append(i)
            else:
                nodes.append(CausalNode(run, i, r, "work", s, e, w))
        msgs = [
            CausalMsg(run, ids[j], rank[sn], d, tg, nw, sn, recv_node[j])
            for j, (sn, d, tg, nw) in enumerate(
                zip(sends, rows[0::m], rows[1::m], rows[2::m]))
        ]
        if t_setup is None:  # a measured run's ids are its ranks' own
            msgs.sort(key=lambda m: m.id)
        return nodes, msgs


@dataclass
class CausalRun:
    """One VM run's causal record, placed on the trace's timeline.

    Virtual runs (``clock="virtual"``) use the modelled clock and a
    ``base`` in trace virtual seconds.  Measured runs (``clock="wall"``,
    recorded by the real-core backends via :mod:`repro.obs.wallclock`)
    use host wall seconds; their ``base`` is the raw ``perf_counter`` at
    the merged time zero, and they carry the bookkeeping
    (``rank_makespan``, ``skew``) the measured makespan check needs.
    """

    id: int
    base: float  #: trace virtual time at which the run started
    nranks: int
    makespan: float
    nodes: list[CausalNode]
    msgs: list[CausalMsg]
    cycle: int | None = None
    phase: str | None = None  #: name of the span the run executed under
    clock: str = "virtual"  #: "virtual" (modelled) or "wall" (measured)
    rank_makespan: float | None = None  #: max rank duration (wall)
    skew: float = 0.0  #: rank start spread bound for wall runs


@dataclass(frozen=True)
class PathStep:
    """One backward-walk step of the critical path (time order)."""

    node: CausalNode
    kind: str  #: "work" or "comm"
    seconds: float  #: 0.0 for the recv side of a crossed message edge


@dataclass
class CriticalPath:
    run: CausalRun
    steps: list[PathStep]
    #: Exact path length — ``sink.t_end``, bit-identical to the run makespan.
    length: float


@dataclass(frozen=True)
class RankStats:
    """Per-rank decomposition of one run, its critical-path footprint and
    its traffic — the one per-rank record of a run's sends, receives and
    waits."""

    rank: int
    work: float  #: charged work seconds
    comm: float  #: charged send/recv-setup seconds
    wait: float  #: seconds blocked inside recvs
    tail: float  #: makespan minus the rank's final clock (trailing idle)
    on_path: float  #: seconds this rank contributes to the critical path
    slack: float  #: min node slack — how much it can slow without cost
    #: the rank's interval less its waits: on a virtual run, whose nodes
    #: start at 0.0, its final clock less its waits, bit for bit
    busy: float
    idle: float  #: makespan minus busy
    msgs_sent: int  #: messages sent, zero-word ones included
    msgs_recv: int  #: messages received, zero-word ones included
    sync_sent: int  #: zero-word (synchronisation) messages sent
    sync_recv: int  #: zero-word messages received
    words_sent: int
    words_recv: int


@dataclass(frozen=True)
class Segment:
    """A (phase, rank, kind) slice of the trace's absolute virtual timeline."""

    phase: str
    rank: int | None  #: None for framework (un-ranked) time
    kind: str  #: "work" | "comm" | "idle"
    t0: float
    t1: float

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class TraceAnalysis:
    """Whole-trace causal attribution produced by :func:`analyze`."""

    makespan: float
    runs: list[CausalRun]
    paths: dict[int, CriticalPath]  #: run id -> its critical path
    stats: dict[int, list[RankStats]]  #: run id -> per-rank stats
    segments: list[Segment]  #: covers [0, makespan] in time order
    by_phase_kind: dict[tuple[str, str], float]
    stragglers: dict[int | None, list[tuple[int, float]]] = field(
        default_factory=dict
    )  #: cycle -> [(rank, on-path seconds) ...], worst first
    clock: str = "virtual"  #: which clock this analysis ran on

    def by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, kind), sec in self.by_phase_kind.items():
            out[kind] = out.get(kind, 0.0) + sec
        return out


@dataclass
class TraceDiff:
    """Per-(phase, kind) comparison of two analyses (see :func:`diff`)."""

    makespan_a: float
    makespan_b: float
    #: (phase, kind, seconds_a, seconds_b, delta) sorted by |delta| desc.
    rows: list[tuple[str, str, float, float, float]]

    @property
    def delta(self) -> float:
        return self.makespan_b - self.makespan_a


# --- building runs -----------------------------------------------------------


def runs_from_tracer(tracer, clock: str = "virtual") -> list[CausalRun]:
    """All VM runs recorded in a tracer, via its ``vm.run`` marker events.

    ``clock`` selects which runs: ``"virtual"`` (the default — modelled
    runs) or ``"wall"`` (measured runs from the real-core backends).  The two
    kinds never mix in one list: wall bases are raw ``perf_counter``
    epochs and would corrupt virtual-timeline placement.
    """
    records = {rec.run: rec for rec in tracer.causal_records}
    runs = []
    for ev in tracer.events:
        if ev.name != "vm.run":
            continue
        if ev.attrs.get("clock", "virtual") != clock:
            continue
        rid = ev.attrs["run"]
        nodes, msgs = (records[rid].objects() if rid in records
                       else ([], []))
        phase = None
        if ev.span is not None and 0 <= ev.span < len(tracer.spans):
            phase = tracer.spans[ev.span].name
        runs.append(
            CausalRun(
                id=rid,
                base=ev.attrs["base"],
                nranks=ev.attrs["nranks"],
                makespan=ev.attrs["makespan"],
                nodes=nodes,
                msgs=msgs,
                cycle=ev.attrs.get("cycle"),
                phase=phase,
                clock=clock,
                rank_makespan=ev.attrs.get("rank_makespan"),
                skew=ev.attrs.get("skew", 0.0),
            )
        )
    runs.sort(key=lambda r: r.id)
    return runs


def _predecessors(nodes: list[CausalNode]) -> dict[int, CausalNode | None]:
    """Program-order predecessor per node id (nodes in id order per rank)."""
    prev: dict[int, CausalNode | None] = {}
    last: dict[int, CausalNode] = {}
    for n in sorted(nodes, key=lambda n: n.id):
        prev[n.id] = last.get(n.rank)
        last[n.rank] = n
    return prev


# --- critical path and slack -------------------------------------------------


def critical_path(run: CausalRun) -> CriticalPath:
    """Walk the tight chain backward from the sink; see the module docstring.

    The returned path's :attr:`~CriticalPath.length` is ``sink.t_end``
    itself, so it matches the run's makespan bit-for-bit; the per-step
    ``seconds`` tile ``[0, length]`` exactly in real arithmetic (message
    crossings contribute zero — the wait they hide is the sender's time).
    """
    if not run.nodes:
        return CriticalPath(run=run, steps=[], length=0.0)
    by_id = {n.id: n for n in run.nodes}
    msgs = {m.id: m for m in run.msgs}
    prev = _predecessors(run.nodes)
    sink = max(run.nodes, key=lambda n: (n.t_end, n.id))
    steps: list[PathStep] = []
    n: CausalNode | None = sink
    while n is not None:
        if n.kind == "recv" and n.wait > 0.0 and n.msg is not None:
            # arrival dominated: t_end == send.t_end exactly — cross over
            steps.append(PathStep(node=n, kind="comm", seconds=0.0))
            n = by_id[msgs[n.msg].send_node]
        else:
            steps.append(
                PathStep(node=n, kind=KIND_OF[n.kind],
                         seconds=n.t_end - n.t_start)
            )
            n = prev[n.id]
    steps.reverse()
    return CriticalPath(run=run, steps=steps, length=sink.t_end)


def node_slack(run: CausalRun) -> dict[int, float]:
    """Latest-finish slack per node id (0.0 for the sink, always).

    Propagating constraints in decreasing id order visits every successor
    before its predecessors (all DAG edges go low id -> high id):
    a program-order successor needs its busy seconds after this node ends,
    and a recv needs its message's send finished by its own latest finish.
    """
    if not run.nodes:
        return {}
    makespan = max(n.t_end for n in run.nodes)
    prev = _predecessors(run.nodes)
    msgs = {m.id: m for m in run.msgs}
    latest = {n.id: makespan for n in run.nodes}
    for n in sorted(run.nodes, key=lambda n: n.id, reverse=True):
        p = prev[n.id]
        if p is not None:
            latest[p.id] = min(latest[p.id], latest[n.id] - n.local)
        if n.msg is not None and n.kind == "recv":
            s = msgs[n.msg].send_node
            latest[s] = min(latest[s], latest[n.id])
    return {n.id: latest[n.id] - n.t_end for n in run.nodes}


def rank_stats(run: CausalRun,
               path: CriticalPath | None = None) -> list[RankStats]:
    """Per-rank work/comm/idle/slack decomposition and traffic of one run.

    Messages and words come from the run's messages (a receive counts
    once its message was consumed); busy and idle from its nodes.
    Nodes on the critical path have zero slack *by definition*; they are
    pinned to exactly ``0.0`` here because the backward DP in
    :func:`node_slack` re-derives their latest-finish times through a
    chain of float subtractions that need not cancel to the last bit.
    """
    path = path if path is not None else critical_path(run)
    slack = node_slack(run)
    for s in path.steps:
        slack[s.node.id] = 0.0
    makespan = run.makespan
    p = run.nranks
    work, comm, wait, clock, on_path = ([0.0] * p for _ in range(5))
    start: list[float | None] = [None] * p
    min_slack = [makespan] * p
    for n in run.nodes:
        if KIND_OF[n.kind] == "work":
            work[n.rank] += n.local
        else:
            comm[n.rank] += n.local
        wait[n.rank] += n.wait
        if start[n.rank] is None:
            start[n.rank] = n.t_start
        clock[n.rank] = max(clock[n.rank], n.t_end)
        min_slack[n.rank] = min(min_slack[n.rank], slack[n.id])
    for s in path.steps:
        on_path[s.node.rank] += s.seconds
    sent, recv, sync_sent, sync_recv, words_sent, words_recv = (
        [0] * p for _ in range(6))
    for m in run.msgs:
        sent[m.src] += 1
        sync_sent[m.src] += not m.nwords
        words_sent[m.src] += m.nwords
        if m.recv_node is not None:
            recv[m.dst] += 1
            sync_recv[m.dst] += not m.nwords
            words_recv[m.dst] += m.nwords
    out = []
    for r in range(p):
        busy = (clock[r] - (start[r] or 0.0)) - wait[r]
        out.append(RankStats(
            rank=r, work=work[r], comm=comm[r], wait=wait[r],
            tail=makespan - clock[r], on_path=on_path[r],
            slack=min_slack[r], busy=busy, idle=makespan - busy,
            msgs_sent=sent[r], msgs_recv=recv[r], sync_sent=sync_sent[r],
            sync_recv=sync_recv[r], words_sent=words_sent[r],
            words_recv=words_recv[r],
        ))
    return out


#: Nodes a causal chain holds at most.
CHAIN_LIMIT = 8


def chain_of(nodes: list[CausalNode], msgs: list[CausalMsg],
             start: CausalNode) -> list[CausalNode]:
    """Backward tight chain from ``start``, oldest first, capped at
    :data:`CHAIN_LIMIT` nodes.

    Shared with :class:`~repro.parallel.runtime.DeadlockError` diagnostics:
    the chain from a blocked rank's last completed node shows what it was
    doing — and which senders it depended on — when progress stopped.
    """
    by_id = {n.id: n for n in nodes}
    by_msg = {m.id: m for m in msgs}
    prev = _predecessors(nodes)
    chain = [start]
    n: CausalNode | None = start
    while len(chain) < CHAIN_LIMIT:
        if n.kind == "recv" and n.wait > 0.0 and n.msg is not None:
            n = by_id[by_msg[n.msg].send_node]
        else:
            n = prev[n.id]
        if n is None:
            break
        chain.append(n)
    chain.reverse()
    return chain


def format_chain(chain: list[CausalNode],
                 msgs: list[CausalMsg] | None = None) -> str:
    """One-line rendering of a causal chain, oldest -> newest."""
    by_msg = {m.id: m for m in msgs} if msgs else {}
    parts = []
    for n in chain:
        label = n.kind
        m = by_msg.get(n.msg) if n.msg is not None else None
        if m is not None:
            if n.kind == "send":
                label = f"send->{m.dst}(tag={m.tag})"
            else:
                label = f"{n.kind}<-{m.src}(tag={m.tag})"
        parts.append(f"r{n.rank}:{label}@{n.t_end:.6g}")
    return " -> ".join(parts)


# --- whole-trace attribution -------------------------------------------------


def _span_cover(tracer, clock: str, epoch: float):
    """``(bounds, names)``: the sorted distinct ends of the closed spans on
    ``clock`` (wall intervals re-zeroed on ``epoch``) and, for each
    interval between two consecutive ends, the name of the deepest span
    covering it (the first such span on a tie)."""
    spans = [(s.wall_start - epoch, s.wall_end - epoch, s)
             if clock == "wall" else (s.v_start, s.v_end, s)
             for s in tracer.spans if not s.open and s.v_end is not None]
    bounds = sorted({t for t0, t1, _s in spans for t in (t0, t1)})
    names = ["(untracked)"] * len(bounds)
    depth = [-1] * len(bounds)
    for t0, t1, s in spans:
        for k in range(bisect_left(bounds, t0), bisect_left(bounds, t1)):
            if s.depth > depth[k]:
                depth[k], names[k] = s.depth, s.name
    return bounds, names


def _push_gap(segments: list[Segment], t0: float, t1: float,
              cover) -> None:
    """Framework time ``[t0, t1]``, cut at every span end inside it, each
    piece charged to the deepest span covering it."""
    bounds, names = cover
    cuts = [t0, *bounds[bisect_right(bounds, t0):bisect_left(bounds, t1)], t1]
    for a, b in zip(cuts, cuts[1:]):
        k = bisect_right(bounds, a) - 1
        _merge_push(segments, Segment(names[k] if k >= 0 else "(untracked)",
                                      None, "work", a, b))


def _merge_push(segments: list[Segment], seg: Segment) -> None:
    """Append, merging with the previous segment when it continues it."""
    if (
        segments
        and segments[-1].phase == seg.phase
        and segments[-1].rank == seg.rank
        and segments[-1].kind == seg.kind
        and segments[-1].t1 == seg.t0
    ):
        segments[-1] = Segment(seg.phase, seg.rank, seg.kind,
                               segments[-1].t0, seg.t1)
    else:
        segments.append(seg)


def analyze(tracer, clock: str = "virtual") -> TraceAnalysis:
    """Attribute a whole trace's time to (phase, rank, kind).

    On the default virtual clock, VM runs contribute their critical-path
    steps (exact); any virtual time not covered by them is framework
    time, cut at every span end and each piece attributed to the deepest
    span covering it.  The segment list
    covers ``[0, makespan]`` in time order with no overlaps.

    With ``clock="wall"`` the same attribution runs over the *measured*
    runs recorded by the real-core backends: run bases and span
    intervals are host wall seconds re-zeroed on the trace's earliest
    measured timestamp.  The virtual analysis of a trace is byte-identical
    whether or not measured runs are present.
    """
    wall = clock == "wall"
    runs = runs_from_tracer(tracer, clock=clock)
    paths = {r.id: critical_path(r) for r in runs}
    stats = {r.id: rank_stats(r, paths[r.id]) for r in runs}

    epoch = 0.0
    if wall:
        epoch = min(
            [r.base for r in runs]
            + [s.wall_start for s in tracer.spans if not s.open],
            default=0.0,
        )

    covered: list[Segment] = []
    for run in runs:
        phase = run.phase or "vm"
        base = run.base - epoch if wall else run.base
        for s in paths[run.id].steps:
            if s.seconds <= 0.0:
                continue
            _merge_push(
                covered,
                Segment(phase, s.node.rank, s.kind,
                        base + s.node.t_start, base + s.node.t_end),
            )

    if wall:
        span_end = max(
            (s.wall_end - epoch for s in tracer.spans
             if not s.open and s.wall_end is not None),
            default=0.0,
        )
    else:
        span_end = max(
            (s.v_end for s in tracer.spans
             if not s.open and s.v_end is not None),
            default=0.0,
        )
    makespan = max([span_end] + [seg.t1 for seg in covered])

    covered.sort(key=lambda seg: (seg.t0, seg.t1))
    cover = _span_cover(tracer, clock, epoch)
    segments: list[Segment] = []
    cursor = 0.0
    for seg in covered:
        if seg.t0 > cursor:
            _push_gap(segments, cursor, seg.t0, cover)
        if seg.t1 <= cursor:
            continue  # fully shadowed by an earlier segment
        t0 = max(seg.t0, cursor)
        _merge_push(segments, Segment(seg.phase, seg.rank, seg.kind, t0, seg.t1))
        cursor = seg.t1
    if makespan > cursor:
        _push_gap(segments, cursor, makespan, cover)

    by_phase_kind: dict[tuple[str, str], float] = {}
    for seg in segments:
        key = (seg.phase, seg.kind)
        by_phase_kind[key] = by_phase_kind.get(key, 0.0) + seg.seconds

    stragglers: dict[int | None, dict[int, float]] = {}
    for run in runs:
        per = stragglers.setdefault(run.cycle, {})
        for st in stats[run.id]:
            if st.on_path > 0.0:
                per[st.rank] = per.get(st.rank, 0.0) + st.on_path
    ranked = {
        cyc: sorted(per.items(), key=lambda kv: (-kv[1], kv[0]))
        for cyc, per in stragglers.items()
    }

    return TraceAnalysis(
        makespan=makespan,
        runs=runs,
        paths=paths,
        stats=stats,
        segments=segments,
        by_phase_kind=by_phase_kind,
        stragglers=ranked,
        clock=clock,
    )


def verify_makespans(tracer) -> int:
    """Check the causal record against the recorded run results.

    For every *virtual* VM run in the trace, assert that the
    critical-path length equals the run's makespan *bit-for-bit* and
    that at least one rank has zero slack.  For every *measured* run
    (``clock="wall"``), the path length must still equal the merged
    makespan exactly, and must additionally match the measured per-rank
    makespan to within the recorded skew bound (the spread of the rank
    start times).  Returns the number of runs verified.
    """
    runs = runs_from_tracer(tracer) + runs_from_tracer(tracer, clock="wall")
    for run in runs:
        path = critical_path(run)
        if path.length != run.makespan:
            raise AssertionError(
                f"run {run.id} ({run.phase}): critical-path length "
                f"{path.length!r} != makespan {run.makespan!r}"
            )
        if run.clock == "wall" and run.rank_makespan is not None:
            bound = max(run.skew, 1e-9)
            if abs(path.length - run.rank_makespan) > bound:
                raise AssertionError(
                    f"run {run.id} ({run.phase}): wall critical-path "
                    f"length {path.length!r} is further than the skew "
                    f"bound {bound!r} from the measured rank makespan "
                    f"{run.rank_makespan!r}"
                )
        if run.nodes:
            stats = rank_stats(run, path)
            if not any(st.slack == 0.0 for st in stats):
                raise AssertionError(
                    f"run {run.id} ({run.phase}): no rank has zero slack"
                )
    return len(runs)


# --- comparing two analyses --------------------------------------------------


def diff(a: TraceAnalysis, b: TraceAnalysis) -> TraceDiff:
    """Per-(phase, kind) makespan attribution delta between two traces."""
    keys = sorted(set(a.by_phase_kind) | set(b.by_phase_kind))
    rows = [
        (
            phase,
            kind,
            a.by_phase_kind.get((phase, kind), 0.0),
            b.by_phase_kind.get((phase, kind), 0.0),
            b.by_phase_kind.get((phase, kind), 0.0)
            - a.by_phase_kind.get((phase, kind), 0.0),
        )
        for phase, kind in keys
    ]
    rows.sort(key=lambda row: (-abs(row[4]), row[0], row[1]))
    return TraceDiff(makespan_a=a.makespan, makespan_b=b.makespan, rows=rows)


# --- ASCII rendering ---------------------------------------------------------


def _fmt_s(v: float) -> str:
    return f"{v:.6f}"


def format_critical_path(analysis: TraceAnalysis, top: int = 10) -> str:
    """ASCII breakdown: (phase, kind) attribution, top segments, stragglers."""
    unit = "wall" if analysis.clock == "wall" else "virtual"
    lines = [
        f"makespan: {_fmt_s(analysis.makespan)} {unit} seconds "
        f"({len(analysis.runs)} vm runs)",
    ]
    kinds = analysis.by_kind()
    if kinds:
        total = sum(kinds.values()) or 1.0
        lines.append(
            "by kind: "
            + "  ".join(
                f"{k}={_fmt_s(v)}s ({100.0 * v / total:.1f}%)"
                for k, v in sorted(kinds.items(), key=lambda kv: -kv[1])
            )
        )
    lines.append("")
    lines.append("critical-path attribution by (phase, kind):")
    lines.append(f"  {'phase':<18s} {'kind':<5s} {'seconds':>12s} {'share':>7s}")
    total = analysis.makespan or 1.0
    for (phase, kind), sec in sorted(
        analysis.by_phase_kind.items(), key=lambda kv: -kv[1]
    ):
        lines.append(
            f"  {phase:<18s} {kind:<5s} {_fmt_s(sec):>12s} "
            f"{100.0 * sec / total:6.1f}%"
        )
    ranked = sorted(analysis.segments, key=lambda s: -s.seconds)[:top]
    if ranked:
        lines.append("")
        lines.append(f"top {len(ranked)} path segments:")
        lines.append(
            f"  {'t0':>12s} .. {'t1':>12s} {'seconds':>12s}  "
            f"{'phase':<18s} {'rank':>4s} kind"
        )
        for seg in ranked:
            rank = "-" if seg.rank is None else str(seg.rank)
            lines.append(
                f"  {_fmt_s(seg.t0):>12s} .. {_fmt_s(seg.t1):>12s} "
                f"{_fmt_s(seg.seconds):>12s}  {seg.phase:<18s} {rank:>4s} "
                f"{seg.kind}"
            )
    cycles = [c for c in analysis.stragglers if c is not None]
    if cycles:
        lines.append("")
        lines.append("stragglers per cycle (on-path seconds):")
        for cyc in sorted(cycles):
            entries = analysis.stragglers[cyc][:5]
            listing = ", ".join(
                f"rank {r} ({_fmt_s(sec)}s)" for r, sec in entries
            )
            lines.append(f"  cycle {cyc}: {listing}")
    return "\n".join(lines)


def format_diff(d: TraceDiff, label_a: str = "A", label_b: str = "B",
                top: int = 15) -> str:
    """ASCII rendering of :func:`diff`, biggest movers first."""
    lines = [
        f"makespan {label_a}: {_fmt_s(d.makespan_a)}s   "
        f"{label_b}: {_fmt_s(d.makespan_b)}s   "
        f"delta: {d.delta:+.6f}s "
        f"({100.0 * d.delta / d.makespan_a:+.1f}%)"
        if d.makespan_a
        else f"makespan {label_a}: {_fmt_s(d.makespan_a)}s   "
        f"{label_b}: {_fmt_s(d.makespan_b)}s",
        "",
        f"  {'phase':<18s} {'kind':<5s} {label_a:>12s} {label_b:>12s} "
        f"{'delta':>12s}",
    ]
    for phase, kind, sa, sb, delta in d.rows[:top]:
        lines.append(
            f"  {phase:<18s} {kind:<5s} {_fmt_s(sa):>12s} {_fmt_s(sb):>12s} "
            f"{delta:>+12.6f}"
        )
    rest = d.rows[top:]
    if rest:
        resid = sum(row[4] for row in rest)
        lines.append(f"  ({len(rest)} smaller rows, net {resid:+.6f}s)")
    return "\n".join(lines)
