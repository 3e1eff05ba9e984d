"""Happens-before analysis of virtual-machine runs: critical paths, slack.

The :class:`~repro.parallel.runtime.VirtualMachine` records every operation
a rank executes as a :class:`CausalNode` — a half-open interval
``[t_start, t_end)`` of that rank's virtual clock — and every message as a
:class:`CausalMsg` linking its send node to the node that consumed it.
Together they form the happens-before DAG of the run:

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
every ``ledger.superstep`` event contributes its bottleneck rank's
work/comm split, and the remaining virtual time is attributed to the
deepest enclosing phase span — yielding a (phase, rank, kind) breakdown
of the makespan, per-cycle straggler rankings, and the input to
``repro critical-path`` / ``repro diff``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CausalMsg",
    "CausalNode",
    "CausalRun",
    "CriticalPath",
    "PathStep",
    "RankStats",
    "Segment",
    "TraceAnalysis",
    "TraceDiff",
    "analyze",
    "chain_of",
    "critical_path",
    "diff",
    "format_chain",
    "format_critical_path",
    "format_diff",
    "node_slack",
    "rank_stats",
    "run_from_result",
    "runs_from_tracer",
    "verify_makespans",
]

#: Node kinds recorded by the virtual machine.
NODE_KINDS = ("work", "elapse", "send", "recv", "probe")

#: Attribution of node kinds to the (work | comm) split.
KIND_OF = {
    "work": "work",
    "elapse": "work",
    "send": "comm",
    "recv": "comm",
    "probe": "comm",
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
    recv_node: int | None = None  #: recv/probe node id; None if unconsumed


@dataclass
class CausalRun:
    """One VM run's causal record, placed on the trace's timeline.

    Virtual runs (``clock="virtual"``) use the modelled clock and a
    ``base`` in trace virtual seconds.  Measured runs (``clock="wall"``,
    recorded by the real-core backends via :mod:`repro.obs.wallclock`)
    use aligned host wall seconds; their ``base`` is the raw parent
    ``perf_counter`` at the merged time zero, and they carry the
    alignment bookkeeping (``rank_makespan``, ``skew``) the measured
    makespan check needs.
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
    rank_makespan: float | None = None  #: max own-clock rank duration (wall)
    skew: float = 0.0  #: clock-alignment error bound for wall runs


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

    def by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.steps:
            out[s.kind] = out.get(s.kind, 0.0) + s.seconds
        return out


@dataclass(frozen=True)
class RankStats:
    """Per-rank decomposition of one run plus its critical-path footprint."""

    rank: int
    work: float  #: charged work/elapse seconds
    comm: float  #: charged send/recv-setup/probe seconds
    wait: float  #: seconds blocked inside recvs
    tail: float  #: makespan minus the rank's final clock (trailing idle)
    on_path: float  #: seconds this rank contributes to the critical path
    slack: float  #: min node slack — how much it can slow without cost

    @property
    def idle(self) -> float:
        return self.wait + self.tail


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
class Superstep:
    """One bulk-synchronous superstep recorded by a :class:`CostLedger`."""

    phase: str
    cycle: int | None
    t0: float
    t1: float
    work: list[float]  #: per-rank charged work seconds
    comm: list[float]  #: per-rank charged communication seconds
    sync: float  #: dissemination-barrier seconds
    bottleneck: int  #: rank with the largest work+comm


@dataclass
class TraceAnalysis:
    """Whole-trace causal attribution produced by :func:`analyze`."""

    makespan: float
    runs: list[CausalRun]
    paths: dict[int, CriticalPath]  #: run id -> its critical path
    stats: dict[int, list[RankStats]]  #: run id -> per-rank stats
    supersteps: list[Superstep]
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


def run_from_result(result, run_id: int = 0, base: float = 0.0,
                    cycle: int | None = None,
                    phase: str | None = None) -> CausalRun:
    """Wrap a traced :class:`~repro.parallel.runtime.RunResult`."""
    if result.nodes is None:
        raise ValueError(
            "RunResult has no causal record; run the VirtualMachine with "
            "trace=True or a tracer"
        )
    return CausalRun(
        id=run_id,
        base=base,
        nranks=len(result.clocks),
        makespan=result.makespan,
        nodes=list(result.nodes),
        msgs=list(result.msgs),
        cycle=cycle,
        phase=phase,
    )


def runs_from_tracer(tracer, clock: str = "virtual") -> list[CausalRun]:
    """All VM runs recorded in a tracer, via its ``vm.run`` marker events.

    ``clock`` selects which runs: ``"virtual"`` (the default — modelled
    runs) or ``"wall"`` (measured runs from the real-core backends).  The two
    kinds never mix in one list: wall bases are raw ``perf_counter``
    epochs and would corrupt virtual-timeline placement.
    """
    nodes_by_run: dict[int, list[CausalNode]] = {}
    msgs_by_run: dict[int, list[CausalMsg]] = {}
    for n in tracer.causal_nodes:
        nodes_by_run.setdefault(n.run, []).append(n)
    for m in tracer.causal_msgs:
        msgs_by_run.setdefault(m.run, []).append(m)
    runs = []
    for ev in tracer.events:
        if ev.name != "vm.run":
            continue
        if ev.attrs.get("clock", "virtual") != clock:
            continue
        rid = ev.attrs["run"]
        phase = None
        if ev.span is not None and 0 <= ev.span < len(tracer.spans):
            phase = tracer.spans[ev.span].name
        runs.append(
            CausalRun(
                id=rid,
                base=ev.attrs["base"],
                nranks=ev.attrs["nranks"],
                makespan=ev.attrs["makespan"],
                nodes=sorted(nodes_by_run.get(rid, []), key=lambda n: n.id),
                msgs=sorted(msgs_by_run.get(rid, []), key=lambda m: m.id),
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
    a program-order successor needs its busy seconds after this node ends;
    a waited-on recv needs the send finished by its own latest finish; a
    probe hit needs the message to have *arrived* before the probe began.
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
        if n.msg is not None and n.kind in ("recv", "probe"):
            s = msgs[n.msg].send_node
            if n.kind == "recv":
                latest[s] = min(latest[s], latest[n.id])
            else:
                latest[s] = min(latest[s], latest[n.id] - n.local)
    return {n.id: latest[n.id] - n.t_end for n in run.nodes}


def rank_stats(run: CausalRun,
               path: CriticalPath | None = None) -> list[RankStats]:
    """Per-rank work/comm/idle/slack decomposition of one run.

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
    work = [0.0] * run.nranks
    comm = [0.0] * run.nranks
    wait = [0.0] * run.nranks
    clock = [0.0] * run.nranks
    min_slack = [makespan] * run.nranks
    on_path = [0.0] * run.nranks
    for n in run.nodes:
        if KIND_OF[n.kind] == "work":
            work[n.rank] += n.local
        else:
            comm[n.rank] += n.local
        wait[n.rank] += n.wait
        clock[n.rank] = max(clock[n.rank], n.t_end)
        min_slack[n.rank] = min(min_slack[n.rank], slack[n.id])
    for s in path.steps:
        on_path[s.node.rank] += s.seconds
    return [
        RankStats(
            rank=r,
            work=work[r],
            comm=comm[r],
            wait=wait[r],
            tail=makespan - clock[r],
            on_path=on_path[r],
            slack=min_slack[r],
        )
        for r in range(run.nranks)
    ]


def chain_of(nodes: list[CausalNode], msgs: list[CausalMsg],
             start: CausalNode, limit: int = 8) -> list[CausalNode]:
    """Backward tight chain from ``start``, oldest first, capped at ``limit``.

    Shared with :class:`~repro.parallel.runtime.DeadlockError` diagnostics:
    the chain from a blocked rank's last completed node shows what it was
    doing — and which senders it depended on — when progress stopped.
    """
    by_id = {n.id: n for n in nodes}
    by_msg = {m.id: m for m in msgs}
    prev = _predecessors(nodes)
    chain = [start]
    n: CausalNode | None = start
    while len(chain) < limit:
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


def _span_name(tracer, span_index: int | None) -> str | None:
    if span_index is not None and 0 <= span_index < len(tracer.spans):
        return tracer.spans[span_index].name
    return None


def _supersteps_from_tracer(tracer) -> list[Superstep]:
    steps = []
    for ev in tracer.events:
        if ev.name != "ledger.superstep":
            continue
        t0 = ev.v_time + ev.attrs["start"]
        work = list(ev.attrs["work"])
        comm = list(ev.attrs["comm"])
        busy = [w + c for w, c in zip(work, comm)]
        steps.append(
            Superstep(
                phase=_span_name(tracer, ev.span) or "(untracked)",
                cycle=ev.attrs.get("cycle"),
                t0=t0,
                t1=t0 + ev.attrs["duration"],
                work=work,
                comm=comm,
                sync=ev.attrs.get("sync", 0.0),
                bottleneck=max(range(len(busy)), key=lambda r: busy[r])
                if busy else 0,
            )
        )
    steps.sort(key=lambda s: s.t0)
    return steps


def _covering_phase(tracer, t: float, clock: str = "virtual",
                    epoch: float = 0.0) -> str:
    """Name of the deepest closed span whose interval covers ``t``.

    On the virtual clock, span virtual intervals are compared directly;
    on the wall clock, span wall intervals are re-zeroed on ``epoch``
    (the earliest measured timestamp of the trace) first.
    """
    best = None
    for s in tracer.spans:
        if s.open or s.v_end is None:
            continue
        if clock == "wall":
            t0, t1 = s.wall_start - epoch, s.wall_end - epoch
        else:
            t0, t1 = s.v_start, s.v_end
        if t0 <= t <= t1:
            if best is None or s.depth > best.depth:
                best = s
    return best.name if best is not None else "(untracked)"


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
    steps (exact); ledger supersteps contribute their bottleneck rank's
    work/comm split; any virtual time not covered by either is framework
    time, attributed to the deepest enclosing span.  The segment list
    covers ``[0, makespan]`` in time order with no overlaps.

    With ``clock="wall"`` the same attribution runs over the *measured*
    runs recorded by the real-core backends: run bases and span
    intervals are host wall seconds re-zeroed on the trace's earliest
    measured timestamp, and ledger supersteps (virtual-only records) are
    excluded.  The virtual analysis of a trace is byte-identical whether
    or not measured runs are present.
    """
    wall = clock == "wall"
    runs = runs_from_tracer(tracer, clock=clock)
    paths = {r.id: critical_path(r) for r in runs}
    stats = {r.id: rank_stats(r, paths[r.id]) for r in runs}
    supersteps = [] if wall else _supersteps_from_tracer(tracer)

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
    for ss in supersteps:
        b = ss.bottleneck
        split = ss.t0 + (ss.work[b] if ss.work else 0.0)
        split = min(split, ss.t1)
        if split > ss.t0:
            covered.append(Segment(ss.phase, b, "work", ss.t0, split))
        if ss.t1 > split:
            covered.append(Segment(ss.phase, b, "comm", split, ss.t1))

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
    segments: list[Segment] = []
    cursor = 0.0
    for seg in covered:
        if seg.t0 > cursor:
            phase = _covering_phase(tracer, (cursor + seg.t0) / 2.0,
                                    clock=clock, epoch=epoch)
            _merge_push(segments, Segment(phase, None, "work", cursor, seg.t0))
        if seg.t1 <= cursor:
            continue  # fully shadowed by an earlier segment
        t0 = max(seg.t0, cursor)
        _merge_push(segments, Segment(seg.phase, seg.rank, seg.kind, t0, seg.t1))
        cursor = seg.t1
    if makespan > cursor:
        phase = _covering_phase(tracer, (cursor + makespan) / 2.0,
                                clock=clock, epoch=epoch)
        _merge_push(segments, Segment(phase, None, "work", cursor, makespan))

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
    for ss in supersteps:
        per = stragglers.setdefault(ss.cycle, {})
        b = ss.bottleneck
        busy = (ss.work[b] if ss.work else 0.0) + (ss.comm[b] if ss.comm else 0.0)
        if busy > 0.0:
            per[b] = per.get(b, 0.0) + busy
    ranked = {
        cyc: sorted(per.items(), key=lambda kv: (-kv[1], kv[0]))
        for cyc, per in stragglers.items()
    }

    return TraceAnalysis(
        makespan=makespan,
        runs=runs,
        paths=paths,
        stats=stats,
        supersteps=supersteps,
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
    makespan to within the recorded clock-skew bound (barrier-release
    spread plus twice the worst handshake uncertainty).  Returns the
    number of runs verified.
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
        f"({len(analysis.runs)} vm runs, "
        f"{len(analysis.supersteps)} ledger supersteps)",
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
