"""Per-rank wall-clock event recording and stream merging.

The real-core backends (``multiprocessing`` / ``shm``) fork each rank
into its own OS process on the parent's host.  Every rank reads
``time.perf_counter()``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so all the ranks and the parent read one clock and
their streams need no alignment (DESIGN.md §15).  This module supplies
the two pieces that turn those streams into the same causal-trace model
the virtual machine records (:mod:`repro.obs.causal`):

:class:`WallRecorder`
    A columnar event log a rank driver appends to while executing the
    rank program — flat parallel lists (kind code, start, end, wait,
    message id), like the VM's ``CausalRecord`` columns, so the per-op
    cost is a handful of list appends.  The real Python work between two
    yielded ops is synthesized as a ``work`` node filling the gap, so a
    rank's nodes tile its measured interval exactly like virtual nodes
    tile ``[0, clock]``.

:func:`merge_streams`
    Puts every rank's columns on one timeline (re-zeroed on the earliest
    rank start), renumbers the nodes with a priority Kahn topological
    sort so the causal invariant every consumer relies on — all DAG
    edges go from a lower node id to a higher one — holds despite
    cross-rank interleaving, and returns the run's
    :class:`~repro.obs.causal.CausalRecord` (its measured ``t_start``,
    ``wait`` and message ids stored, since nothing derives them) plus
    the makespan bookkeeping a ``vm.run`` marker needs.

The resulting runs carry ``clock="wall"`` and a recorded ``skew`` bound:
the wall critical-path length and the measured per-rank makespan agree to
within the spread of the rank start times
(:func:`repro.obs.causal.verify_makespans` checks exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .causal import RECV, SEND, WORK, CausalRecord

__all__ = [
    "WallRecorder",
    "format_clock_skew",
    "record_measured_run",
]


class WallRecorder:
    """Columnar per-rank event log on the local ``perf_counter`` clock.

    ``note_op`` appends one operation interval, its kind one of the
    causal record's codes (``WORK``, ``SEND``, ``RECV``); any gap since the
    previous recorded end becomes a ``work`` node first (that gap *is*
    the real Python work the program did between yields).  All columns
    are plain lists of numbers, so the whole log pickles cheaply through
    the backend's result queue.
    """

    __slots__ = ("t0", "kinds", "starts", "ends", "waits", "msgs",
                 "sends", "spills", "_last")

    def __init__(self):
        self.t0 = 0.0  #: clock start (set by :meth:`start`)
        self.kinds: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.waits: list[float] = []
        self.msgs: list[int] = []  #: message id touched, -1 for none
        #: per send, ``(msg_id, dest, tag, nwords)`` in send order
        self.sends: list[tuple[int, int, int, int]] = []
        #: ``(t, msg_id)`` for each send whose payload spilled to pickle
        self.spills: list[tuple[float, int]] = []
        self._last = 0.0

    def start(self, t: float) -> None:
        self.t0 = t
        self._last = t

    def note_op(self, code: int, t_start: float, t_end: float,
                wait: float = 0.0, msg: int = -1) -> None:
        last = self._last
        if t_start > last:
            self.kinds.append(WORK)
            self.starts.append(last)
            self.ends.append(t_start)
            self.waits.append(0.0)
            self.msgs.append(-1)
        self.kinds.append(code)
        self.starts.append(t_start)
        self.ends.append(t_end)
        self.waits.append(wait)
        self.msgs.append(msg)
        self._last = t_end

    def note_send(self, msg_id: int, dest: int, tag: int, nwords: int,
                  t_start: float, t_end: float) -> None:
        self.sends.append((msg_id, dest, tag, nwords))
        self.note_op(SEND, t_start, t_end, 0.0, msg_id)

    def note_spill(self, t: float, msg_id: int) -> None:
        self.spills.append((t, msg_id))

    def finish(self, t_end: float) -> None:
        """Close the log: trailing work after the last op, if any."""
        if t_end > self._last:
            self.note_op(WORK, self._last, t_end)

    def columns(self) -> dict:
        """Plain-data form for shipping over the result queue."""
        return {
            "t0": self.t0,
            "kinds": self.kinds,
            "starts": self.starts,
            "ends": self.ends,
            "waits": self.waits,
            "msgs": self.msgs,
            "sends": self.sends,
            "spills": self.spills,
        }


# --- merging -----------------------------------------------------------------


@dataclass
class MergedRun:
    """One measured run's merged causal record and its bookkeeping."""

    record: CausalRecord  #: its ``run`` is stamped by the tracer
    makespan: float  #: max node end (run-local time zero = first start)
    rank_makespan: float  #: max per-rank duration
    start_spread: float  #: spread of the rank start times (boot stagger)
    epoch: float  #: ``perf_counter`` of the merged time zero
    spills: list[tuple[float, int, int]]  #: run-local ``(t, rank, msg_id)``


def merge_streams(streams: dict[int, dict]) -> MergedRun:
    """Merge per-rank recorder columns onto one timeline.

    ``streams[r]`` is rank *r*'s :meth:`WallRecorder.columns` dict, on
    the ``perf_counter`` clock every forked rank shares with its parent.
    Node ids are assigned by a Kahn topological sort over program order
    and message edges, keyed by end time, so every edge goes low id ->
    high id (the invariant :func:`repro.obs.causal.node_slack` and the
    backward critical-path walk rely on).  Real-time causality makes the
    graph a DAG; the time key only keeps ids near time order for
    readable traces.
    """
    ranks = sorted(streams)
    starts = [streams[r]["t0"] for r in ranks]
    epoch = min(starts, default=0.0)
    start_spread = max(starts) - epoch if starts else 0.0

    # provisional nodes keyed (rank, local index); consumers of each msg id
    consumer: dict[int, tuple[int, int]] = {}
    counts = {}
    for r in ranks:
        cols = streams[r]
        counts[r] = len(cols["kinds"])
        for i, (code, mid) in enumerate(zip(cols["kinds"], cols["msgs"])):
            if mid >= 0 and code == RECV:
                consumer[mid] = (r, i)

    # Kahn: indegree = program-order predecessor + send of any consumed msg
    indeg: dict[tuple[int, int], int] = {}
    out_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    send_node_of: dict[int, tuple[int, int]] = {}
    for r in ranks:
        cols = streams[r]
        for i in range(counts[r]):
            key = (r, i)
            indeg[key] = 1 if i > 0 else 0
            if i > 0:
                out_edges.setdefault((r, i - 1), []).append(key)
            if cols["kinds"][i] == SEND:
                send_node_of[cols["msgs"][i]] = key
    for mid, rcv in consumer.items():
        snd = send_node_of.get(mid)
        if snd is not None:
            indeg[rcv] += 1
            out_edges.setdefault(snd, []).append(rcv)

    def end_of(r: int, i: int) -> float:
        return streams[r]["ends"][i] - epoch

    heap: list[tuple[float, int, int]] = []
    for r in ranks:
        if counts[r]:
            heappush(heap, (end_of(r, 0), r, 0))
    order: dict[tuple[int, int], int] = {}
    next_id = 0
    while heap:
        _, r, i = heappop(heap)
        order[(r, i)] = next_id
        next_id += 1
        for (r2, i2) in out_edges.get((r, i), ()):
            indeg[(r2, i2)] -= 1
            if indeg[(r2, i2)] == 0:
                heappush(heap, (end_of(r2, i2), r2, i2))
    if next_id != sum(counts.values()):  # pragma: no cover - defensive
        raise AssertionError(
            "measured event streams contain a causal cycle "
            f"({next_id} of {sum(counts.values())} nodes ordered)"
        )

    # rows in id order; a message's number is its send node's rank among
    # the send nodes, so a recv follows the send it names
    sent = {mid: (dest, tag, nwords)
            for r in ranks for mid, dest, tag, nwords in streams[r]["sends"]}
    number: dict[int, int] = {}
    rec = CausalRecord(None)
    rows_ext, msg_ext = rec.rows.extend, rec.msg_rows.extend
    end_app, start_app, wait_app = (
        rec.t_end.append, rec.t_start.append, rec.wait.append)
    makespan = 0.0
    for r, i in order:
        cols = streams[r]
        code, mid = cols["kinds"][i], cols["msgs"][i]
        t_start = cols["starts"][i] - epoch
        t_end = cols["ends"][i] - epoch
        if t_end < t_start:  # pragma: no cover - monotonic clocks
            t_end = t_start
        if code == SEND:
            number[mid] = len(number)
            msg_ext((*sent[mid], mid))
        rows_ext((r, number[mid] + 1 if code == RECV
                  else 0 if code == SEND else -1))
        end_app(t_end)
        start_app(t_start)
        wait_app(min(max(cols["waits"][i], 0.0), t_end - t_start))
        if t_end > makespan:
            makespan = t_end
    rank_makespan = max((streams[r]["ends"][-1] - streams[r]["t0"]
                         for r in ranks if counts[r]), default=0.0)

    spills = sorted(
        (t - epoch, r, mid)
        for r in ranks
        for (t, mid) in streams[r]["spills"]
    )
    return MergedRun(
        record=rec,
        makespan=makespan,
        rank_makespan=rank_makespan,
        start_spread=start_spread,
        epoch=epoch,
        spills=spills,
    )


def record_measured_run(tracer, streams, *, nranks, backend):
    """Merge per-rank streams and write the measured run into ``tracer``.

    The shared tail of every measured backend: :func:`merge_streams`,
    stamp a fresh run id, extend the tracer's causal record, emit the
    ``vm.run`` marker with ``clock="wall"`` (its ``skew`` attribute
    bounds how far the merged makespan may lie from the longest rank
    interval: the recorder start spread, plus a nanosecond for
    rounding) and emit ``transport.spill`` events.  Returns the
    merged record — the tracer's — so the backend's ``RunResult`` can
    carry it too.
    """
    merged = merge_streams(streams)
    rec = merged.record
    run_id = rec.run = tracer.next_causal_run()
    tracer.causal_records.append(rec)
    tracer.event(
        "vm.run",
        run=run_id,
        clock="wall",
        base=merged.epoch,
        makespan=merged.makespan,
        rank_makespan=merged.rank_makespan,
        skew=merged.start_spread + 1e-9,
        nranks=nranks,
        cycle=tracer.cycle,
        nodes=rec.nnodes,
        msgs=len(rec.msg_rows) // 4,
        backend=backend,
    )
    for t, r, mid in merged.spills:
        tracer.event(
            "transport.spill", rank=r,
            run=run_id, msg=mid, t=t, clock="wall",
        )
    return rec


def format_clock_skew(tracer) -> str:
    """Phase-by-phase clock table for a trace's measured runs.

    One row per measured (``clock="wall"``) run: the phase it executed
    under, which backend ran it, the merged makespan, the longest rank
    interval, how far the wall critical path lands from it, and the
    run's skew bound.  Returns an empty string when the trace carries
    no measured runs.
    """
    from .causal import critical_path, runs_from_tracer

    runs = runs_from_tracer(tracer, clock="wall")
    if not runs:
        return ""
    backends = {
        ev.attrs.get("run"): ev.attrs.get("backend", "?")
        for ev in tracer.events
        if ev.name == "vm.run" and ev.attrs.get("clock") == "wall"
    }
    lines = [
        "wall clock per measured run:",
        f"  {'run':>4s}  {'phase':<16s} {'backend':<10s} "
        f"{'makespan s':>11s} {'rank max s':>11s} {'path-rank s':>12s} "
        f"{'skew bound s':>13s}",
    ]
    for run in runs:
        path = critical_path(run)
        rank_max = run.rank_makespan if run.rank_makespan is not None \
            else path.length
        delta = abs(path.length - rank_max)
        lines.append(
            f"  {run.id:>4d}  {(run.phase or '-'):<16.16s} "
            f"{backends.get(run.id, '?'):<10.10s} "
            f"{run.makespan:>11.6f} {rank_max:>11.6f} {delta:>12.6f} "
            f"{run.skew:>13.6f}"
        )
    return "\n".join(lines)
