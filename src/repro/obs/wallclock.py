"""Per-rank wall-clock event recording and clock alignment.

The real-core backends (``multiprocessing`` / ``shm`` / ``mpi4py``) run
each rank in its own OS process with its own ``time.perf_counter()``
stream.  This module supplies the three pieces that turn those streams
into the same causal-trace model the virtual machine records
(:mod:`repro.obs.causal`):

:class:`WallRecorder`
    A columnar event log a rank driver appends to while executing the
    rank program — flat parallel lists (kind code, start, end, wait,
    message id), à la the VM scheduler's ``_VMRecord``, so the per-op
    cost is a handful of list appends.  The real Python work between two
    yielded ops is synthesized as a ``work`` node filling the gap, so a
    rank's nodes tile its measured interval exactly like virtual nodes
    tile ``[0, clock]``.

:func:`estimate_offsets` / :func:`serve_clock_probes`
    The one NTP-style clock handshake, over ``multiprocessing.Pipe``
    ends or any object with ``send``/``recv``/``poll`` (the ``mpi4py``
    backend adapts a communicator to that shape): the parent timestamps
    a probe round trip, the child answers with its own clock, and the
    offset estimate ``t_child - (t_send + t_recv) / 2`` from the
    minimum-RTT round is accurate to half that round trip (recorded as
    the per-rank ``skew``).  On Linux ``perf_counter`` is the system-wide
    ``CLOCK_MONOTONIC``, so offsets come out near zero with a
    microsecond-scale bound — but the estimate never assumes that.

:func:`merge_streams`
    Aligns every rank's columns onto one timeline (subtract the rank
    offset, then re-zero on the earliest aligned op start), renumbers the
    nodes with a priority Kahn topological sort so the causal invariant
    every consumer relies on — all DAG edges go from a lower node id to a
    higher one — holds despite cross-rank interleaving, and materializes
    :class:`~repro.obs.causal.CausalNode`/:class:`~repro.obs.causal.CausalMsg`
    lists plus the makespan bookkeeping a ``vm.run`` marker needs.

The resulting runs carry ``clock="wall"`` and a recorded ``skew`` bound:
the wall critical-path length and the measured per-rank makespan agree to
within the recorder start spread plus twice the worst offset uncertainty
(:func:`repro.obs.causal.verify_makespans` checks exactly that).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .causal import CausalMsg, CausalNode

__all__ = [
    "SYNC_ROUNDS",
    "ClockRecord",
    "MergedRun",
    "WallRecorder",
    "estimate_offsets",
    "format_clock_skew",
    "merge_streams",
    "record_measured_run",
    "serve_clock_probes",
]

#: Handshake probe rounds per rank; the minimum-RTT round wins.
SYNC_ROUNDS = 5

#: Node kind codes in the recorder columns (``work`` fills yield gaps).
_KIND_NAMES = ("work", "send", "recv", "probe")
WORK, SEND, RECV, PROBE = range(4)


@dataclass(frozen=True)
class ClockRecord:
    """How one rank's clock was aligned for one measured run."""

    run: int  #: id of the measured run (same space as virtual run ids)
    rank: int
    offset: float  #: seconds subtracted from the rank's perf_counter stream
    skew: float  #: offset uncertainty: half the best handshake round trip

    def __post_init__(self):
        if self.skew < 0:
            raise ValueError(f"negative clock skew {self.skew}")


class WallRecorder:
    """Columnar per-rank event log on the local ``perf_counter`` clock.

    ``note_op`` appends one operation interval; any gap since the
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


# --- clock handshake ---------------------------------------------------------


def serve_clock_probes(conn, rounds: int = SYNC_ROUNDS,
                       timeout: float = 60.0) -> None:
    """Child side: answer ``rounds`` timestamp probes on ``conn``.

    Each probe is answered with the local ``perf_counter()`` at receipt;
    delays on the reply leg only widen the measured RTT (and therefore
    the recorded skew bound), never bias the offset silently.
    """
    for _ in range(rounds):
        if not conn.poll(timeout):
            raise RuntimeError("clock handshake timed out waiting for probe")
        conn.recv()
        conn.send(time.perf_counter())


def estimate_offsets(conns: dict, rounds: int = SYNC_ROUNDS,
                     timeout: float = 60.0) -> tuple[dict, dict]:
    """Parent side: NTP-style offset of every peer clock in ``conns``.

    Returns ``(offsets, skews)`` keyed like ``conns``: subtracting
    ``offsets[r]`` from a timestamp of peer *r* maps it onto this
    process's clock, correct to within ``skews[r]`` (half the minimum
    observed round trip) under the symmetric-delay assumption.

    Each round sends all probes before collecting any reply, so one
    slow peer's wait overlaps the others' instead of serializing.
    Servicing other peers between a probe's send and its reply only
    inflates that round's measured RTT — and the minimum-RTT round
    still wins — so congestion widens the skew bound rather than
    biasing the offset.
    """
    best_rtt = dict.fromkeys(conns, float("inf"))
    offsets = dict.fromkeys(conns, 0.0)
    for _ in range(rounds):
        t_send = {}
        for r, conn in conns.items():
            t_send[r] = time.perf_counter()
            conn.send(0)
        for r, conn in conns.items():
            if not conn.poll(timeout):
                raise RuntimeError(
                    "clock handshake timed out waiting for reply"
                )
            t_peer = conn.recv()
            t_recv = time.perf_counter()
            rtt = t_recv - t_send[r]
            if rtt < best_rtt[r]:
                best_rtt[r] = rtt
                offsets[r] = t_peer - (t_send[r] + t_recv) / 2.0
    return offsets, {r: rtt / 2.0 for r, rtt in best_rtt.items()}


# --- merging -----------------------------------------------------------------


@dataclass
class MergedRun:
    """One measured run's aligned causal record (run ids stamped 0)."""

    nodes: list[CausalNode]
    msgs: list[CausalMsg]
    makespan: float  #: max aligned node end (run-local time zero = first op)
    rank_makespan: float  #: max per-rank duration on its *own* clock
    start_spread: float  #: spread of aligned clock starts (boot stagger)
    epoch: float  #: parent-clock perf_counter of the merged time zero
    spills: list[tuple[float, int, int]]  #: aligned ``(t, rank, msg_id)``


def merge_streams(streams: dict[int, dict],
                  offsets: dict[int, float]) -> MergedRun:
    """Merge per-rank recorder columns onto one aligned timeline.

    ``streams[r]`` is rank *r*'s :meth:`WallRecorder.columns` dict and
    ``offsets[r]`` the handshake offset of its clock.  Node ids are
    assigned by a Kahn topological sort over program order and message
    edges, keyed by aligned end time, so every edge goes low id -> high
    id (the invariant :func:`repro.obs.causal.node_slack` and the
    backward critical-path walk rely on).  Real-time causality makes the
    graph a DAG regardless of clock error; the time key only keeps ids
    near time order for readable traces.
    """
    ranks = sorted(streams)
    aligned_t0 = {r: streams[r]["t0"] - offsets[r] for r in ranks}
    epoch = min(aligned_t0.values(), default=0.0)
    start_spread = (
        max(aligned_t0.values()) - min(aligned_t0.values())
        if aligned_t0 else 0.0
    )

    # provisional nodes keyed (rank, local index); consumers of each msg id
    consumer: dict[int, tuple[int, int]] = {}
    counts = {}
    for r in ranks:
        cols = streams[r]
        counts[r] = len(cols["kinds"])
        for i, (code, mid) in enumerate(zip(cols["kinds"], cols["msgs"])):
            if mid >= 0 and code in (RECV, PROBE):
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

    def aligned_end(r: int, i: int) -> float:
        return streams[r]["ends"][i] - offsets[r] - epoch

    heap: list[tuple[float, int, int]] = []
    for r in ranks:
        if counts[r]:
            heappush(heap, (aligned_end(r, 0), r, 0))
    order: dict[tuple[int, int], int] = {}
    next_id = 0
    while heap:
        _, r, i = heappop(heap)
        order[(r, i)] = next_id
        next_id += 1
        for (r2, i2) in out_edges.get((r, i), ()):
            indeg[(r2, i2)] -= 1
            if indeg[(r2, i2)] == 0:
                heappush(heap, (aligned_end(r2, i2), r2, i2))
    if next_id != sum(counts.values()):  # pragma: no cover - defensive
        raise AssertionError(
            "measured event streams contain a causal cycle "
            f"({next_id} of {sum(counts.values())} nodes ordered)"
        )

    nodes: list[CausalNode] = [None] * next_id  # type: ignore[list-item]
    makespan = 0.0
    rank_makespan = 0.0
    for r in ranks:
        cols = streams[r]
        off = offsets[r] + epoch
        for i in range(counts[r]):
            t_start = cols["starts"][i] - off
            t_end = cols["ends"][i] - off
            if t_end < t_start:  # pragma: no cover - monotonic clocks
                t_end = t_start
            wait = min(max(cols["waits"][i], 0.0), t_end - t_start)
            mid = cols["msgs"][i]
            nodes[order[(r, i)]] = CausalNode(
                run=0,
                id=order[(r, i)],
                rank=r,
                kind=_KIND_NAMES[cols["kinds"][i]],
                t_start=t_start,
                t_end=t_end,
                wait=wait,
                msg=mid if mid >= 0 else None,
            )
            if t_end > makespan:
                makespan = t_end
        if counts[r]:
            dur = cols["ends"][-1] - cols["t0"]
            if dur > rank_makespan:
                rank_makespan = dur

    msgs: list[CausalMsg] = []
    for r in ranks:
        for mid, dest, tag, nwords in streams[r]["sends"]:
            rcv = consumer.get(mid)
            msgs.append(CausalMsg(
                run=0,
                id=mid,
                src=r,
                dst=dest,
                tag=tag,
                nwords=nwords,
                send_node=order[send_node_of[mid]],
                recv_node=order[rcv] if rcv is not None else None,
            ))
    msgs.sort(key=lambda m: m.id)

    spills = sorted(
        (t - offsets[r] - epoch, r, mid)
        for r in ranks
        for (t, mid) in streams[r]["spills"]
    )
    return MergedRun(
        nodes=nodes,
        msgs=msgs,
        makespan=makespan,
        rank_makespan=rank_makespan,
        start_spread=start_spread,
        epoch=epoch,
        spills=spills,
    )


def record_measured_run(tracer, streams, offsets, skews, *, nranks,
                        backend, waited, msgs_sent, msgs_recv,
                        words_sent, words_recv):
    """Merge per-rank streams and write the measured run into ``tracer``.

    The shared tail of every measured backend: :func:`merge_streams`,
    stamp a fresh run id, extend the tracer's causal record, emit the
    ``vm.run`` marker with ``clock="wall"`` (its ``skew`` attribute is
    the alignment error bound — recorder start spread plus twice the
    worst per-rank handshake uncertainty), append one
    :class:`ClockRecord` per rank, emit ``transport.spill`` events, and
    mirror the VM's per-rank traffic series with a ``clock="wall"``
    label.  Returns the merged ``(nodes, msgs)`` lists — shared with the
    tracer — so the backend's ``RunResult`` can carry them too.
    """
    merged = merge_streams(streams, offsets)
    run_id = tracer.next_causal_run()
    for n in merged.nodes:
        n.run = run_id
    for m in merged.msgs:
        m.run = run_id
    tracer.causal_nodes.extend(merged.nodes)
    tracer.causal_msgs.extend(merged.msgs)
    skew_bound = (
        merged.start_spread
        + 2.0 * max(skews.values(), default=0.0)
        + 1e-9
    )
    tracer.event(
        "vm.run",
        run=run_id,
        clock="wall",
        base=merged.epoch,
        makespan=merged.makespan,
        rank_makespan=merged.rank_makespan,
        skew=skew_bound,
        nranks=nranks,
        cycle=tracer.cycle,
        nodes=len(merged.nodes),
        msgs=len(merged.msgs),
        backend=backend,
    )
    for r in range(nranks):
        tracer.clock_records.append(ClockRecord(
            run=run_id, rank=r,
            offset=offsets.get(r, 0.0), skew=skews.get(r, 0.0),
        ))
    for t, r, mid in merged.spills:
        tracer.event(
            "transport.spill", rank=r,
            run=run_id, msg=mid, t=t, clock="wall",
        )
    # Mirror the VM's per-rank traffic series in measured form; the
    # clock="wall" label keeps them apart from the modelled samples.
    rank_busy = [0.0] * nranks
    for n in merged.nodes:
        rank_busy[n.rank] += n.t_end - n.t_start - n.wait
    per_rank_series = (
        ("repro.vm.messages_sent", msgs_sent),
        ("repro.vm.messages_recv", msgs_recv),
        ("repro.vm.words_sent", words_sent),
        ("repro.vm.words_recv", words_recv),
        ("repro.vm.busy_seconds", rank_busy),
        ("repro.vm.idle_seconds",
         [merged.makespan - b for b in rank_busy]),
        ("repro.vm.wait_seconds", waited),
    )
    for name, values in per_rank_series:
        for r in range(nranks):
            tracer.metric(
                name, values[r], kind="counter", rank=r, clock="wall",
            )
    return merged.nodes, merged.msgs


def format_clock_skew(tracer) -> str:
    """Phase-by-phase clock-alignment table for a trace's measured runs.

    One row per measured (``clock="wall"``) run: the phase it executed
    under, which backend ran it, the merged makespan, the worst per-rank
    own-clock duration, how far the wall critical path lands from that
    rank makespan, and the alignment bookkeeping — the run's skew bound
    plus the worst per-rank handshake offset and uncertainty from the
    trace's :class:`ClockRecord` rows.  Returns an empty string when the
    trace carries no measured runs.
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
    by_run: dict[int, list] = {}
    for c in tracer.clock_records:
        by_run.setdefault(c.run, []).append(c)
    lines = [
        "clock alignment per measured run:",
        f"  {'run':>4s}  {'phase':<16s} {'backend':<10s} "
        f"{'makespan s':>11s} {'rank max s':>11s} {'path-rank s':>12s} "
        f"{'skew bound s':>13s} {'max |offset|':>13s}",
    ]
    for run in runs:
        path = critical_path(run)
        rank_max = run.rank_makespan if run.rank_makespan is not None \
            else path.length
        delta = abs(path.length - rank_max)
        worst_offset = max(
            (abs(c.offset) for c in by_run.get(run.id, ())), default=0.0
        )
        lines.append(
            f"  {run.id:>4d}  {(run.phase or '-'):<16.16s} "
            f"{backends.get(run.id, '?'):<10.10s} "
            f"{run.makespan:>11.6f} {rank_max:>11.6f} {delta:>12.6f} "
            f"{run.skew:>13.6f} {worst_offset:>13.6f}"
        )
    return "\n".join(lines)
