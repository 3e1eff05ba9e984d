"""Deterministic event-driven runtime for SPMD rank programs.

A *rank program* is a generator function ``program(comm, ...)`` that yields
communication/computation operations (usually indirectly, through
``yield from comm.<op>(...)``).  The :class:`VirtualMachine` scheduler
advances per-rank virtual clocks under a :class:`~repro.parallel.machine.MachineModel`,
matches sends with receives, and reports the makespan and traffic of the run.

The model is a buffered postal model: ``send`` charges the sender the full
message time and completes immediately; ``recv`` blocks until a matching
message has arrived (arrival time = sender's clock when the send completed)
and charges the receiver a posting overhead.  Messages between a fixed
(source, dest, tag) triple are delivered in FIFO order, and scheduling
ties are broken by rank id, so runs are fully deterministic.

The scheduler (DESIGN.md §13) dispatches on each op class's ``_code``,
files the ready ranks in a calendar — the distinct ready clocks, each
with the ids of the ranks due at it — runs a rank for as long as it
stays the calendar's minimum, and records the happens-before
record into flat columns (:class:`_VMRecord`), materializing
:class:`~repro.obs.causal.CausalNode` /
:class:`~repro.obs.causal.CausalMsg` objects lazily.  A rank's mailbox
is a send-ordered list whose first match is the oldest (:func:`_take`).
The one-op-per-pop ``(clock, rank)`` tuple-heap scheduler it replaced,
with its minimum-``seq`` scanning mailbox and eager object record, is the
oracle in ``tests/kernels/oracles.py``; the two must agree bit for bit.
"""

from __future__ import annotations

import gc
import heapq
from collections import Counter
from typing import Any, Callable

import numpy as np

from .machine import MachineModel, SP2_1997

__all__ = ["VirtualMachine", "RunResult", "DeadlockError", "ANY"]

#: Wildcard for ``recv`` source/tag matching.
ANY = -1


class DeadlockError(RuntimeError):
    """Raised when no rank can make progress but some are still blocked.

    The message lists, per blocked rank, the pending ``recv(source, tag)``
    and a summary of the unmatched messages sitting in its mailbox; the
    same data is available programmatically as ``blocked`` —
    a list of ``(rank, (source, tag), [(source, tag, count), ...])``.

    When the run was traced (``trace=True`` or a tracer), ``chains`` maps
    each blocked rank to the longest completed causal chain ending at its
    last completed operation (a list of
    :class:`~repro.obs.causal.CausalNode`), and the message renders each
    chain so the report shows what every rank was doing — and which
    senders it depended on — when progress stopped.
    """

    def __init__(self, message: str, blocked: list | None = None,
                 chains: dict | None = None):
        super().__init__(message)
        self.blocked = blocked or []
        self.chains = chains or {}


# --- operation descriptors yielded by rank programs ------------------------


# The op descriptors are plain __slots__ classes rather than dataclasses:
# the scheduler creates one per simulated operation, and a hand-written
# __init__ constructs ~4x faster than a frozen dataclass's (no per-field
# object.__setattr__).  They are value carriers only — nothing hashes or
# compares them — so losing generated __eq__/__hash__ costs nothing.
#
# Each class carries its dispatch key as ``_code``, which doubles as the
# kind code the columnar record stores (an index into ``_CODE_KINDS``): in
# the hot loop a class attribute load beats a dict probe, and subclasses
# inherit it.  The codes are work 0, send 2, recv 3 (1 is unused): the
# recorded node columns, and the digests pinned on them, carry those
# numbers.

_WORK, _SEND, _RECV = 0, 2, 3
_CODE_KINDS = ("work", None, "send", "recv")


class SendOp:
    __slots__ = ("dest", "tag", "payload", "nwords")
    _code = _SEND

    def __init__(self, dest: int, tag: int, payload: Any, nwords: int):
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.nwords = nwords


class RecvOp:
    __slots__ = ("source", "tag")
    _code = _RECV

    def __init__(self, source: int, tag: int):
        self.source = source
        self.tag = tag


class WorkOp:
    __slots__ = ("units",)
    _code = _WORK

    def __init__(self, units: float):
        self.units = units


# --- the mailbox -------------------------------------------------------------
#
# A rank's unmatched messages are one plain list of tuples
# ``(seq, arrival, payload, nwords, source, tag)``, appended at send time,
# so list order is ``seq`` order and a receive takes the *first* entry
# whose source and tag match: the oldest matching message.


def _take(box: list, source: int, tag: int) -> tuple | None:
    """Remove and return the first entry of ``box`` whose source and tag
    match (``ANY`` matches all); None when there is none."""
    for i, m in enumerate(box):
        if (source == ANY or m[4] == source) and (tag == ANY or m[5] == tag):
            del box[i]
            return m
    return None


class _BlockedView:
    """One stuck rank for deadlock reporting, built from the scheduler's
    per-rank arrays."""

    __slots__ = ("rank", "blocked_on", "mailbox")

    def __init__(self, rank, blocked_on, mailbox):
        self.rank = rank
        self.blocked_on = blocked_on
        self.mailbox = mailbox


# --- columnar recording ------------------------------------------------------


class _VMRecord:
    """Columnar happens-before record of one VM run.

    The scheduler appends every operation into flat typed
    columns instead of allocating a ``CausalNode`` per op; the object
    views are materialized lazily (and memoized) only when
    :mod:`repro.obs.causal` or the exporters ask for them.

    Layout (one row per node / message, flat Python lists — a single
    ``list.extend`` per row is ~6x cheaper than a typed ``array`` extend,
    and the end-of-run accounting converts each column to numpy once):

    * ``nd`` (stride 6) — kind code, rank, msg id (``-1`` none),
      ``t_start``, ``t_end``, ``wait``
    * ``ms_i`` (stride 6) — src, dst, tag, nwords, send node,
      recv node (``-1`` unconsumed)
    """

    __slots__ = ("nd", "ms_i", "run", "_nodes", "_msgs")

    def __init__(self):
        self.nd: list = []
        self.ms_i: list = []
        self.run = -1  # assigned at end of run, like eager CausalNodes
        self._nodes = None
        self._msgs = None

    @property
    def nnodes(self) -> int:
        return len(self.nd) // 6

    def causal_nodes(self) -> list:
        """Materialize (and memoize) the ``CausalNode`` view."""
        if self._nodes is None:
            from repro.obs.causal import CausalNode

            nd, run = self.nd, self.run
            kinds = _CODE_KINDS
            out = []
            ap = out.append
            for i in range(len(nd) // 6):
                j = 6 * i
                mid = int(nd[j + 2])
                ap(CausalNode(run, i, int(nd[j + 1]), kinds[int(nd[j])],
                              nd[j + 3], nd[j + 4], nd[j + 5],
                              None if mid < 0 else mid))
            self._nodes = out
        return self._nodes

    def causal_msgs(self) -> list:
        """Materialize (and memoize) the ``CausalMsg`` view."""
        if self._msgs is None:
            from repro.obs.causal import CausalMsg

            ms_i, run = self.ms_i, self.run
            out = []
            ap = out.append
            for i in range(len(ms_i) // 6):
                j = 6 * i
                rn = ms_i[j + 5]
                ap(CausalMsg(run, i, ms_i[j], ms_i[j + 1], ms_i[j + 2],
                             ms_i[j + 3], ms_i[j + 4],
                             None if rn < 0 else rn))
            self._msgs = out
        return self._msgs


class RunResult:
    """Outcome of a :meth:`VirtualMachine.run` call.

    A traced run also keeps its happens-before record: the scheduler's
    columnar ``record``, or the object lists ``nodes`` / ``msgs`` of a
    result built directly (the real-execution backends, the tests'
    oracle scheduler).  The trace is where the product reads it.
    """

    __slots__ = (
        "returns", "clocks", "total_messages", "total_words",
        "words_sent_per_rank", "words_recv_per_rank", "msgs_sent_per_rank",
        "msgs_recv_per_rank", "busy_per_rank", "idle_per_rank",
        "wall_seconds", "backend", "transport",
        "_nodes", "_msgs", "_record",
    )

    def __init__(self, returns, clocks, total_messages, total_words,
                 words_sent_per_rank, words_recv_per_rank=None,
                 msgs_sent_per_rank=None, msgs_recv_per_rank=None,
                 busy_per_rank=None, idle_per_rank=None, nodes=None,
                 msgs=None, wall_seconds=None, backend="virtual",
                 record=None, transport=None):
        self.returns = returns
        self.clocks = clocks
        self.total_messages = total_messages
        self.total_words = total_words
        self.words_sent_per_rank = words_sent_per_rank
        self.words_recv_per_rank = (
            [] if words_recv_per_rank is None else words_recv_per_rank
        )
        self.msgs_sent_per_rank = (
            [] if msgs_sent_per_rank is None else msgs_sent_per_rank
        )
        self.msgs_recv_per_rank = (
            [] if msgs_recv_per_rank is None else msgs_recv_per_rank
        )
        self.busy_per_rank = [] if busy_per_rank is None else busy_per_rank
        self.idle_per_rank = [] if idle_per_rank is None else idle_per_rank
        #: Host wall-clock seconds the run took end to end (set by the
        #: communicator backends; None when the run was driven directly).
        self.wall_seconds = wall_seconds
        #: Name of the communicator backend that produced this result.
        self.backend = backend
        #: Aggregated wire-transport counters (``bytes_zero_copy``,
        #: ``bytes_pickled``, ``slab_reuse``, ...) when the backend ran a
        #: shared-memory transport; None otherwise.
        self.transport = transport
        self._nodes = nodes
        self._msgs = msgs
        self._record = record

    @property
    def makespan(self) -> float:
        """Completion time of the slowest rank, in this run's clock:
        modelled virtual seconds on the ``virtual`` backend, measured
        wall seconds on the real-execution backends."""
        return max(self.clocks) if self.clocks else 0.0


class VirtualMachine:
    """A virtual message-passing machine with ``nranks`` processors.

    With ``trace=True`` the scheduler records every send, receive and
    work operation as a causal node with its virtual start and end times,
    and every message as a causal msg (``RunResult.nodes`` / ``.msgs``;
    useful for debugging rank programs and visualising
    communication schedules).  With ``tracer`` set to a
    :class:`repro.obs.Tracer`, the same record is appended to the tracer
    under a fresh run id, after a ``vm.run`` marker event carrying the
    run's ``base`` offset into the trace timeline.  Per-rank traffic is
    additionally recorded as labelled
    metrics: ``repro.vm.messages_sent`` / ``messages_recv`` count
    payload-bearing messages only (zero-word synchronisation messages go
    to ``repro.vm.sync_messages`` so word and message totals stay
    comparable with the cost ledger), ``repro.vm.words_sent`` /
    ``words_recv`` count 8-byte words, and ``repro.vm.busy_seconds`` /
    ``idle_seconds`` split each rank's share of the makespan into working
    and blocked-waiting virtual time.
    """

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 trace: bool = False, tracer=None):
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        self.nranks = nranks
        self.machine = machine
        self.trace = trace
        self.tracer = tracer

    def run(self, program: Callable, *args, **kwargs) -> RunResult:
        """Run ``program(comm, *args, **kwargs)`` on every rank.

        ``program`` must be a generator function.  Per-rank arguments can be
        passed by giving a list/tuple of length ``nranks`` wrapped in
        :func:`per_rank`.
        """
        return self._run_fast(start_ranks(
            program, self.nranks, self.machine, args, kwargs,
            range(self.nranks),
        ))

    # --- scheduler ----------------------------------------------------------

    def _run_fast(self, gens: list) -> RunResult:
        """Batched, code-dispatched scheduler over per-rank arrays.

        Invariants shared with the oracle scheduler in
        ``tests/kernels/oracles.py`` (and why the results are
        bit-identical):

        * every live, runnable rank is filed exactly once in the ready
          calendar, under its clock: ``times`` holds each distinct ready
          clock once, ``buckets[t]`` the ids of the ranks due at ``t``.
          Equal floats share a bucket and leave it in ascending rank
          order, so popping ``buckets[times[0]]`` yields the oracle's
          lexicographic ``(clock, rank)`` order exactly;
        * after executing an op the current rank keeps running while
          ``(clock[r], r)`` is below the calendar's minimum — the order
          a file-then-pop would have produced (delivering a message never
          makes the receiver's clock earlier than the sender's, so the
          batch never overtakes a rank it just unblocked);
        * all clock arithmetic is the same float expressions, in the
          same order, as the oracle scheduler;
        * node id == append order, msg id == ``seq - 1``, and a consumed
          message's ``recv_node`` is the id of the recv node that
          popped it — identical to the eager record.
        """
        machine = self.machine
        nranks = self.nranks
        t_setup = machine.t_setup
        t_word = machine.t_word
        t_work = machine.t_work

        rec = _VMRecord() if (self.trace or self.tracer is not None) else None
        if rec is not None:
            nd_ext = rec.nd.extend
            msi_ext = rec.ms_i.extend
            ms_i = rec.ms_i
            # accounting side-channel, so the end-of-run totals never
            # have to convert the full node table to float64 inside the
            # run: flat (rank, wait) pairs for the nonzero recv waits, in
            # node order (zero waits add exactly +0.0 to a non-negative
            # sum, so skipping them is bit-identical); the integer recv
            # counters need no channel at all — a message's consumer is
            # always its ``dst`` rank, already in ``ms_i``
            wt: list = []
            wt_ext = wt.extend
        n_nodes = 0
        n_msgs = 0

        clocks = [0.0] * nranks
        waited = [0.0] * nranks
        words_sent = [0] * nranks
        msgs_sent = [0] * nranks
        words_recv = [0] * nranks
        msgs_recv = [0] * nranks
        data_sent = [0] * nranks
        data_recv = [0] * nranks
        retvals: list[Any] = [None] * nranks
        done = [False] * nranks
        blocked: list[RecvOp | None] = [None] * nranks
        send_values: list[Any] = [None] * nranks
        mailboxes: list[list[tuple]] = [[] for _ in range(nranks)]
        steps = [g.send for g in gens]

        heappush = heapq.heappush
        heappop = heapq.heappop
        # the ready calendar: ``times`` is a heap of the distinct clocks
        # of runnable ranks, ``buckets[t]`` a heap of the rank ids ready
        # at ``t`` (ascending rank ids form a valid heap)
        times: list[float] = [0.0]
        buckets: dict[float, list[int]] = {0.0: list(range(nranks))}
        seq = 0

        # Cyclic GC off for the duration of the loop: the scheduler's own
        # allocations are acyclic (typed columns, tuples), but at 10k+
        # ranks the rank generators and mailboxes make every full
        # collection an O(heap) scan, and the growing
        # record retriggers them throughout the run.  Restored on every
        # exit path, including validation errors raised from the loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while times:
                clock = times[0]
                due = buckets[clock]
                r = heappop(due)
                if not due:
                    del buckets[clock]
                    heappop(times)
                if done[r]:
                    continue
                c = clocks[r]
                if clock > c:
                    c = clock
                step = steps[r]
                sv = send_values[r]
                while True:
                    try:
                        op = step(sv)
                    except StopIteration as stop:
                        done[r] = True
                        retvals[r] = stop.value
                        clocks[r] = c
                        break
                    sv = None
                    try:
                        code = op._code
                    except AttributeError:
                        raise TypeError(
                            f"rank {r} yielded unknown op {op!r}"
                        ) from None
                    if code == _SEND:
                        dest = op.dest
                        if not 0 <= dest < nranks:
                            raise ValueError(
                                f"rank {r}: send to invalid rank {dest}"
                            )
                        nwords = op.nwords
                        if nwords < 0:
                            raise ValueError(f"negative message size: {nwords}")
                        t0 = c
                        c = c + (t_setup + t_word * nwords)
                        seq += 1
                        if rec is not None:
                            # msg id == seq - 1: both advance once per send
                            nd_ext((_SEND, r, n_msgs, t0, c, 0.0))
                            msi_ext((r, dest, op.tag, nwords, n_nodes, -1))
                            n_nodes += 1
                            n_msgs += 1
                        else:
                            words_sent[r] += nwords
                            msgs_sent[r] += 1
                            if nwords > 0:
                                data_sent[r] += 1
                        clocks[r] = c
                        tag = op.tag
                        bop = blocked[dest]
                        if bop is not None and (
                            bop.source == ANY or bop.source == r
                        ) and (bop.tag == ANY or bop.tag == tag):
                            # direct delivery to the blocked receiver: a
                            # rank blocks only when no matching message
                            # exists, and every later send checks the
                            # blocked op before posting, so while a rank
                            # is blocked its mailbox never holds a match.
                            # The message skips the mailbox entirely.
                            # Inlined rather than a closure: a helper
                            # capturing the loop's state would turn its
                            # hottest locals into cell variables.
                            blocked[dest] = None
                            t0d = clocks[dest]
                            cd = t0d + t_setup
                            dwait = c - cd
                            if dwait > 0.0:
                                cd = c
                            else:
                                dwait = 0.0
                            clocks[dest] = cd
                            if rec is not None:
                                mid = seq - 1
                                ms_i[6 * mid + 5] = n_nodes
                                nd_ext((_RECV, dest, mid, t0d, cd, dwait))
                                if dwait != 0.0:
                                    wt_ext((dest, dwait))
                                n_nodes += 1
                            else:
                                waited[dest] += dwait
                                words_recv[dest] += nwords
                                msgs_recv[dest] += 1
                                if nwords > 0:
                                    data_recv[dest] += 1
                            send_values[dest] = (op.payload, r, tag)
                            due = buckets.get(cd)
                            if due is None:
                                buckets[cd] = [dest]
                                heappush(times, cd)
                            else:
                                heappush(due, dest)
                        else:
                            mailboxes[dest].append(
                                (seq, c, op.payload, nwords, r, tag)
                            )
                    elif code == _RECV:
                        # inlined _take: the first match in send order (a
                        # recv has no arrival cap)
                        box = mailboxes[r]
                        src = op.source
                        rtag = op.tag
                        i = 0
                        for m in box:
                            if (src == ANY or m[4] == src) and (
                                rtag == ANY or m[5] == rtag
                            ):
                                break
                            i += 1
                        else:
                            blocked[r] = op
                            send_values[r] = None
                            clocks[r] = c
                            break  # not filed: woken by a matching send
                        del box[i]
                        mseq, arr, payload, nw, src, rtag = m
                        t0 = c
                        c = t0 + t_setup
                        wait = arr - c
                        if wait > 0.0:
                            c = arr
                        else:
                            wait = 0.0
                        if rec is not None:
                            mid = mseq - 1
                            ms_i[6 * mid + 5] = n_nodes
                            nd_ext((_RECV, r, mid, t0, c, wait))
                            if wait != 0.0:
                                wt_ext((r, wait))
                            n_nodes += 1
                        else:
                            waited[r] += wait
                            words_recv[r] += nw
                            msgs_recv[r] += 1
                            if nw > 0:
                                data_recv[r] += 1
                        sv = (payload, src, rtag)
                    else:  # _WORK
                        units = op.units
                        if units < 0:
                            raise ValueError(f"negative work: {units}")
                        t0 = c
                        c = c + t_work * units
                        if rec is not None:
                            nd_ext((_WORK, r, -1, t0, c, 0.0))
                            n_nodes += 1
                    # run-to-min batching: keep running this rank while
                    # ``(c, r)`` is still the minimum of the ready order
                    # (ties go to the lowest rank id, exactly as the
                    # oracle's ``(clock, rank)`` tuples).  When it falls
                    # behind, take the minimum first and then file this
                    # rank under ``c``: ``(c, r)`` is larger than the
                    # minimum, so the order of the two is safe.
                    if times:
                        clock = times[0]
                        if c > clock or (
                            c == clock and r > buckets[clock][0]
                        ):
                            clocks[r] = c
                            send_values[r] = sv
                            due = buckets[clock]
                            nr = heappop(due)
                            if not due:
                                del buckets[clock]
                                heappop(times)
                            due = buckets.get(c)
                            if due is None:
                                buckets[c] = [r]
                                heappush(times, c)
                            else:
                                heappush(due, r)
                            r = nr
                            if done[r]:
                                break  # stale entry: outer loop rescans
                            c = clocks[r]
                            if clock > c:
                                c = clock
                            step = steps[r]
                            sv = send_values[r]

        finally:
            if gc_was_enabled:
                gc.enable()

        stuck = [
            _BlockedView(d, blocked[d], mailboxes[d])
            for d in range(nranks) if not done[d]
        ]
        if stuck:
            self._raise_deadlock(
                stuck,
                rec.causal_nodes() if rec is not None else None,
                rec.causal_msgs() if rec is not None else None,
            )

        if rec is not None:
            # Vectorized accounting: when recording, the loop above skips
            # the per-op counter updates entirely and every total is
            # recovered here from the message table and the small ``wt``
            # side-channel, so the full node table is never converted to
            # float64 inside the run.
            # np.bincount adds its weights in element (= node) order, the
            # same order the oracle scheduler's per-rank ``+=`` sees, so
            # the float ``waited`` sums are bit-identical (the skipped
            # zero waits would each have added exactly +0.0).
            if wt:
                wt_a = np.asarray(wt, dtype=np.float64).reshape(-1, 2)
                waited = np.bincount(
                    wt_a[:, 0].astype(np.intp), weights=wt_a[:, 1],
                    minlength=nranks,
                ).tolist()
            if n_msgs:
                ms_a = np.asarray(rec.ms_i, dtype=np.int64).reshape(-1, 6)
                src = ms_a[:, 0]
                mnw = ms_a[:, 3]
                words_sent = np.bincount(
                    src, weights=mnw, minlength=nranks
                ).astype(np.int64).tolist()
                msgs_sent = np.bincount(src, minlength=nranks).tolist()
                data_sent = np.bincount(
                    src[mnw > 0], minlength=nranks
                ).tolist()
                # consumers: a consumed message (recv node assigned) was
                # received by its ``dst`` rank; these counters are integer
                # sums, so accumulation order is irrelevant
                rmask = ms_a[:, 5] >= 0
                rr = ms_a[:, 1][rmask]
                rnw = mnw[rmask]
                words_recv = np.bincount(
                    rr, weights=rnw, minlength=nranks
                ).astype(np.int64).tolist()
                msgs_recv = np.bincount(rr, minlength=nranks).tolist()
                data_recv = np.bincount(
                    rr[rnw > 0], minlength=nranks
                ).tolist()

        makespan = max(clocks)
        busy_a = np.asarray(clocks) - np.asarray(waited)
        busy = busy_a.tolist()
        idle = (makespan - busy_a).tolist()
        total_messages = sum(msgs_sent)
        total_words = sum(words_sent)

        tracer = self.tracer
        if rec is not None:
            rec.run = tracer.next_causal_run() if tracer is not None else 0
        if tracer is not None and rec is not None:
            base = tracer.virtual_now
            tracer.event(
                "vm.run", v_time=base, run=rec.run, base=base,
                makespan=makespan, nranks=nranks,
                cycle=tracer.cycle, nodes=n_nodes, msgs=n_msgs,
            )
            tracer.add_vm_chunk(rec)
            mpr = tracer.metric_per_rank
            mpr("repro.vm.messages_sent", data_sent)
            mpr("repro.vm.messages_recv", data_recv)
            mpr("repro.vm.sync_messages",
                [m - d for m, d in zip(msgs_sent, data_sent)])
            mpr("repro.vm.words_sent", words_sent)
            mpr("repro.vm.words_recv", words_recv)
            mpr("repro.vm.busy_seconds", busy)
            mpr("repro.vm.idle_seconds", idle)

        return RunResult(
            returns=retvals,
            clocks=clocks,
            total_messages=total_messages,
            total_words=total_words,
            words_sent_per_rank=words_sent,
            words_recv_per_rank=words_recv,
            msgs_sent_per_rank=msgs_sent,
            msgs_recv_per_rank=msgs_recv,
            busy_per_rank=busy,
            idle_per_rank=idle,
            record=rec,
        )

    # --- deadlock report -----------------------------------------------------

    def _raise_deadlock(self, stuck: list, nodes: list | None,
                        msgs_rec: list | None):
        message = (
            f"ranks {[s.rank for s in stuck]} are blocked on receives "
            "that never arrive:\n" + "\n".join(_blocked_line(s) for s in stuck)
        )
        chains = None
        if nodes is not None:
            chains = _deadlock_chains(stuck, nodes, msgs_rec)
            if chains:
                message += "\nlast completed causal chain per blocked rank:"
                for rank in sorted(chains):
                    message += f"\n  rank {rank}: {chains[rank][1]}"
        else:
            message += (
                "\n(run with trace=True or a tracer to see each rank's "
                "last completed causal chain)"
            )
        raise DeadlockError(
            message,
            blocked=[_blocked_record(s) for s in stuck],
            chains={r: c for r, (c, _) in (chains or {}).items()},
        )


def _deadlock_chains(stuck: list, nodes: list, msgs_rec: list) -> dict:
    """Per blocked rank: (causal chain to its last completed node, text)."""
    from repro.obs.causal import chain_of, format_chain

    last_by_rank: dict[int, Any] = {}
    for n in nodes:
        last_by_rank[n.rank] = n  # nodes are in creation order
    chains = {}
    for st in stuck:
        start = last_by_rank.get(st.rank)
        if start is None:
            chains[st.rank] = ([], "(no completed operations)")
            continue
        chain = chain_of(nodes, msgs_rec, start)
        chains[st.rank] = (chain, format_chain(chain, msgs_rec))
    return chains


def _fmt_match(value: int) -> str:
    return "ANY" if value == ANY else str(value)


def _census(box) -> list[tuple[int, int, int]]:
    """A mailbox's unmatched messages as sorted ``(source, tag, count)``
    triples — the deadlock report of every backend."""
    counts = Counter((m[4], m[5]) for m in box)
    return [(src, tag, n) for (src, tag), n in sorted(counts.items())]


def _census_text(box) -> str:
    """:func:`_census` as ``(source=s, tag=t)×n, ...``; empty when empty."""
    return ", ".join(f"(source={s}, tag={t})×{n}" for s, t, n in _census(box))


def _blocked_record(st) -> tuple:
    op = st.blocked_on
    pending = (op.source, op.tag) if op is not None else None
    return (st.rank, pending, _census(st.mailbox))


def _blocked_line(st) -> str:
    op = st.blocked_on
    pending = (
        f"recv(source={_fmt_match(op.source)}, tag={_fmt_match(op.tag)})"
        if op is not None
        else "no pending receive"
    )
    listing = _census_text(st.mailbox)
    if listing:
        mailbox = f"mailbox holds {len(st.mailbox)} unmatched: {listing}"
    else:
        mailbox = "mailbox empty"
    return f"  rank {st.rank}: waiting on {pending}; {mailbox}"


class per_rank:
    """Wrapper marking an argument as per-rank in :meth:`VirtualMachine.run`.

    ``vm.run(prog, per_rank([a0, a1, ...]))`` passes ``a_r`` to rank ``r``.
    """

    def __init__(self, values):
        self.values = list(values)


def start_ranks(program: Callable, nranks: int, machine: MachineModel,
                args: tuple, kwargs: dict, ranks) -> list:
    """The generators of ``ranks``: ``program(comm, *args, **kwargs)``
    with each :class:`per_rank` argument sliced to the rank.

    Every backend starts its ranks here.  Each ``per_rank`` argument must
    carry exactly ``nranks`` values, checked before any rank is built
    (empty ``ranks`` checks only that), and the program must be a
    generator function.
    """
    from .simcomm import Comm

    for v in (*args, *kwargs.values()):
        if isinstance(v, per_rank) and len(v.values) != nranks:
            raise ValueError(
                f"per_rank argument carries {len(v.values)} values "
                f"but the machine has {nranks} ranks"
            )
    gens = []
    for r in ranks:
        a = [x.values[r] if isinstance(x, per_rank) else x for x in args]
        kw = {
            k: (v.values[r] if isinstance(v, per_rank) else v)
            for k, v in kwargs.items()
        }
        gen = program(Comm(r, nranks, machine), *a, **kw)
        if not hasattr(gen, "send"):
            raise TypeError(
                "rank program must be a generator function "
                f"(got {type(gen).__name__} from {program!r})"
            )
        gens.append(gen)
    return gens
