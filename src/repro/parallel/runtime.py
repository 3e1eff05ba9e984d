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
stays the calendar's minimum, and appends the happens-before record as
flat rows of what it cannot derive
(:class:`~repro.obs.causal.CausalRecord`), the slots the trace file
stores as columns.  A rank's mailbox
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

from repro.obs.causal import RECV, SEND, WORK, CausalRecord

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
# kind code the causal record stores (``repro.obs.causal.KIND_CODES``): in
# the hot loop a class attribute load beats a dict probe, and subclasses
# inherit it.  The codes are work 0, send 2, recv 3 (1 is unused): the
# recorded node columns, the trace file, and the digests pinned on them
# carry those numbers.


class SendOp:
    __slots__ = ("dest", "tag", "payload", "nwords")
    _code = SEND

    def __init__(self, dest: int, tag: int, payload: Any, nwords: int):
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.nwords = nwords


class RecvOp:
    __slots__ = ("source", "tag")
    _code = RECV

    def __init__(self, source: int, tag: int):
        self.source = source
        self.tag = tag


class WorkOp:
    __slots__ = ("units",)
    _code = WORK

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


class RunResult:
    """Outcome of a :meth:`VirtualMachine.run` call.

    A traced run also keeps its happens-before ``record``
    (:class:`~repro.obs.causal.CausalRecord`), the one its tracer holds:
    the run's one per-rank record of sends, receives and waits
    (:func:`~repro.obs.causal.rank_stats` reads it).
    """

    __slots__ = (
        "returns", "clocks", "total_messages", "total_words",
        "wall_seconds", "backend", "transport", "_record",
    )

    def __init__(self, returns, clocks, total_messages, total_words,
                 wall_seconds=None, backend="virtual", record=None,
                 transport=None):
        self.returns = returns
        self.clocks = clocks
        self.total_messages = total_messages
        self.total_words = total_words
        #: Host wall-clock seconds the run took end to end (set by the
        #: communicator backends; None when the run was driven directly).
        self.wall_seconds = wall_seconds
        #: Name of the communicator backend that produced this result.
        self.backend = backend
        #: Aggregated wire-transport counters (``bytes_zero_copy``,
        #: ``bytes_pickled``, ``slab_reuse``, ...) when the backend ran a
        #: shared-memory transport; None otherwise.
        self.transport = transport
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
    work operation as a causal node with its virtual end time, and every
    message as a causal msg (:class:`~repro.obs.causal.CausalRecord`;
    useful for debugging rank programs and visualising
    communication schedules).  With ``tracer`` set to a
    :class:`repro.obs.Tracer`, the same record is appended to the tracer
    under a fresh run id, after a ``vm.run`` marker event carrying the
    run's ``base`` offset into the trace timeline.  That record is the
    run's only per-rank account of its traffic and waits
    (:func:`~repro.obs.causal.rank_stats`); the scheduler itself counts
    just the run's total messages and words.
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
          lexicographic ``(clock, rank)`` order exactly.  A rank is
          filed, and popped, at its own clock, which only its own ops
          move, so each op starts where the rank's previous op ended;
        * after executing an op the current rank keeps running while
          ``(clock[r], r)`` is below the calendar's minimum — the order
          a file-then-pop would have produced (delivering a message never
          makes the receiver's clock earlier than the sender's, so the
          batch never overtakes a rank it just unblocked);
        * all clock arithmetic is the same float expressions, in the
          same order, as the oracle scheduler;
        * node id == append order, msg id == ``seq - 1`` == the send's
          rank among the send rows, and a recv row keeps the ``seq`` it
          consumed — so :class:`~repro.obs.causal.CausalRecord` derives
          the eager record's ``t_start``, ``wait``, message ids and
          send / recv nodes;
        * traced and untraced runs count the run's total words and
          messages by the same inline ``+=``; per-rank traffic and waits
          are the record's to derive.
        """
        machine = self.machine
        nranks = self.nranks
        t_setup = machine.t_setup
        t_word = machine.t_word
        t_work = machine.t_work

        rec = (CausalRecord(t_setup)
               if (self.trace or self.tracer is not None) else None)
        if rec is not None:
            nd_ext = rec.rows.extend
            msi_ext = rec.msg_rows.extend

        clocks = [0.0] * nranks
        total_words = 0
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
        # allocations are acyclic (row lists, tuples), but at 10k+
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
                    if code == SEND:
                        dest = op.dest
                        if not 0 <= dest < nranks:
                            raise ValueError(
                                f"rank {r}: send to invalid rank {dest}"
                            )
                        nwords = op.nwords
                        if nwords < 0:
                            raise ValueError(f"negative message size: {nwords}")
                        c = c + (t_setup + t_word * nwords)
                        seq += 1
                        total_words += nwords
                        tag = op.tag
                        if rec is not None:
                            nd_ext((SEND, r, -1, c))
                            msi_ext((dest, tag, nwords))
                        clocks[r] = c
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
                            cd = clocks[dest] + t_setup
                            if c > cd:
                                cd = c
                            clocks[dest] = cd
                            if rec is not None:
                                nd_ext((RECV, dest, seq, cd))
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
                    elif code == RECV:
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
                        mseq, arr, payload, _nw, src, rtag = m
                        c = c + t_setup
                        if arr > c:
                            c = arr
                        if rec is not None:
                            nd_ext((RECV, r, mseq, c))
                        sv = (payload, src, rtag)
                    else:  # WORK
                        units = op.units
                        if units < 0:
                            raise ValueError(f"negative work: {units}")
                        c = c + t_work * units
                        if rec is not None:
                            nd_ext((WORK, r, -1, c))
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
                stuck, *(rec.objects() if rec is not None else (None, None))
            )

        makespan = max(clocks)
        total_messages = seq

        tracer = self.tracer
        if rec is not None:
            rec.run = tracer.next_causal_run() if tracer is not None else 0
        if tracer is not None and rec is not None:
            base = tracer.virtual_now
            tracer.event(
                "vm.run", v_time=base, run=rec.run, base=base,
                makespan=makespan, nranks=nranks,
                cycle=tracer.cycle, nodes=rec.nnodes,
                msgs=total_messages,
            )
            tracer.causal_records.append(rec)

        return RunResult(
            returns=retvals,
            clocks=clocks,
            total_messages=total_messages,
            total_words=total_words,
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
