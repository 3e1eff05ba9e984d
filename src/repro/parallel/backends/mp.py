"""One-process-per-rank backend over ``multiprocessing`` queues, and the
rank driver every real backend shares.

Each rank runs in its own forked OS process and drives the *same*
generator rank program the virtual machine runs.  :func:`_drive` is the
one driver loop for real execution: ``SendOp`` puts the payload on the
destination rank's inbox, one fork-inherited ``multiprocessing`` queue
per rank, and ``RecvOp`` drains the rank's own inbox into a local
mailbox list matched by :func:`~repro.parallel.runtime._take`, the
virtual machine's own rule — ``ANY`` wildcards, oldest match first.
``WorkOp`` costs nothing: the *real* Python work the program does between
yields is what the measured clocks capture.  Ranks start through
:func:`~repro.parallel.runtime.start_ranks`, as on the virtual machine,
and the driver rejects negative work and word counts as the VM does.

``multiprocessing`` and ``shm`` share this driver; ``shm`` contributes
only a payload codec (:meth:`MultiprocessingBackend._make_transport`).
Op dispatch, mailbox matching, the rearming receive timeout that stands
in for deadlock detection (real transports cannot scan a global wait
graph), wait accounting, recorder notes, the per-rank stats and their
assembly into a :class:`~repro.parallel.runtime.RunResult`
(:func:`_assemble`) exist once, in this module.

The ``fork`` start method is required (and requested explicitly): rank
programs are closures over mesh data, which fork inherits by memory image
instead of pickling.  Message payloads do cross process boundaries and
must pickle — true of every payload type this library sends.  Scheduling
is the OS's, so arrival interleaving across sources is nondeterministic;
programs whose results depend only on mailbox matching (all of this
library's) return the payloads ``virtual`` returns, which the
conformance suite pins.  Clocks in the result are measured host wall
seconds per rank, with ``waited`` (blocked on an empty inbox) kept apart
so busy/idle splits stay meaningful.

A run reports through its tracer and nothing else.  With one attached,
each rank keeps a columnar :class:`~repro.obs.wallclock.WallRecorder` of
its sends/recvs and the work gaps between them, and reads its
process's peak RSS, CPU seconds and GC collections once, at the end
(:func:`~repro.obs.resource.read_resources`).  The ranks are forked on
the parent's host and read its system-wide monotonic ``perf_counter``,
and start their clocks together, at a barrier the last rank to arrive
releases, so their streams merge unshifted into the trace as a ``vm.run`` with
``clock="wall"``, beside ``repro.resource.*`` gauges per rank —
``repro critical-path`` / ``report`` / ``diff`` then read measured runs
exactly as modelled ones.  Without a tracer none of that runs.
"""

from __future__ import annotations

import queue
import time
import traceback

from ..machine import SP2_1997, MachineModel
from ..runtime import (
    DeadlockError,
    RecvOp,
    RunResult,
    SendOp,
    WorkOp,
    _census_text,
    _fmt_match,
    _take,
    start_ranks,
)

__all__ = ["MultiprocessingBackend"]

#: Default seconds a rank may block on one receive before the run is
#: declared deadlocked (real transports cannot scan a global wait graph).
DEFAULT_TIMEOUT = 60.0

#: Extra seconds (beyond ``timeout``) the parent waits for rank processes
#: to report back before declaring them hung.
GRACE = 30.0


class MultiprocessingBackend:
    """Run rank programs on real cores, one forked process per rank."""

    name = "multiprocessing"
    measured = True

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 timeout: float = DEFAULT_TIMEOUT, tracer=None, **_ignored):
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the multiprocessing backend needs the 'fork' start method "
                "(rank programs are closures and cannot be pickled)"
            )
        self.nranks = nranks
        self.machine = machine
        self.timeout = timeout
        #: With a tracer the run records its measured causal trace and
        #: per-rank resource readings; without one it records nothing.
        self.tracer = tracer

    def _make_transport(self, ctx):
        """Hook for subclasses: build the per-run wire transport (parent
        side, before forking).  None means payloads pickle through the
        queues unchanged."""
        return None

    def run(self, program, *args, **kwargs) -> RunResult:
        """Run ``program(comm, *args, **kwargs)`` on every rank.

        Accepts :class:`~repro.parallel.runtime.per_rank` wrappers exactly
        like :meth:`VirtualMachine.run`.  Raises
        :class:`~repro.parallel.runtime.DeadlockError` when any rank's
        receive times out, and ``RuntimeError`` when a rank process dies.
        """
        import multiprocessing

        # the per_rank length check, in the parent before any fork
        start_ranks(program, self.nranks, self.machine, args, kwargs, ())
        ctx = multiprocessing.get_context("fork")
        transport = self._make_transport(ctx)
        inboxes = [ctx.Queue() for _ in range(self.nranks)]
        result_q = ctx.Queue()
        # every rank starts its clock when the last one reaches this
        # barrier, so the fork stagger is not the run's skew
        go = ctx.Barrier(self.nranks)

        procs = []
        results: dict[int, tuple] = {}
        t0 = time.perf_counter()
        try:
            for r in range(self.nranks):
                p = ctx.Process(
                    target=_rank_worker,
                    args=(r, self.nranks, self.machine, program, args,
                          kwargs, inboxes, result_q, self.timeout,
                          transport, self.tracer is not None, go),
                    daemon=True,
                )
                p.start()
                procs.append(p)
            deadline = time.perf_counter() + self.timeout + GRACE
            while len(results) < self.nranks:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise RuntimeError(
                        f"{self.name} backend: ranks "
                        f"{sorted(set(range(self.nranks)) - set(results))} "
                        f"did not report back within timeout + grace "
                        f"({self.timeout:g}s + {GRACE:g}s)"
                    )
                try:
                    record = result_q.get(timeout=min(remaining, 1.0))
                except Exception:
                    dead = [r for r, p in enumerate(procs)
                            if not p.is_alive() and r not in results]
                    if dead:
                        raise RuntimeError(
                            f"{self.name} backend: rank processes {dead} "
                            "died without reporting a result"
                        ) from None
                    continue
                if record[0] == "error":
                    # first rank failure: take the survivors down *now*
                    # rather than letting them block out their own
                    # receive timeouts (the finally would get there, but
                    # only after any queue teardown in between)
                    for p in procs:
                        if p.is_alive():
                            p.terminate()
                    _rank, kind, text = record[1], record[2], record[3]
                    if kind == "deadlock":
                        raise DeadlockError(text)
                    raise RuntimeError(
                        f"rank {_rank} failed on the {self.name} "
                        f"backend:\n{text}"
                    )
                results[record[1]] = record[2:]
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5.0)
            for q in inboxes:
                q.close()
                q.cancel_join_thread()
            if transport is not None:
                transport.dispose()
        wall = time.perf_counter() - t0
        return _assemble(
            self.name, self.tracer, [results[r] for r in range(self.nranks)],
            wall, transport,
        )


def _assemble(backend, tracer, results, wall, transport) -> RunResult:
    """Fold every rank's ``(retval, stats)`` from :func:`_drive` into the
    run's :class:`RunResult` and, given a tracer, into the trace.

    ``results`` is indexed by rank; every rank reported, so a traced run
    always records its measured causal run.
    """
    nranks = len(results)
    stats = [s for _retval, s in results]
    clocks = [s["wall"] for s in stats]
    waited = [s["waited"] for s in stats]
    words_s = [s["words_sent"] for s in stats]
    msgs_s = [s["msgs_sent"] for s in stats]
    words_r = [s["words_recv"] for s in stats]
    msgs_r = [s["msgs_recv"] for s in stats]
    makespan = max(clocks)
    busy = [c - w for c, w in zip(clocks, waited)]
    transport_totals = None
    if transport is not None:
        transport_totals = {}
        for s in stats:
            for k, v in s["transport"].items():
                transport_totals[k] = transport_totals.get(k, 0) + v
        transport.note_run_totals(transport_totals)
    record = None
    if tracer is not None:
        from ...obs.resource import record_resources
        from ...obs.wallclock import record_measured_run

        for r in range(nranks):
            tracer.metric(
                "repro.backend.rank_wall_seconds", clocks[r],
                kind="counter", rank=r, backend=backend,
            )
            record_resources(tracer, stats[r]["res"], r, backend)
        for key, total in (transport_totals or {}).items():
            tracer.metric(f"repro.transport.{key}", total,
                          kind="counter", backend=backend)
            for r in range(nranks):
                tracer.metric(
                    f"repro.transport.{key}", stats[r]["transport"][key],
                    kind="counter", rank=r, backend=backend,
                )
        record = record_measured_run(
            tracer, {r: s["rec"] for r, s in enumerate(stats)},
            nranks=nranks, backend=backend,
            waited=waited, msgs_sent=msgs_s, msgs_recv=msgs_r,
            words_sent=words_s, words_recv=words_r,
        )
    return RunResult(
        returns=[retval for retval, _stats in results],
        clocks=clocks,
        total_messages=sum(msgs_s),
        total_words=sum(words_s),
        words_sent_per_rank=words_s,
        words_recv_per_rank=words_r,
        msgs_sent_per_rank=msgs_s,
        msgs_recv_per_rank=msgs_r,
        busy_per_rank=busy,
        idle_per_rank=[makespan - b for b in busy],
        wall_seconds=wall,
        backend=backend,
        transport=transport_totals,
        record=record,
    )


def _rank_worker(rank, size, machine, program, args, kwargs, inboxes,
                 result_q, timeout, transport, record, go):
    """Child-process entry: drive one rank's generator over the inboxes."""
    try:
        retval, stats = _drive(rank, size, machine, program, args, kwargs,
                               inboxes, timeout, transport, record, go)
        result_q.put(("ok", rank, retval, stats))
    except _RecvTimeout as exc:
        result_q.put(("error", rank, "deadlock", str(exc)))
    except BaseException:
        result_q.put(("error", rank, "exception", traceback.format_exc()))


class _RecvTimeout(RuntimeError):
    pass


def _drive(rank, size, machine, program, args, kwargs, inboxes, timeout,
           transport, record, go):
    """Run one rank's program to completion over the per-rank ``inboxes``.

    ``args``/``kwargs`` are the run's, ``per_rank`` wrappers included;
    :func:`~repro.parallel.runtime.start_ranks` takes this rank's slice.
    Inbox items are ``(source, tag, payload, nwords, msg_id)`` with
    ``msg_id`` -1 on unrecorded runs.
    The driver owns the receive timeout: a blocked receive waits on its
    inbox in slices of at most a second, rearms on every arrival, and
    raises :class:`_RecvTimeout` once ``timeout`` seconds pass with
    none.  With ``record`` the rank keeps a ``WallRecorder`` and reads
    its resources at the start and the end; the recorder's columns and
    the closing reading ride back in the stats dict.  The clock starts
    once every rank has reached the ``go`` barrier, so the ranks start
    together rather than one fork (and one set-up) apart.
    Returns ``(retval, stats)``.
    """
    [gen] = start_ranks(program, size, machine, args, kwargs, (rank,))
    inbox = inboxes[rank]

    # the virtual machine's mailbox layout, in arrival order; the first
    # slot holds the message id (the VM keeps its send sequence there)
    mailbox: list[tuple] = []
    waited = 0.0
    words_sent = msgs_sent = words_recv = msgs_recv = 0
    if transport is not None:
        # map shared pages into this rank before the clock starts
        transport.warmup()
    rec = None
    if record:
        # The opening resource reading is only the GC count the closing
        # one subtracts.
        from ...obs.resource import read_resources
        from ...obs.wallclock import RECV, WallRecorder

        rec = WallRecorder()
        res0 = read_resources(None)
    clock = time.perf_counter
    go.wait()
    t0 = clock()
    if rec is not None:
        rec.start(t0)

    def deliver(item):
        src, tag, payload, nwords, mid = item
        mailbox.append((mid, 0.0, payload, nwords, src, tag))

    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            retval = stop.value
            break
        value = None
        if isinstance(op, SendOp):
            if not 0 <= op.dest < size:
                raise ValueError(f"rank {rank}: send to invalid rank {op.dest}")
            if op.nwords < 0:
                raise ValueError(f"negative message size: {op.nwords}")
            payload, mid = op.payload, -1
            if rec is not None:
                ts = clock()
                mid = msgs_sent * size + rank  # globally unique msg id
            if transport is not None:
                spills0 = transport.counters["spills"]
                payload = transport.encode(payload, op.nwords)
                if rec is not None and transport.counters["spills"] > spills0:
                    rec.note_spill(ts, mid)
            inboxes[op.dest].put((rank, op.tag, payload, op.nwords, mid))
            if rec is not None:
                rec.note_send(mid, op.dest, op.tag, op.nwords, ts, clock())
            words_sent += op.nwords
            msgs_sent += 1
        elif isinstance(op, RecvOp):
            ts = clock()
            this_wait = 0.0
            try:
                while True:
                    deliver(inbox.get_nowait())
            except queue.Empty:
                pass
            msg = _take(mailbox, op.source, op.tag)
            give_up = ts + timeout
            while msg is None:
                w0 = clock()
                if w0 >= give_up:
                    raise _RecvTimeout(_timeout_text(rank, op, mailbox, timeout))
                try:
                    item = inbox.get(timeout=min(give_up - w0, 1.0))
                except queue.Empty:
                    item = None
                w1 = clock()
                this_wait += w1 - w0  # each blocked interval is timed once
                if item is None:
                    continue
                give_up = w1 + timeout  # progress: rearm
                deliver(item)
                msg = _take(mailbox, op.source, op.tag)
            waited += this_wait
            mid, _arrival, payload, nwords, src, tag = msg
            words_recv += nwords
            msgs_recv += 1
            if transport is not None:
                payload = transport.decode(payload)
            value = (payload, src, tag)
            if rec is not None:
                rec.note_op(RECV, ts, clock(), this_wait, mid)
        elif isinstance(op, WorkOp):
            # modelled time only; the measured clock runs on its own
            if op.units < 0:
                raise ValueError(f"negative work: {op.units}")
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    t_end = clock()
    stats = {
        "wall": t_end - t0,
        "waited": waited,
        "words_sent": words_sent,
        "msgs_sent": msgs_sent,
        "words_recv": words_recv,
        "msgs_recv": msgs_recv,
    }
    if transport is not None:
        stats["transport"] = dict(transport.counters)
    if rec is not None:
        stats["res"] = read_resources(res0)
        rec.finish(t_end)
        stats["rec"] = rec.columns()
    return retval, stats


def _timeout_text(rank, op, mailbox, timeout):
    return (
        f"rank {rank}: recv(source={_fmt_match(op.source)}, "
        f"tag={_fmt_match(op.tag)}) got no matching message within "
        f"{timeout:.0f}s (likely deadlock); unmatched mailbox: "
        f"{_census_text(mailbox) or 'empty'}"
    )
