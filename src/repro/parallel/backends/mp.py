"""One-process-per-rank backend over ``multiprocessing`` queues, and the
rank driver every real backend shares.

Each rank runs in its own forked OS process and drives the *same*
generator rank program the virtual machine runs.  :func:`_drive` is the
one driver loop for real execution: ``SendOp`` puts the payload on the
destination rank's *wire*, ``RecvOp`` / ``ProbeOp`` drain the wire into a
local mailbox list matched by :func:`~repro.parallel.runtime._take`, the
virtual machine's own rule — ``ANY`` wildcards, oldest match first.
``WorkOp`` / ``ElapseOp``
cost nothing: the *real* Python work the program does between yields is
what the measured clocks capture.

A wire is three operations — ``put(dest, item)``, ``take_nowait()`` and
``take(timeout)`` (both return ``None`` when nothing arrived) — and is all
a transport contributes: :class:`_QueueWire` here (``multiprocessing`` and
``shm``), ``mpi._MPIWire`` over ``mpi4py``.  Op dispatch, mailbox
matching, the rearming receive timeout that stands in for deadlock
detection (real transports cannot scan a global wait graph), wait
accounting, recorder notes, the per-rank stats and their assembly into a
:class:`~repro.parallel.runtime.RunResult` (:func:`_assemble`) exist
once, in this module.

The ``fork`` start method is required (and requested explicitly): rank
programs are closures over mesh data, which fork inherits by memory image
instead of pickling.  Message payloads do cross process boundaries and
must pickle — true of every payload type this library sends.  Scheduling
is the OS's, so arrival interleaving across sources is nondeterministic;
programs whose results depend only on mailbox matching (all of this
library's) return the payloads ``virtual`` returns, which the
conformance suite pins.  Clocks in the result are measured host wall
seconds per rank, with ``waited`` (blocked on an empty wire) kept apart
so busy/idle splits stay meaningful.

A run reports through its tracer and nothing else.  With one attached,
each rank keeps a columnar :class:`~repro.obs.wallclock.WallRecorder` of
its sends/recvs/probes and the work gaps between them, and samples its
process's RSS/CPU/GC (:class:`~repro.obs.resource.ResourceSampler`); the
parent estimates every child's clock offset with a pipe handshake run
*after* the program (offsets are constants of the monotonic clocks, so
tracing never delays the start of work), and the streams merge into the
trace as a ``vm.run`` with ``clock="wall"`` plus ``resource`` records —
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
    ElapseOp,
    ProbeOp,
    RecvOp,
    RunResult,
    SendOp,
    WorkOp,
    _census_text,
    _fmt_match,
    _take,
    per_rank,
)

__all__ = ["MultiprocessingBackend"]

#: Default seconds a rank may block on one receive before the run is
#: declared deadlocked (real transports cannot scan a global wait graph).
DEFAULT_TIMEOUT = 60.0

#: Default extra seconds (beyond ``timeout``) the parent waits for rank
#: processes to report back before declaring them hung.
DEFAULT_GRACE = 30.0


class MultiprocessingBackend:
    """Run rank programs on real cores, one forked process per rank."""

    name = "multiprocessing"
    #: Payloads are reproducible; clocks and cross-source arrival order
    #: are not (they are measured, not modelled).
    deterministic = False
    measured = True

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 timeout: float = DEFAULT_TIMEOUT,
                 grace: float = DEFAULT_GRACE, tracer=None, **_ignored):
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        if grace < 0:
            raise ValueError(f"grace period must be >= 0, got {grace}")
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the multiprocessing backend needs the 'fork' start method "
                "(rank programs are closures and cannot be pickled)"
            )
        self.nranks = nranks
        self.machine = machine
        self.timeout = timeout
        self.grace = float(grace)
        #: With a tracer the run records its measured causal trace and
        #: per-rank resource samples; without one it records nothing.
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

        ctx = multiprocessing.get_context("fork")
        transport = self._make_transport(ctx)
        inboxes = [ctx.Queue() for _ in range(self.nranks)]
        result_q = ctx.Queue()

        # Measured tracing: one clock-handshake pipe per rank.  The
        # handshake runs after each child's program finishes, so tracing
        # never delays the start of work — the merge aligns the streams
        # from the estimated offsets alone, and the recorded start
        # spread (boot stagger) widens the skew bound honestly.
        recording = self.tracer is not None
        pipes = [ctx.Pipe() for _ in range(self.nranks)] if recording else []

        procs = []
        t0 = time.perf_counter()
        for r in range(self.nranks):
            p = ctx.Process(
                target=_rank_worker,
                args=(r, self.nranks, self.machine, program, args, kwargs,
                      _QueueWire(inboxes, r), result_q, self.timeout,
                      transport, pipes[r][1] if recording else None),
                daemon=True,
            )
            p.start()
            procs.append(p)

        alignment = None
        if recording:
            from ...obs.wallclock import estimate_offsets

            try:
                for r in range(self.nranks):
                    pipes[r][1].close()  # child's end, in the parent
                alignment = estimate_offsets(
                    {r: pipes[r][0] for r in range(self.nranks)},
                    timeout=self.timeout,
                )
            except Exception:
                # A rank died (or hung) before its handshake.  Abandon the
                # measured trace; the normal collection loop below will
                # surface the rank's real failure.
                pass
            finally:
                for parent_end, child_end in pipes:
                    parent_end.close()
                    child_end.close()

        results: dict[int, tuple] = {}
        deadline = time.perf_counter() + self.timeout + self.grace
        try:
            while len(results) < self.nranks:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise RuntimeError(
                        f"{self.name} backend: ranks "
                        f"{sorted(set(range(self.nranks)) - set(results))} "
                        f"did not report back within timeout + grace "
                        f"({self.timeout:g}s + {self.grace:g}s)"
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
            wall, alignment, transport,
        )


def _assemble(backend, tracer, results, wall, alignment=None,
              transport=None) -> RunResult:
    """Fold every rank's ``(retval, stats)`` from :func:`_drive` into the
    run's :class:`RunResult` and, given a tracer, into the trace.

    ``results`` is indexed by rank.  ``alignment`` is the clock
    handshake's ``(offsets, skews)``; None (untraced run, or a handshake
    that did not complete) records no measured causal run.
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
    nodes = msgs = None
    if tracer is not None:
        from ...obs.resource import record_resource_samples

        for r in range(nranks):
            tracer.metric(
                "repro.backend.rank_wall_seconds", clocks[r],
                kind="counter", rank=r, backend=backend,
            )
            record_resource_samples(
                tracer, stats[r].get("res"), rank=r, backend=backend,
            )
        for key, total in (transport_totals or {}).items():
            tracer.metric(f"repro.transport.{key}", total,
                          kind="counter", backend=backend)
            for r in range(nranks):
                tracer.metric(
                    f"repro.transport.{key}", stats[r]["transport"][key],
                    kind="counter", rank=r, backend=backend,
                )
        if alignment is not None:
            from ...obs.wallclock import record_measured_run

            offsets, skews = alignment
            nodes, msgs = record_measured_run(
                tracer, {r: s["rec"] for r, s in enumerate(stats)},
                offsets, skews, nranks=nranks, backend=backend,
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
        nodes=nodes,
        msgs=msgs,
    )


class _QueueWire:
    """The wire over fork-inherited queues, one inbound queue per rank."""

    def __init__(self, inboxes, rank):
        self._inboxes = inboxes
        self._inbox = inboxes[rank]

    def put(self, dest, item):
        self._inboxes[dest].put(item)

    def take_nowait(self):
        try:
            return self._inbox.get_nowait()
        except queue.Empty:
            return None

    def take(self, timeout):
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None


def _rank_worker(rank, size, machine, program, args, kwargs, wire,
                 result_q, timeout, transport=None, sync=None):
    """Child-process entry: drive one rank's generator over the wire."""
    try:
        retval, stats = _drive(rank, size, machine, program, args, kwargs,
                               wire, timeout, transport,
                               record=sync is not None)
        if sync is not None:
            # Post-run clock handshake: answer the parent's probes (already
            # sitting in the pipe) off the measured clock, then hand back
            # the columns.  A rank that died above never reaches this; its
            # process exit EOFs the pipe and the parent abandons recording.
            from ...obs.wallclock import serve_clock_probes

            serve_clock_probes(sync, timeout=timeout)
            sync.close()
        result_q.put(("ok", rank, retval, stats))
    except _RecvTimeout as exc:
        result_q.put(("error", rank, "deadlock", str(exc)))
    except BaseException:
        result_q.put(("error", rank, "exception", traceback.format_exc()))


class _RecvTimeout(RuntimeError):
    pass


def _drive(rank, size, machine, program, args, kwargs, wire, timeout,
           transport=None, record=False):
    """Run one rank's program to completion over ``wire``.

    ``args``/``kwargs`` are the run's, ``per_rank`` wrappers included;
    this rank's slice is taken here.  Wire items are ``(source, tag,
    payload, nwords, msg_id)`` with ``msg_id`` -1 on unrecorded runs.
    The driver owns the receive timeout: a blocked receive polls
    ``wire.take`` in slices of at most a second, rearms on every arrival,
    and raises :class:`_RecvTimeout` once ``timeout`` seconds pass with
    none.  With ``record`` the rank keeps a ``WallRecorder`` and a
    ``ResourceSampler``; their columns ride back in the stats dict.
    Returns ``(retval, stats)``.
    """
    from ..simcomm import Comm

    a = [x.values[rank] if isinstance(x, per_rank) else x for x in args]
    kw = {
        k: (v.values[rank] if isinstance(v, per_rank) else v)
        for k, v in kwargs.items()
    }
    gen = program(Comm(rank, size, machine), *a, **kw)
    if not hasattr(gen, "send"):
        raise TypeError(
            "rank program must be a generator function "
            f"(got {type(gen).__name__} from {program!r})"
        )

    # the virtual machine's mailbox layout, in arrival order; the first
    # slot holds the message id (the VM keeps its send sequence there)
    mailbox: list[tuple] = []
    waited = 0.0
    words_sent = msgs_sent = words_recv = msgs_recv = 0
    if transport is not None:
        # map shared pages into this rank before the clock starts
        transport.warmup()
    rec = sampler = None
    if record:
        # Recording starts immediately — any clock handshake runs outside
        # the measured interval (offsets are constants of the monotonic
        # perf_counter streams), so a traced rank starts work exactly
        # when an untraced one would.  The sampler is a daemon thread
        # reading this process's RSS/CPU/GC off the hot path.
        from ...obs.resource import ResourceSampler
        from ...obs.wallclock import PROBE, RECV, WallRecorder

        rec = WallRecorder()
        sampler = ResourceSampler().start()
    clock = time.perf_counter
    t0 = clock()
    if rec is not None:
        rec.start(t0)

    def deliver(item):
        src, tag, payload, nwords, mid = item
        mailbox.append((mid, 0.0, payload, nwords, src, tag))

    def drain_and_take(op):
        while (item := wire.take_nowait()) is not None:
            deliver(item)
        return _take(mailbox, op.source, op.tag)

    def consume(msg):
        nonlocal words_recv, msgs_recv
        _mid, _arrival, payload, nwords, src, tag = msg
        words_recv += nwords
        msgs_recv += 1
        if transport is not None:
            payload = transport.decode(payload)
        return payload, src, tag

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
            payload, mid = op.payload, -1
            if rec is not None:
                ts = clock()
                mid = msgs_sent * size + rank  # globally unique msg id
            if transport is not None:
                spills0 = transport.counters["spills"]
                payload = transport.encode(payload, op.nwords)
                if rec is not None and transport.counters["spills"] > spills0:
                    rec.note_spill(ts, mid)
            wire.put(op.dest, (rank, op.tag, payload, op.nwords, mid))
            if rec is not None:
                rec.note_send(mid, op.dest, op.tag, op.nwords, ts, clock())
            words_sent += op.nwords
            msgs_sent += 1
        elif isinstance(op, RecvOp):
            ts = clock()
            this_wait = 0.0
            msg = drain_and_take(op)
            give_up = ts + timeout
            while msg is None:
                w0 = clock()
                if w0 >= give_up:
                    raise _RecvTimeout(_timeout_text(rank, op, mailbox, timeout))
                item = wire.take(min(give_up - w0, 1.0))
                w1 = clock()
                this_wait += w1 - w0  # each blocked interval is timed once
                if item is None:
                    continue
                give_up = w1 + timeout  # progress: rearm
                deliver(item)
                msg = _take(mailbox, op.source, op.tag)
            waited += this_wait
            value = consume(msg)
            if rec is not None:
                rec.note_op(RECV, ts, clock(), this_wait, msg[0])
        elif isinstance(op, ProbeOp):
            ts = clock()
            msg = drain_and_take(op)
            value = (False, None) if msg is None else (True, consume(msg))
            if rec is not None:
                rec.note_op(PROBE, ts, clock(), 0.0,
                            -1 if msg is None else msg[0])
        elif isinstance(op, (WorkOp, ElapseOp)):
            # modelled time only; the measured clock runs on its own
            pass
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
        sampler.stop()
        stats["res"] = sampler.rows()
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
