"""One-process-per-rank backend over ``multiprocessing`` queues.

Each rank runs in its own forked OS process and drives the *same*
generator rank program the virtual machine runs: ``SendOp`` puts the
payload on the destination rank's inbound queue, ``RecvOp`` / ``ProbeOp``
drain the queue into a local :class:`~repro.parallel.runtime._IndexedMailbox`
whose ``(source, tag)`` matching — including ``ANY`` wildcards and
per-(source, tag) FIFO order — is exactly the virtual machine's.
``WorkOp`` / ``ElapseOp`` cost nothing here: the *real* Python work the
program performs between yields is what the measured clocks capture.

The ``fork`` start method is required (and requested explicitly): rank
programs are closures over mesh data, which fork inherits by memory image
instead of pickling.  Message payloads do cross process boundaries and
must pickle — true of every payload type this library sends.

Clocks in the returned :class:`~repro.parallel.runtime.RunResult` are
measured host wall seconds per rank; ``waited`` time (blocked on an empty
queue) is separated out so busy/idle splits stay meaningful.

With a tracer attached the backend also records the run's *measured*
causal trace (:mod:`repro.obs.wallclock`): each rank keeps a columnar
:class:`~repro.obs.wallclock.WallRecorder` of its sends/recvs/probes and
the work gaps between them on its own ``perf_counter``, the parent
estimates every child's clock offset with an NTP-style pipe handshake run
*after* the program (so tracing never delays the start of work — offsets
are constants of the monotonic clocks), and the streams then merge
into ``CausalNode``/``CausalMsg`` lists under a ``vm.run`` marker with
``clock="wall"`` — so ``repro critical-path``, ``repro report`` and
``repro diff`` work on measured runs exactly as on modelled ones.  A traced
run also starts a :class:`~repro.obs.resource.ResourceSampler` in every
rank process; the sampled RSS/CPU/GC columns ship back with the result and
land in the trace as ``resource`` records plus per-rank
``repro.resource.*`` metrics.  When a live telemetry hub is
installed (:func:`repro.obs.live.use_live`, i.e. ``repro step --live``),
ranks additionally stream progress and resource frames over the hub's
:class:`~repro.obs.live.LiveChannel` — a bounded queue written with
``put_nowait`` that drops on overflow, so the dashboard can never stall
the measured clock path.  Scheduling
is the OS's, so arrival *interleaving* across sources is nondeterministic
— programs whose results depend only on mailbox matching semantics (all
of this library's) produce payload-identical results to ``virtual``,
which the conformance suite pins.
"""

from __future__ import annotations

import time
import traceback

from ..machine import SP2_1997, MachineModel
from ..runtime import (
    ANY,
    DeadlockError,
    ElapseOp,
    ProbeOp,
    RecvOp,
    RunResult,
    SendOp,
    WorkOp,
    _IndexedMailbox,
    _Message,
    per_rank,
)

__all__ = ["MultiprocessingBackend"]

#: Default seconds a rank may block on one receive before the run is
#: declared deadlocked (real transports cannot scan a global wait graph).
DEFAULT_TIMEOUT = 60.0

#: Default extra seconds (beyond ``timeout``) the parent waits for rank
#: processes to report back before declaring them hung.
DEFAULT_GRACE = 30.0

#: Transport counter keys surfaced into the metrics registry.
_TRANSPORT_METRIC_KEYS = (
    "bytes_zero_copy", "bytes_pickled", "msgs_zero_copy", "msgs_pickled",
    "slab_reuse", "spills",
)


class MultiprocessingBackend:
    """Run rank programs on real cores, one forked process per rank."""

    name = "multiprocessing"
    #: Payloads are reproducible; clocks and cross-source arrival order
    #: are not (they are measured, not modelled).
    deterministic = False
    measured = True

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 timeout: float = DEFAULT_TIMEOUT,
                 grace: float = DEFAULT_GRACE, tracer=None,
                 resource_interval: float | None = None, **_ignored):
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
        self.tracer = tracer  # wall metrics only; no causal record
        #: Seconds between per-rank resource samples (None = library
        #: default); sampling runs whenever a tracer or live hub is on.
        self.resource_interval = resource_interval

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

        # Live telemetry: ranks stream frames over the ambient hub's side
        # channel (fork-inherited bounded queue; see repro.obs.live).
        # Resource sampling runs whenever anyone will consume it — the
        # tracer (resource records) or a live dashboard.
        from ...obs.live import current_live

        hub = current_live()
        channel = hub.channel if hub is not None else None
        res_interval = None
        if recording or channel is not None:
            from ...obs.resource import DEFAULT_INTERVAL

            res_interval = self.resource_interval or DEFAULT_INTERVAL

        procs = []
        t0 = time.perf_counter()
        for r in range(self.nranks):
            a = [x.values[r] if isinstance(x, per_rank) else x for x in args]
            kw = {
                k: (v.values[r] if isinstance(v, per_rank) else v)
                for k, v in kwargs.items()
            }
            sync = pipes[r][1] if recording else None
            p = ctx.Process(
                target=_rank_worker,
                args=(r, self.nranks, self.machine, program, a, kw,
                      inboxes, result_q, self.timeout, transport, sync,
                      channel, res_interval),
                daemon=True,
            )
            p.start()
            procs.append(p)

        offsets: dict[int, float] = {}
        skews: dict[int, float] = {}
        if recording:
            from ...obs.wallclock import estimate_offsets

            try:
                for r in range(self.nranks):
                    pipes[r][1].close()  # child's end, in the parent
                offsets, skews = estimate_offsets(
                    {r: pipes[r][0] for r in range(self.nranks)},
                    timeout=self.timeout,
                )
            except Exception:
                # A rank died (or hung) before its handshake.  Abandon the
                # measured trace; the normal collection loop below will
                # surface the rank's real failure.
                recording = False
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

        returns, clocks, waited = [], [], []
        words_s, msgs_s, words_r, msgs_r = [], [], [], []
        transport_per_rank: list[dict] = []
        streams: dict[int, dict] = {}
        res_rows: dict[int, dict] = {}
        for r in range(self.nranks):
            retval, stats = results[r]
            returns.append(retval)
            clocks.append(stats["wall"])
            waited.append(stats["waited"])
            words_s.append(stats["words_sent"])
            msgs_s.append(stats["msgs_sent"])
            words_r.append(stats["words_recv"])
            msgs_r.append(stats["msgs_recv"])
            transport_per_rank.append(stats.get("transport", {}))
            if "rec" in stats:
                streams[r] = stats["rec"]
            if "res" in stats:
                res_rows[r] = stats["res"]
        makespan = max(clocks) if clocks else 0.0
        busy = [c - w for c, w in zip(clocks, waited)]
        idle = [makespan - b for b in busy]
        transport_totals = None
        if transport is not None:
            transport_totals = {}
            for d in transport_per_rank:
                for k, v in d.items():
                    transport_totals[k] = transport_totals.get(k, 0) + v
            transport.note_run_totals(transport_totals)
        if self.tracer is not None:
            from ...obs.resource import record_resource_samples

            for r in range(self.nranks):
                self.tracer.metric(
                    "repro.backend.rank_wall_seconds", clocks[r],
                    kind="counter", rank=r, backend=self.name,
                )
                record_resource_samples(
                    self.tracer, res_rows.get(r), rank=r, backend=self.name,
                )
            if transport_totals is not None:
                for key in _TRANSPORT_METRIC_KEYS:
                    self.tracer.metric(
                        f"repro.transport.{key}",
                        transport_totals.get(key, 0),
                        kind="counter", backend=self.name,
                    )
                    for r in range(self.nranks):
                        self.tracer.metric(
                            f"repro.transport.{key}",
                            transport_per_rank[r].get(key, 0),
                            kind="counter", rank=r, backend=self.name,
                        )
        merged_nodes = merged_msgs = None
        if recording and len(streams) == self.nranks:
            merged_nodes, merged_msgs = self._record_measured_run(
                streams, offsets, skews, waited, msgs_s, msgs_r,
                words_s, words_r,
            )
        return RunResult(
            returns=returns,
            clocks=clocks,
            total_messages=sum(msgs_s),
            total_words=sum(words_s),
            words_sent_per_rank=words_s,
            words_recv_per_rank=words_r,
            msgs_sent_per_rank=msgs_s,
            msgs_recv_per_rank=msgs_r,
            busy_per_rank=busy,
            idle_per_rank=idle,
            wall_seconds=wall,
            backend=self.name,
            transport=transport_totals,
            nodes=merged_nodes,
            msgs=merged_msgs,
        )

    def _record_measured_run(self, streams, offsets, skews, waited,
                             msgs_s, msgs_r, words_s, words_r):
        """Merge per-rank wall-clock streams into the tracer's causal record.

        Returns the merged ``(nodes, msgs)`` lists (shared with the
        tracer) so the :class:`RunResult` can carry them too.
        """
        from ...obs.wallclock import record_measured_run

        return record_measured_run(
            self.tracer, streams, offsets, skews,
            nranks=self.nranks, backend=self.name,
            waited=waited, msgs_sent=msgs_s, msgs_recv=msgs_r,
            words_sent=words_s, words_recv=words_r,
        )


def _rank_worker(rank, size, machine, program, args, kwargs,
                 inboxes, result_q, timeout, transport=None, sync=None,
                 channel=None, res_interval=None):
    """Child-process entry: drive one rank's generator over the queues."""
    try:
        retval, stats = _drive(rank, size, machine, program, args, kwargs,
                               inboxes, timeout, transport, sync,
                               channel, res_interval)
        result_q.put(("ok", rank, retval, stats))
    except _RecvTimeout as exc:
        result_q.put(("error", rank, "deadlock", str(exc)))
    except BaseException:
        result_q.put(("error", rank, "exception", traceback.format_exc()))


class _RecvTimeout(RuntimeError):
    pass


#: Seconds between live progress frames a rank streams over the channel.
_PROGRESS_INTERVAL = 0.1


def _drive(rank, size, machine, program, args, kwargs, inboxes, timeout,
           transport=None, sync=None, channel=None, res_interval=None):
    from ..simcomm import Comm

    comm = Comm(rank, size, machine)
    gen = program(comm, *args, **kwargs)
    if not hasattr(gen, "send"):
        raise TypeError(
            "rank program must be a generator function "
            f"(got {type(gen).__name__} from {program!r})"
        )
    import queue as _queue

    mailbox = _IndexedMailbox()
    inbox = inboxes[rank]
    seq = 0
    waited = 0.0
    words_sent = msgs_sent = words_recv = msgs_recv = 0
    if transport is not None:
        # map shared pages into this rank before the clock starts
        transport.warmup()
    rec = None
    if sync is not None:
        # Measured tracing: start recording immediately — the clock
        # handshake runs *after* the program (offsets are constants of
        # the monotonic perf_counter streams), so a traced rank starts
        # work exactly when an untraced one would.
        from ...obs.wallclock import WallRecorder

        rec = WallRecorder()
    sampler = None
    if res_interval is not None:
        # Resource telemetry: a daemon thread sampling this process's
        # RSS/CPU/GC off the hot path; the emit callback streams each
        # sample to the live dashboard (drop-on-full, never blocks).
        from ...obs.resource import ResourceSampler

        emit = None
        if channel is not None:
            def emit(t, rss, cpu, gcs, _c=channel, _r=rank):
                _c.emit_resource(_r, t, rss, cpu, gcs)
        sampler = ResourceSampler(res_interval, rank=rank, emit=emit).start()
    #: local mailbox seq -> global message id (recording runs only)
    mid_by_seq: dict[int, int] = {}
    next_prog = 0.0
    t0 = time.perf_counter()
    if rec is not None:
        rec.start(t0)

    def drain_nonblocking():
        nonlocal seq
        while True:
            try:
                src, tag, payload, nwords, mid = inbox.get_nowait()
            except _queue.Empty:
                return
            seq += 1
            if rec is not None:
                mid_by_seq[seq] = mid
            mailbox.add(_Message(src, tag, payload, nwords, 0.0, seq))

    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            retval = stop.value
            break
        value = None
        if channel is not None:
            now = time.perf_counter()
            if now >= next_prog:
                next_prog = now + _PROGRESS_INTERVAL
                channel.emit_progress(rank, now - t0, msgs_sent,
                                      words_sent, waited)
        if isinstance(op, SendOp):
            if not 0 <= op.dest < size:
                raise ValueError(f"rank {rank}: send to invalid rank {op.dest}")
            if rec is None:
                wire = (
                    op.payload if transport is None
                    else transport.encode(op.payload, op.nwords)
                )
                inboxes[op.dest].put((rank, op.tag, wire, op.nwords, -1))
            else:
                ts = time.perf_counter()
                mid = msgs_sent * size + rank  # globally unique msg id
                if transport is None:
                    wire = op.payload
                else:
                    spills0 = transport.counters.get("spills", 0)
                    wire = transport.encode(op.payload, op.nwords)
                    if transport.counters.get("spills", 0) > spills0:
                        rec.note_spill(ts, mid)
                inboxes[op.dest].put((rank, op.tag, wire, op.nwords, mid))
                rec.note_send(mid, op.dest, op.tag, op.nwords,
                              ts, time.perf_counter())
            words_sent += op.nwords
            msgs_sent += 1
        elif isinstance(op, RecvOp):
            ts = time.perf_counter() if rec is not None else 0.0
            this_wait = 0.0
            drain_nonblocking()
            msg = mailbox.pop_match(op.source, op.tag)
            give_up = time.perf_counter() + timeout
            while msg is None:
                budget = give_up - time.perf_counter()
                if budget <= 0:
                    raise _RecvTimeout(_timeout_text(rank, op, mailbox, timeout))
                w0 = time.perf_counter()
                try:
                    src, tag, payload, nwords, mid = inbox.get(
                        timeout=min(budget, 1.0)
                    )
                except _queue.Empty:
                    waited += time.perf_counter() - w0
                    this_wait += time.perf_counter() - w0
                    continue
                waited += time.perf_counter() - w0
                this_wait += time.perf_counter() - w0
                give_up = time.perf_counter() + timeout  # progress: rearm
                seq += 1
                if rec is not None:
                    mid_by_seq[seq] = mid
                mailbox.add(_Message(src, tag, payload, nwords, 0.0, seq))
                msg = mailbox.pop_match(op.source, op.tag)
            words_recv += msg.nwords
            msgs_recv += 1
            payload = (
                msg.payload if transport is None
                else transport.decode(msg.payload)
            )
            value = (payload, msg.source, msg.tag)
            if rec is not None:
                rec.note_op(2, ts, time.perf_counter(), this_wait,
                            mid_by_seq.pop(msg.seq, -1))  # 2 = RECV
        elif isinstance(op, ProbeOp):
            ts = time.perf_counter() if rec is not None else 0.0
            drain_nonblocking()
            msg = mailbox.pop_match(op.source, op.tag)
            if msg is not None:
                words_recv += msg.nwords
                msgs_recv += 1
                payload = (
                    msg.payload if transport is None
                    else transport.decode(msg.payload)
                )
                value = (True, (payload, msg.source, msg.tag))
            else:
                value = (False, None)
            if rec is not None:
                mid = -1 if msg is None else mid_by_seq.pop(msg.seq, -1)
                rec.note_op(3, ts, time.perf_counter(), 0.0, mid)  # 3 = PROBE
        elif isinstance(op, (WorkOp, ElapseOp)):
            # modelled time only; the measured clock runs on its own
            pass
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    t_end = time.perf_counter()
    if channel is not None:
        channel.emit_progress(rank, t_end - t0, msgs_sent,
                              words_sent, waited)
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
    if sampler is not None:
        sampler.stop()
        if rec is not None:  # only a traced run has somewhere to put rows
            stats["res"] = sampler.rows()
    if rec is not None:
        rec.finish(t_end)
        stats["rec"] = rec.columns()
        # Post-run clock handshake: answer the parent's probes (already
        # sitting in the pipe) off the measured clock, then hand back
        # the columns.  A rank that died above never reaches this; its
        # process exit EOFs the pipe and the parent abandons recording.
        from ...obs.wallclock import serve_clock_probes

        serve_clock_probes(sync, timeout=timeout)
        sync.close()
    return retval, stats


def _fmt(v):
    return "ANY" if v == ANY else str(v)


def _timeout_text(rank, op, mailbox, timeout):
    census: dict[tuple[int, int], int] = {}
    for m in mailbox.messages():
        census[(m.source, m.tag)] = census.get((m.source, m.tag), 0) + 1
    listing = ", ".join(
        f"(source={s}, tag={t})×{n}" for (s, t), n in sorted(census.items())
    ) or "empty"
    return (
        f"rank {rank}: recv(source={_fmt(op.source)}, tag={_fmt(op.tag)}) "
        f"got no matching message within {timeout:.0f}s "
        f"(likely deadlock); unmatched mailbox: {listing}"
    )
