"""The mpi4py backend's framing, run without mpi4py.

``mpi4py`` is not installed here.  What is MPI's alone in
``backends/mpi.py`` — the wire over ``send``/``iprobe``/``recv`` on one
tag, the pipe-shaped handshake adapter on another — takes the
communicator as an argument, so a fake backed by threads and
``queue.Queue`` drives it through the driver and result assembly every
real backend shares (``backends.mp._drive`` / ``_assemble``).
"""

import operator
import queue
import threading
import time

import pytest

from repro.obs import Tracer
from repro.obs.causal import runs_from_tracer, verify_makespans
from repro.obs.resource import resource_peaks
from repro.parallel import ANY, SP2_1997, create_communicator, per_rank
from repro.parallel.backends import mp, mpi
from repro.parallel.runtime import ProbeOp, RecvOp, SendOp

ANY_SOURCE = -1  # the fake's wildcard, as MPI.ANY_SOURCE is mpi4py's


class FakeComm:
    """One rank's end of a thread-backed communicator.

    One queue per (dest, source, tag), and only for the two tags the
    backend owns: a send on any other tag is a KeyError in that rank.
    """

    def __init__(self, boxes, rank, size, sent):
        self.boxes, self.rank, self.size, self.sent = boxes, rank, size, sent

    def _sources(self, source):
        return range(self.size) if source == ANY_SOURCE else (source,)

    def send(self, obj, dest, tag):
        self.sent.append((tag, obj))
        self.boxes[dest, self.rank, tag].put(obj)

    def iprobe(self, source, tag):
        return any(not self.boxes[self.rank, s, tag].empty()
                   for s in self._sources(source))

    def recv(self, source, tag):
        while True:  # blocking, like MPI's
            for s in self._sources(source):
                try:
                    return self.boxes[self.rank, s, tag].get_nowait()
                except queue.Empty:
                    pass
            time.sleep(1e-4)


def _run(nranks, tracer, program, *args):
    """What ``MPIBackend.run`` does in each process, one thread per rank."""
    boxes = {(d, s, t): queue.Queue() for d in range(nranks)
             for s in range(nranks) for t in (mpi._WIRE_TAG, mpi._SYNC_TAG)}
    sent: list = []
    recording = tracer is not None
    alignment = [None] * nranks
    local = [None] * nranks

    def rank_main(r):
        comm = FakeComm(boxes, r, nranks, sent)
        try:
            if recording:
                alignment[r] = mpi._align_clocks(comm)
            local[r] = mp._drive(r, nranks, SP2_1997, program, args, {},
                                 mpi._MPIWire(comm, ANY_SOURCE), 30.0,
                                 record=recording)
        except BaseException as exc:  # re-raised in the test thread below
            local[r] = exc

    threads = [threading.Thread(target=rank_main, args=(r,), daemon=True)
               for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "a rank never finished"
    for outcome in local:
        if isinstance(outcome, BaseException):
            raise outcome
    result = mp._assemble("mpi4py", tracer, local, local[0][1]["wall"],
                          alignment[0])
    return result, sent


def _ring(comm, bonus):
    """``scripts/mpi_smoke.py``'s ring: wildcard receive, then a collective."""
    right = (comm.rank + 1) % comm.size
    yield from comm.send(f"r{comm.rank}+{bonus}", dest=right, tag=5)
    got = yield from comm.recv(source=ANY, tag=5)
    total = yield from comm.allreduce(comm.rank + 1, op=operator.add)
    return (got, total)


def _probe_ring(comm, rounds):
    """Nonblocking probe first, blocking receive only on a miss."""
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    got = []
    for i in range(rounds):
        yield SendOp(nxt, 9, (comm.rank, i), 2)
        hit, msg = yield ProbeOp(prv, 9)
        if not hit:
            msg = yield RecvOp(prv, 9)
        got.append(msg[0])
    return got


def _cases(nranks):
    return [(_ring, per_rank([10 * r for r in range(nranks)])),
            (_probe_ring, 3)]


@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_untraced_run_matches_virtual_and_frames_every_item(nranks):
    for program, arg in _cases(nranks):
        result, sent = _run(nranks, None, program, arg)
        virtual = create_communicator("virtual", nranks).run(program, arg)
        assert result.returns == virtual.returns
        assert result.msgs_sent_per_rank == virtual.msgs_sent_per_rank
        assert result.backend == "mpi4py" and result.nodes is None
        # one wire tag, five fields, and no message id on an unrecorded run
        assert len(sent) == result.total_messages
        assert {tag for tag, _ in sent} == {mpi._WIRE_TAG}
        assert all(len(item) == 5 and item[4] == -1 for _, item in sent)


@pytest.mark.parametrize("nranks", [2, 4])
def test_traced_run_pairs_every_send_with_its_recv(nranks):
    for program, arg in _cases(nranks):
        tracer = Tracer()
        with tracer.phase("mpi-loopback"):
            result, sent = _run(nranks, tracer, program, arg)
        virtual = create_communicator("virtual", nranks).run(program, arg)
        assert result.returns == virtual.returns

        # the handshake travelled on its own tag, through the pipe adapter
        assert {tag for tag, _ in sent} == {mpi._WIRE_TAG, mpi._SYNC_TAG}
        assert [c.rank for c in tracer.clock_records] == list(range(nranks))
        assert tracer.clock_records[0].skew == 0.0  # rank 0 is the reference
        assert all(c.skew > 0.0 for c in tracer.clock_records[1:])

        # the message id each wire item carried is what pairs the two ends
        [run] = runs_from_tracer(tracer, clock="wall")
        wire_ids = sorted(item[4] for tag, item in sent
                          if tag == mpi._WIRE_TAG)
        assert wire_ids == [m.id for m in run.msgs]
        assert len(set(wire_ids)) == result.total_messages
        assert all(m.recv_node is not None for m in run.msgs)
        assert result.msgs == run.msgs
        verify_makespans(tracer)
        # a recording rank samples its process, as on the forked backends
        assert set(resource_peaks(tracer.resource_samples)) == set(range(nranks))
