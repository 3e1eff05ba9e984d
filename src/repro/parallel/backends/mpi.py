"""mpi4py backend: the shared rank driver over an MPI wire.

**Experimental** — registered only when :mod:`mpi4py` is importable and
never run under ``mpiexec`` on this checkout; what does run is this
framing, over a thread-backed fake in ``tests/parallel/test_mpi_wire.py``.
The *whole script* runs once per rank under ``mpiexec``: ``run`` drives
the local rank with the forked backends' :func:`~.mp._drive` and
allgathers returns and stats, so every process gets the full result.

MPI guarantees 15 bits of tag and the communicator layer uses wide ones,
so all traffic rides one wire tag with the logical ``(source, tag)`` in
the item, matched in the driver's mailbox.  MPI has no timed receive:
blocking calls ignore their timeout; the launcher's limit ends a deadlock.
"""

from __future__ import annotations

from ..machine import SP2_1997, MachineModel
from ..runtime import RunResult
from .mp import DEFAULT_TIMEOUT, _assemble, _drive

__all__ = ["MPIBackend"]

_WIRE_TAG = 7  #: the single wire tag every logical message travels on
_SYNC_TAG = 8  #: reserved for the clock-alignment handshake


class _MPIWire:
    """The driver's wire over ``mpi_comm``'s send/iprobe/recv (or a fake's)."""

    def __init__(self, mpi_comm, any_source):
        self._mpi = mpi_comm
        self._any = any_source

    def put(self, dest, item):
        self._mpi.send(item, dest=dest, tag=_WIRE_TAG)

    def take_nowait(self):
        ready = self._mpi.iprobe(source=self._any, tag=_WIRE_TAG)
        return self.take(0.0) if ready else None

    def take(self, timeout):
        return self._mpi.recv(source=self._any, tag=_WIRE_TAG)


class _SyncPipe:
    """One peer on ``_SYNC_TAG`` as a pipe end, for wallclock's handshake."""

    def __init__(self, mpi_comm, peer):
        self._mpi = mpi_comm
        self._peer = peer

    def send(self, obj):
        self._mpi.send(obj, dest=self._peer, tag=_SYNC_TAG)

    def poll(self, timeout):
        return True  # recv blocks until the peer's message is here

    def recv(self):
        return self._mpi.recv(source=self._peer, tag=_SYNC_TAG)


def _align_clocks(mpi_comm):
    """Collective handshake; ``(offsets, skews)`` on rank 0, else None."""
    from ...obs.wallclock import estimate_offsets, serve_clock_probes

    if mpi_comm.rank != 0:
        return serve_clock_probes(_SyncPipe(mpi_comm, 0))
    peers = {p: _SyncPipe(mpi_comm, p) for p in range(1, mpi_comm.size)}
    offsets, skews = estimate_offsets(peers)
    offsets[0] = skews[0] = 0.0
    return offsets, skews


class MPIBackend:
    """Drive rank programs over mpi4py point-to-point messaging."""

    name = "mpi4py"
    deterministic = False
    measured = True

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 tracer=None, **_ignored):
        from mpi4py import MPI

        self.mpi_comm = MPI.COMM_WORLD
        if self.mpi_comm.size != nranks:
            raise ValueError(
                f"launched with {self.mpi_comm.size} MPI ranks but the "
                f"workload needs {nranks} (use mpiexec -n {nranks})"
            )
        self.nranks = nranks
        self.machine = machine
        self.tracer = tracer
        self._wire = _MPIWire(self.mpi_comm, MPI.ANY_SOURCE)

    def run(self, program, *args, **kwargs) -> RunResult:
        """Run the local rank's program; collective over ``mpi_comm``."""
        mpi = self.mpi_comm
        # Recording is collective: one tracer anywhere, every rank records.
        # Handshake first, then a barrier as the recorders' start line.
        recording = any(mpi.allgather(self.tracer is not None))
        alignment = None
        if recording:
            alignment = mpi.bcast(_align_clocks(mpi), root=0)
            mpi.barrier()
        local = _drive(mpi.rank, self.nranks, self.machine, program, args,
                       kwargs, self._wire, DEFAULT_TIMEOUT, record=recording)
        return _assemble(self.name, self.tracer, mpi.allgather(local),
                         local[1]["wall"], alignment)
