"""The indexed VM mailbox must reproduce the reference schedule exactly."""

import numpy as np

from repro.parallel import ANY, VirtualMachine

from .oracles import reference_kernels


def _mixed_traffic(comm):
    """Sends, wildcard receives, nonblocking receives, and collectives."""
    rng = np.random.default_rng(123 + comm.rank)
    out = []
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    # several tagged messages to the right neighbour, interleaved sizes
    for i in range(4):
        yield from comm.send(
            (comm.rank, i), dest=right, tag=i % 2, nwords=int(rng.integers(1, 40))
        )
    # wildcard receives pick them up in arrival order
    for _ in range(2):
        payload, src, tag = yield from comm.recv_status(ANY, ANY)
        out.append((payload, src, tag))
    # tag-selective receives drain the rest out of order
    out.append((yield from comm.recv(source=left, tag=1)))
    out.append((yield from comm.recv(source=left, tag=0)))
    # nonblocking receive completed via wait (exercises probe matching)
    req = yield from comm.irecv(source=ANY, tag=5)
    yield from comm.send("ping", dest=left, tag=5)
    out.append((yield from req.wait()))
    yield from comm.compute(float(rng.integers(1, 30)))
    # collectives stress the runtime's internal tags
    out.append((yield from comm.allreduce(comm.rank + 1)))
    out.append((yield from comm.alltoall([comm.rank * 100 + d for d in range(comm.size)])))
    return out


def _run(nranks):
    vm = VirtualMachine(nranks, trace=True)
    return vm.run(_mixed_traffic)


def test_vm_schedule_bit_identical():
    for nranks in (2, 3, 5, 8):
        opt = _run(nranks)
        with reference_kernels():
            ref = _run(nranks)
        assert opt.returns == ref.returns
        assert opt.clocks == ref.clocks
        assert opt.total_messages == ref.total_messages
        assert opt.total_words == ref.total_words
        assert opt.words_sent_per_rank == ref.words_sent_per_rank
        assert opt.nodes == ref.nodes
        assert opt.msgs == ref.msgs
