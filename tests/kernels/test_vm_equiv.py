"""The indexed VM mailbox must reproduce the reference schedule exactly."""

import numpy as np

from repro.parallel import ANY, VirtualMachine
from repro.parallel.runtime import RecvOp

from tests.fixtures import msgs_of, nodes_of

from .oracles import reference_kernels


def _mixed_traffic(comm):
    """Sends, wildcard receives on each axis, and collectives."""
    rng = np.random.default_rng(123 + comm.rank)
    out = []
    me, p = comm.rank, comm.size
    right = (me + 1) % p
    left = (me - 1) % p
    # several tagged messages to the right neighbour, interleaved sizes
    for i in range(4):
        yield from comm.send(
            (me, i), dest=right, tag=i % 2, nwords=int(rng.integers(1, 40))
        )
    # wildcard receives pick them up in arrival order
    for _ in range(2):
        out.append((yield RecvOp(ANY, ANY)))
    # tag-selective receives drain the rest out of order
    out.append((yield from comm.recv(source=left, tag=1)))
    out.append((yield from comm.recv(source=left, tag=0)))
    # a named source with any tag, then any source with a named tag
    yield from comm.send("ping", dest=left, tag=5)
    yield from comm.send("pong", dest=right, tag=6)
    out.append((yield RecvOp(right, ANY)))
    out.append((yield RecvOp(ANY, 6)))
    yield from comm.compute(float(rng.integers(1, 30)))
    # collectives stress the runtime's internal tags
    out.append((yield from comm.allreduce(me + 1)))
    # personalised all-to-all, pairwise-exchange schedule
    row = [None] * p
    row[me] = me * 100 + me
    for k in range(1, p):
        yield from comm.send(me * 100 + (me + k) % p, dest=(me + k) % p, tag=7)
        row[(me - k) % p] = yield from comm.recv(source=(me - k) % p, tag=7)
    out.append(row)
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
        assert nodes_of(opt) == nodes_of(ref)
        assert msgs_of(opt) == msgs_of(ref)
