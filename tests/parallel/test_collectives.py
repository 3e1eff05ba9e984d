"""Collective communication on the virtual machine, checked against serial
reference semantics for a range of processor counts (including non powers
of two, which exercise the tree edge cases).  ``allreduce`` and ``barrier``
are the communicator's own; gather, scatter and all-to-all are the
point-to-point patterns rank programs write with ``send`` / ``recv``."""

import operator

import pytest

from repro.parallel import IDEAL, MachineModel, VirtualMachine

SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16]


@pytest.mark.parametrize("p", SIZES)
def test_gather(p):
    """Fan-in to rank 0 on ``ANY`` source, placed by the sender's rank."""
    def prog(comm):
        if comm.rank != 0:
            yield from comm.send((comm.rank, comm.rank * 2), dest=0, tag=3)
            return None
        out = [0] * p
        for _ in range(p - 1):
            src, v = yield from comm.recv(tag=3)
            out[src] = v
        return out

    res = VirtualMachine(p, IDEAL).run(prog)
    assert res.returns[0] == [2 * r for r in range(p)]
    assert all(r is None for r in res.returns[1:])


@pytest.mark.parametrize("p", SIZES)
def test_scatter(p):
    def prog(comm):
        if comm.rank == 0:
            for r in range(1, p):
                yield from comm.send(f"item{r}", dest=r, tag=4)
            return "item0"
        return (yield from comm.recv(source=0, tag=4))

    res = VirtualMachine(p, IDEAL).run(prog)
    assert res.returns == [f"item{r}" for r in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_max(p):
    def prog(comm):
        return (yield from comm.allreduce((comm.rank * 7) % 5, op=max))

    res = VirtualMachine(p, IDEAL).run(prog)
    expected = max((r * 7) % 5 for r in range(p))
    assert res.returns == [expected] * p


@pytest.mark.parametrize("p", SIZES)
def test_allgather(p):
    """An allreduce of one-element lists concatenates them in rank order."""
    def prog(comm):
        return (yield from comm.allreduce([comm.rank**2]))

    res = VirtualMachine(p, IDEAL).run(prog)
    expected = [r**2 for r in range(p)]
    assert res.returns == [expected] * p


@pytest.mark.parametrize("p", SIZES)
def test_alltoall(p):
    def prog(comm):
        """Pairwise exchange: item ``d`` to rank ``d``, received by source."""
        me = comm.rank
        objs = [(me, d) for d in range(p)]
        out = [None] * p
        out[me] = objs[me]
        for k in range(1, p):
            dest, src = (me + k) % p, (me - k) % p
            yield from comm.send(objs[dest], dest=dest, tag=5)
            out[src] = yield from comm.recv(source=src, tag=5)
        return out

    res = VirtualMachine(p, IDEAL).run(prog)
    for r in range(p):
        assert res.returns[r] == [(s, r) for s in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_barrier_synchronises_clocks(p):
    m = MachineModel(t_setup=0.01, t_word=0.0, t_work=1.0)

    def prog(comm):
        yield from comm.compute(comm.rank)  # staggered work
        yield from comm.barrier()
        return None

    res = VirtualMachine(p, m).run(prog)
    # after the barrier no clock may be earlier than the slowest pre-barrier rank
    assert min(res.clocks) >= p - 1


def test_reduce_non_commutative_deterministic():
    """Reduction order is fixed, so non-commutative ops are reproducible."""

    def prog(comm):
        return (yield from comm.allreduce([comm.rank], op=operator.add))

    r1 = VirtualMachine(6, IDEAL).run(prog).returns
    r2 = VirtualMachine(6, IDEAL).run(prog).returns
    assert r1 == r2
    assert sorted(r1[0]) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_non_commutative_rank_order(p):
    """The documented combine order is rank order ``x_0 + x_1 + ... +
    x_{P-1}`` on every rank, run after run."""
    expected = "".join(f"<{r}>" for r in range(p))

    def prog(comm):
        return (yield from comm.allreduce(f"<{comm.rank}>", op=operator.add))

    for _ in range(2):
        assert VirtualMachine(p, IDEAL).run(prog).returns == [expected] * p


def test_allreduce_cost_scales_logarithmically():
    m = MachineModel(t_setup=1.0, t_word=0.0, t_work=0.0)

    def prog(comm):
        return (yield from comm.allreduce(comm.rank))

    t16 = VirtualMachine(16, m).run(prog).makespan
    t64 = VirtualMachine(64, m).run(prog).makespan
    # two binomial trees: 2 * log2(P) message steps, not P
    assert t16 <= 2 * 5.0
    assert t64 <= 2 * 7.0
    assert t64 > t16
