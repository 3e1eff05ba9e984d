"""Property-based tests for the virtual machine's message semantics."""

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import IDEAL, VirtualMachine


@given(p=st.integers(1, 12), seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_allreduce_matches_serial_sum(p, seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(-100, 100, p).tolist()

    def prog(comm):
        return (yield from comm.allreduce(vals[comm.rank]))

    res = VirtualMachine(p, IDEAL).run(prog)
    assert res.returns == [sum(vals)] * p


@given(p=st.integers(1, 10), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_scan_prefixes(p, seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 50, p).tolist()

    def prog(comm):
        """Inclusive prefix sum along the rank chain."""
        acc = vals[comm.rank]
        if comm.rank > 0:
            acc += yield from comm.recv(source=comm.rank - 1, tag=0)
        if comm.rank < p - 1:
            yield from comm.send(acc, dest=comm.rank + 1, tag=0)
        return acc

    res = VirtualMachine(p, IDEAL).run(prog)
    expect = np.cumsum(vals).tolist()
    assert res.returns == expect


@given(p=st.integers(2, 8), seed=st.integers(0, 1000), rounds=st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_random_pairwise_exchanges_never_deadlock(p, seed, rounds):
    """Arbitrary all-to-all exchange patterns complete under buffered
    sends, and every sent payload arrives exactly once."""
    rng = np.random.default_rng(seed)
    plans = [
        [
            [int(x) for x in rng.integers(0, p, rng.integers(0, 3))]
            for _ in range(p)
        ]
        for _ in range(rounds)
    ]  # plans[round][rank] = list of destinations

    def prog(comm):
        got = []
        for rnd in range(rounds):
            outgoing = plans[rnd][comm.rank]
            n_in = sum(plans[rnd][s].count(comm.rank) for s in range(p))
            for dest in outgoing:
                yield from comm.send((comm.rank, rnd), dest=dest, tag=rnd)
            for _ in range(n_in):
                got.append((yield from comm.recv(tag=rnd)))
            yield from comm.barrier()
        return sorted(got)

    res = VirtualMachine(p, IDEAL).run(prog)
    for r in range(p):
        expect = sorted(
            (s, rnd)
            for rnd in range(rounds)
            for s in range(p)
            for d in plans[rnd][s]
            if d == r
        )
        assert res.returns[r] == expect


@given(p=st.integers(2, 8), seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_alltoall_transposes(p, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 1000, (p, p))

    def prog(comm):
        """Pairwise exchange: row ``r`` out, column ``r`` in, by source."""
        me, row = comm.rank, mat[comm.rank].tolist()
        out = [None] * p
        out[me] = row[me]
        for k in range(1, p):
            yield from comm.send(row[(me + k) % p], dest=(me + k) % p, tag=1)
            out[(me - k) % p] = yield from comm.recv(source=(me - k) % p, tag=1)
        return out

    res = VirtualMachine(p, IDEAL).run(prog)
    for r in range(p):
        assert res.returns[r] == mat[:, r].tolist()


@given(
    p=st.integers(1, 8),
    op=st.sampled_from([operator.add, max, min]),
    seed=st.integers(0, 500),
)
@settings(max_examples=20, deadline=None)
def test_reduce_matches_functools(p, op, seed):
    from functools import reduce as freduce

    rng = np.random.default_rng(seed)
    vals = rng.integers(-50, 50, p).tolist()

    def prog(comm):
        return (yield from comm.allreduce(vals[comm.rank], op=op))

    res = VirtualMachine(p, IDEAL).run(prog)
    assert res.returns == [freduce(op, vals)] * p
