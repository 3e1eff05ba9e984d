"""Observable equivalence of the two mailbox implementations.

The :class:`~repro.parallel.runtime._IndexedMailbox` fast path bucketizes
unmatched messages by ``(source, tag)`` and inspects only bucket heads;
the :class:`~tests.kernels.oracles._ListMailbox` reference scans one
flat list.  Under the virtual machine's invariants (global ``seq`` order
on adds, per-sender monotone ``arrival``), every observable — which
message a recv/probe pops, the count, iteration contents — must be
identical.  The whole-VM half runs the same randomized programs under
both mailbox kernels and requires bit-identical results.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ANY, SP2_1997, VirtualMachine
from repro.parallel.runtime import _IndexedMailbox, _Message
from tests.kernels.oracles import _ListMailbox, reference_kernels


# --- data-structure parity ---------------------------------------------------


def _script(rng, n_ops, nsources=3, ntags=3):
    """A random op sequence honouring the VM's mailbox invariants."""
    clocks = [0.0] * nsources  # per-sender clock -> monotone arrivals
    ops = []
    seq = 0
    for _ in range(n_ops):
        kind = rng.choice(["add", "add", "pop"])
        if kind == "add":
            src = int(rng.integers(nsources))
            clocks[src] += float(rng.integers(0, 3)) * 0.5
            seq += 1
            ops.append(("add", _Message(
                source=src,
                tag=int(rng.integers(ntags)),
                payload=seq,
                nwords=1,
                arrival=clocks[src],
                seq=seq,
            )))
        else:
            src = int(rng.integers(-1, nsources))  # -1 -> ANY
            tag = int(rng.integers(-1, ntags))
            source = ANY if src < 0 else src
            tag = ANY if tag < 0 else tag
            cap = None if rng.random() < 0.5 else float(rng.uniform(0.0, 3.0))
            ops.append((kind, source, tag, cap))
    return ops


@given(seed=st.integers(0, 2000), n_ops=st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_mailboxes_observably_equivalent(seed, n_ops):
    rng = np.random.default_rng(seed)
    fast, ref = _IndexedMailbox(), _ListMailbox()
    for op in _script(rng, n_ops):
        if op[0] == "add":
            msg = op[1]
            fast.add(msg)
            ref.add(dataclasses.replace(msg))
        else:
            _, source, tag, cap = op
            a = fast.pop_match(source, tag, max_arrival=cap)
            b = ref.pop_match(source, tag, max_arrival=cap)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.seq == b.seq
                assert (a.source, a.tag, a.arrival) == (
                    b.source, b.tag, b.arrival
                )
        assert len(fast) == len(ref)
        assert sorted(m.seq for m in fast.messages()) == sorted(
            m.seq for m in ref.messages()
        )


def test_pop_match_is_globally_fifo_across_buckets():
    """min-seq wins even when a later-keyed bucket was filled first."""
    for box in (_IndexedMailbox(), _ListMailbox()):
        box.add(_Message(source=1, tag=5, payload="b", nwords=1,
                         arrival=0.0, seq=2))
        box.add(_Message(source=0, tag=7, payload="a", nwords=1,
                         arrival=0.0, seq=1))
        got = box.pop_match(ANY, ANY)
        assert got.seq == 1, type(box).__name__


def test_arrival_cap_filters_identically():
    for box in (_IndexedMailbox(), _ListMailbox()):
        box.add(_Message(source=0, tag=0, payload="x", nwords=1,
                         arrival=5.0, seq=1))
        assert box.pop_match(0, 0, max_arrival=4.0) is None
        assert box.pop_match(0, 0, max_arrival=5.0).seq == 1


def test_pop_match_with_ndarray_payloads():
    """Regression: removal must be by index, never by equality.

    ``list.remove`` would invoke the dataclass ``__eq__``, which raises
    ``The truth value of an array ... is ambiguous`` the moment two
    ndarray-payload messages have to be compared — i.e. whenever more
    than one message is queued, the common case under load.
    """
    for box in (_IndexedMailbox(), _ListMailbox()):
        for seq in (1, 2, 3):
            box.add(_Message(source=seq % 2, tag=7,
                             payload=np.arange(4) * seq, nwords=4,
                             arrival=float(seq), seq=seq))
        got = box.pop_match(ANY, 7)
        assert got.seq == 1, type(box).__name__
        np.testing.assert_array_equal(got.payload, np.arange(4))
        assert box.pop_match(ANY, ANY).seq == 2
        assert len(box) == 1


# --- whole-VM parity ---------------------------------------------------------


def _exchange_prog(p, dests, tags, sizes):
    def prog(comm):
        me = comm.rank
        # source-wildcard receives, tag-specific so barrier traffic (which
        # uses internal tags) can never race with the user messages
        inbound = {t: 0 for t in range(3)}
        for s in range(p):
            for d, t in zip(dests[s], tags[s]):
                if d == me:
                    inbound[t] += 1
        for d, t, n in zip(dests[me], tags[me], sizes[me]):
            yield from comm.send((me, t), dest=d, tag=t, nwords=n)
        got = []
        for t, count in inbound.items():
            for _ in range(count):
                got.append((yield from comm.recv(source=ANY, tag=t)))
        yield from comm.barrier()
        return sorted(got)

    return prog


def _run_both(prog, p):
    res_fast = VirtualMachine(p, SP2_1997, trace=True).run(prog)
    with reference_kernels():
        res_ref = VirtualMachine(p, SP2_1997, trace=True).run(prog)
    return res_fast, res_ref


def _assert_results_identical(a, b):
    assert a.returns == b.returns
    assert a.clocks == b.clocks  # bit-identical virtual clocks
    assert a.makespan == b.makespan
    assert a.total_messages == b.total_messages
    assert a.total_words == b.total_words
    assert a.busy_per_rank == b.busy_per_rank
    assert a.idle_per_rank == b.idle_per_rank
    assert a.nodes == b.nodes  # identical causal record, node for node
    assert a.msgs == b.msgs


@given(seed=st.integers(0, 1000), p=st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_vm_parity_on_random_exchanges(seed, p):
    rng = np.random.default_rng(seed)
    nmsg = [int(rng.integers(0, 4)) for _ in range(p)]
    dests = [[int(x) for x in rng.integers(0, p, nmsg[r])] for r in range(p)]
    tags = [[int(x) for x in rng.integers(0, 3, nmsg[r])] for r in range(p)]
    sizes = [[int(x) for x in rng.integers(1, 200, nmsg[r])]
             for r in range(p)]
    res_fast, res_ref = _run_both(_exchange_prog(p, dests, tags, sizes), p)
    _assert_results_identical(res_fast, res_ref)


@pytest.mark.parametrize("p", [2, 4])
def test_vm_parity_on_wildcard_specificity_mix(p):
    """Receives from most-specific to least-specific match classes."""

    def prog(comm):
        if comm.rank == 0:
            for s in range(1, comm.size):
                _ = yield from comm.recv(source=s, tag=1)  # exact (s, t)
            for _ in range(1, comm.size):
                _ = yield from comm.recv(source=ANY, tag=2)  # (ANY, t)
            for _ in range(1, comm.size):
                _ = yield from comm.recv(source=ANY, tag=ANY)  # (ANY, ANY)
        else:
            yield from comm.compute(comm.rank * 7)
            for tag in (1, 2, 3):
                yield from comm.send(comm.rank, dest=0, tag=tag, nwords=4)
        yield from comm.barrier()

    res_fast, res_ref = _run_both(prog, p)
    _assert_results_identical(res_fast, res_ref)


def test_vm_parity_with_probes():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.elapse(0.01)
            yield from comm.send("late", dest=1, tag=1, nwords=8)
        else:
            req = yield from comm.irecv(source=0, tag=1)
            done, val = yield from req.test()
            polls = 1
            while not done:
                yield from comm.elapse(0.001)
                done, val = yield from req.test()
                polls += 1
            return val, polls

    res_fast, res_ref = _run_both(prog, 2)
    _assert_results_identical(res_fast, res_ref)


def test_vm_parity_with_queued_ndarray_payloads():
    """Several ndarray messages must queue in the receiver's mailbox (the
    receiver computes first, so nothing is direct-delivered) and then be
    drained through wildcard receives — the shape that used to crash the
    reference mailbox's equality-based removal."""

    def prog(comm):
        me = comm.rank
        if me == 0:
            yield from comm.compute(5000)  # let every sender's msg queue up
            total = 0.0
            for _ in range(comm.size - 1):
                data = yield from comm.recv(source=ANY, tag=4)
                total += float(data.sum())
            return total
        yield from comm.compute(me)
        yield from comm.send(np.full(3, float(me)), dest=0, tag=4, nwords=3)

    res_fast, res_ref = _run_both(prog, 5)
    _assert_results_identical(res_fast, res_ref)
    assert res_fast.returns[0] == sum(3.0 * m for m in range(1, 5))
