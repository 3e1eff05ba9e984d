"""Observable equivalence of the product's mailbox and the oracle's.

The product keeps a rank's unmatched messages in one send-ordered list
and takes the *first* match (:func:`~repro.parallel.runtime._take`); the
:class:`~tests.kernels.oracles._ListMailbox` reference scans its whole
list for the minimum-``seq`` match.  Under the virtual machine's
invariant (adds in ``seq`` order) the two must pop the same message every
time, ``ANY`` wildcards included, and hold the same messages after.
The whole-VM half runs the same randomized programs under both
schedulers and requires bit-identical results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ANY, SP2_1997, VirtualMachine
from repro.parallel.runtime import _take
from tests.fixtures import msgs_of, nodes_of
from tests.kernels.oracles import (
    _ListMailbox,
    _Message,
    assert_derived_traffic,
    reference_kernels,
)


# --- data-structure parity ---------------------------------------------------

NSOURCES = NTAGS = 3

_ADD = st.tuples(
    st.just("add"),
    st.integers(0, NSOURCES - 1),
    st.integers(0, NTAGS - 1),
)
_POP = st.tuples(
    st.just("pop"),
    st.sampled_from([ANY, *range(NSOURCES)]),
    st.sampled_from([ANY, *range(NTAGS)]),
)

def _both(*messages):
    """The product's list and the oracle's mailbox, holding ``messages``."""
    box, ref = [], _ListMailbox()
    for m in messages:
        box.append(tuple(m))
        ref.add(m)
    return box, ref


@given(st.lists(st.one_of(_ADD, _POP), max_size=80))
@settings(max_examples=150, deadline=None)
def test_mailboxes_observably_equivalent(script):
    box, ref = [], _ListMailbox()
    seq = 0
    for kind, source, tag in script:
        if kind == "add":
            seq += 1
            msg = _Message(seq, float(seq), seq, 1, source, tag)
            box.append(tuple(msg))
            ref.add(msg)
        else:
            assert _take(box, source, tag) == ref.pop_match(source, tag)
        assert box == list(ref)  # the same messages, in the same order


def test_pop_match_is_globally_fifo_across_buckets():
    """The oldest match wins across ``(source, tag)`` streams."""
    box, ref = _both(_Message(1, 0.0, "a", 1, 0, 7),
                     _Message(2, 0.0, "b", 1, 1, 5))
    assert _take(box, ANY, ANY) == ref.pop_match(ANY, ANY)
    assert box == list(ref) == [(2, 0.0, "b", 1, 1, 5)]


def test_pop_match_with_ndarray_payloads():
    """Regression: removal must be by index, never by equality.

    ``list.remove`` would invoke the tuple ``__eq__``, which raises
    ``The truth value of an array ... is ambiguous`` the moment two
    ndarray-payload messages have to be compared — i.e. whenever more
    than one message is queued, the common case under load.
    """
    msgs = [_Message(seq, float(seq), np.arange(4) * seq, 4, seq % 2, 7)
            for seq in (1, 2, 3)]
    box, ref = _both(*msgs)
    for take in (lambda s, t: _take(box, s, t), ref.pop_match):
        got = take(ANY, 7)
        assert got[0] == 1
        np.testing.assert_array_equal(got[2], np.arange(4))
        assert take(ANY, ANY)[0] == 2
    assert len(box) == len(ref) == 1


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
    assert_derived_traffic(a, b)  # busy, idle and waits, read off the record
    assert nodes_of(a) == nodes_of(b)  # identical causal record, node for node
    assert msgs_of(a) == msgs_of(b)


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
