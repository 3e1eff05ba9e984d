"""Every scheduler op kind must reach both views of the causal record.

Each operation is one causal node in the tracer's stream and in the
``RunResult``'s, on both scheduler paths (the columnar lazy one and the
eager reference one), carrying the seconds the program charged — and a
traced run writes one ``vm.run`` marker, never one event per op.  The
machine's ``t_work`` of 1.0 makes ``compute(s)`` charge exactly ``s``.
"""

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.obs import Tracer
from repro.parallel import SP2_1997, VirtualMachine
from tests.fixtures import causal_msgs, causal_nodes, msgs_of, nodes_of
from tests.kernels.oracles import reference_kernels

WORK_SECONDS = replace(SP2_1997, t_work=1.0)


def _prog(comm):
    yield from comm.compute(5e-6)
    yield from comm.compute(0.125 * (comm.rank + 1))
    nxt = (comm.rank + 1) % comm.size
    prev = (comm.rank - 1) % comm.size
    yield from comm.send("x", dest=nxt, tag=1, nwords=2)
    _ = yield from comm.recv(source=prev, tag=1)


def _run(nranks, reference, **kw):
    tracer = Tracer()
    with reference_kernels() if reference else nullcontext():
        res = VirtualMachine(nranks, WORK_SECONDS, tracer=tracer,
                             **kw).run(_prog)
    return tracer, res


@pytest.mark.parametrize("reference", [False, True])
def test_every_op_kind_in_both_streams(reference):
    tracer, res = _run(2, reference, trace=True)

    kinds = [n.kind for n in causal_nodes(tracer)]
    for kind, count in (("work", 4), ("send", 2), ("recv", 2)):
        assert kinds.count(kind) == count, (reference, kind)
    # one marker per run; the ops themselves are nodes, not events
    assert [e.name for e in tracer.events] == ["vm.run"]
    assert tracer.events[0].attrs["nodes"] == len(causal_nodes(tracer)) == 8

    # the second work node of each rank carries the program's seconds
    works = [n for n in causal_nodes(tracer) if n.kind == "work"]
    assert sorted(
        (n.rank, pytest.approx(n.t_end - n.t_start))
        for n in works if n.t_end - n.t_start > 1e-3
    ) == [(0, 0.125), (1, 0.25)]
    # and the RunResult view is the same record
    assert nodes_of(res) == causal_nodes(tracer)
    assert msgs_of(res) == causal_msgs(tracer)


def test_causal_record_identical_across_paths():
    fast, _ = _run(3, reference=False)
    ref, _ = _run(3, reference=True)
    assert causal_nodes(fast) == causal_nodes(ref)
    assert causal_msgs(fast) == causal_msgs(ref)
    assert [(e.name, e.v_time, e.attrs) for e in fast.events] == [
        (e.name, e.v_time, e.attrs) for e in ref.events
    ]
