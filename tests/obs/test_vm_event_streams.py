"""Every scheduler op kind must reach both views of the causal record.

Regression for the elapse gap: an ``ElapseOp`` is as visible as any other
operation — one causal node per op in the tracer's stream and in the
``RunResult``'s, on both scheduler paths (the columnar lazy one and the
eager reference one), carrying the programs' seconds — and a traced run
writes one ``vm.run`` marker, never one event per op.
"""

from contextlib import nullcontext

import pytest

from repro.obs import Tracer
from repro.parallel import SP2_1997, VirtualMachine
from tests.kernels.oracles import reference_kernels


def _prog(comm):
    yield from comm.compute(5)
    yield from comm.elapse(0.125 * (comm.rank + 1))
    nxt = (comm.rank + 1) % comm.size
    prev = (comm.rank - 1) % comm.size
    yield from comm.send("x", dest=nxt, tag=1, nwords=2)
    _ = yield from comm.recv(source=prev, tag=1)


def _run(nranks, reference, **kw):
    tracer = Tracer()
    with reference_kernels() if reference else nullcontext():
        res = VirtualMachine(nranks, SP2_1997, tracer=tracer, **kw).run(_prog)
    return tracer, res


@pytest.mark.parametrize("reference", [False, True])
def test_every_op_kind_in_both_streams(reference):
    tracer, res = _run(2, reference, trace=True)

    kinds = [n.kind for n in tracer.causal_nodes]
    for kind in ("work", "elapse", "send", "recv"):
        assert kinds.count(kind) == 2, (reference, kind)
    # one marker per run; the ops themselves are nodes, not events
    assert [e.name for e in tracer.events] == ["vm.run"]
    assert tracer.events[0].attrs["nodes"] == len(tracer.causal_nodes) == 8

    # the elapse nodes carry the programs' seconds, rank-tagged
    elapses = [n for n in tracer.causal_nodes if n.kind == "elapse"]
    assert sorted(
        (n.rank, pytest.approx(n.t_end - n.t_start)) for n in elapses
    ) == [(0, 0.125), (1, 0.25)]
    # and the RunResult view is the same record
    assert res.nodes == tracer.causal_nodes
    assert res.msgs == tracer.causal_msgs


def test_causal_record_identical_across_paths():
    fast, _ = _run(3, reference=False)
    ref, _ = _run(3, reference=True)
    assert fast.causal_nodes == ref.causal_nodes
    assert fast.causal_msgs == ref.causal_msgs
    assert [(e.name, e.v_time, e.attrs) for e in fast.events] == [
        (e.name, e.v_time, e.attrs) for e in ref.events
    ]
