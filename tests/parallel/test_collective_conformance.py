"""The communicator's collectives and the point-to-point patterns rank
programs build from ``send`` / ``recv``, checked against a sequential
reference, then the same suite re-run on every registered backend.

The reference results are computed host-side in plain Python from the same
per-rank payloads the rank program is handed, so the test pins *semantics*
(who gets which payload, and in which combine order), not a particular
schedule.  The reduction op is string concatenation — associative but not
commutative — so any deviation from rank-order combining fails loudly.

The backend parameterization proves every backend payload-identical to
the reference: one combined rank program runs every pattern in sequence
and the full per-rank result dicts must compare equal to the reference
(and hence to each other) on every backend.
"""

import operator
import random

import pytest

from repro.parallel import (
    ANY,
    IDEAL,
    VirtualMachine,
    available_backends,
    create_communicator,
)
from repro.parallel.runtime import RecvOp, per_rank

SIZES = [1, 2, 3, 4, 5, 7, 8]
SEEDS = [0, 1, 2]
#: Real-process backends fork one process per rank; keep P modest there.
BACKEND_SIZES = [1, 2, 4]


def _payloads(p, rng):
    """One structured payload per rank; ``s`` carries the ordering probe."""
    return [
        {
            "rank": r,
            "n": rng.randrange(1000),
            "blob": [rng.randrange(100) for _ in range(rng.randrange(1, 5))],
            "s": f"<{r}:{rng.randrange(100)}>",
        }
        for r in range(p)
    ]


def _make_case(p, seed):
    """Inputs (host-side) and the expected per-rank result dicts."""
    rng = random.Random(97 * seed + p)
    payloads = _payloads(p, rng)
    a2a = [[f"{src}->{dst}:{rng.randrange(100)}" for dst in range(p)]
           for src in range(p)]
    root = rng.randrange(p)
    s = [payloads[r]["s"] for r in range(p)]
    expected = [
        {
            "allreduce": "".join(s),
            "max": max(pl["n"] for pl in payloads),
            "ring": payloads[(r - 1) % p],
            "gather": payloads if r == root else None,
            "alltoall": [a2a[src][r] for src in range(p)],
            "barrier": "ok",
        }
        for r in range(p)
    ]
    return (per_rank(payloads), per_rank(a2a), root), expected


def conformance_program(comm, mine, a2a_row, root):
    """Run every pattern once; return the per-rank result dict."""
    me, p = comm.rank, comm.size
    out = {}
    out["allreduce"] = yield from comm.allreduce(mine["s"], op=operator.add)
    out["max"] = yield from comm.allreduce(mine["n"], op=max)
    # ring shift on a named source
    yield from comm.send(mine, dest=(me + 1) % p, tag=3)
    out["ring"] = yield from comm.recv(source=(me - 1) % p, tag=3)
    # gather: the root places each source-wildcard receive by its source
    yield from comm.send(mine, dest=root, tag=4)
    out["gather"] = None
    if me == root:
        out["gather"] = [None] * p
        for _ in range(p):
            payload, src, _tag = yield RecvOp(ANY, 4)
            out["gather"][src] = payload
    # personalised all-to-all, pairwise-exchange schedule
    out["alltoall"] = [None] * p
    out["alltoall"][me] = a2a_row[me]
    for k in range(1, p):
        yield from comm.send(a2a_row[(me + k) % p], dest=(me + k) % p, tag=5)
        out["alltoall"][(me - k) % p] = yield from comm.recv(
            source=(me - k) % p, tag=5
        )
    yield from comm.barrier()
    out["barrier"] = "ok"
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", SIZES)
def test_collectives_match_sequential_reference(p, seed):
    args, expected = _make_case(p, seed)
    res = VirtualMachine(p, IDEAL).run(conformance_program, *args)
    assert res.returns == expected


@pytest.mark.parametrize("p", BACKEND_SIZES)
@pytest.mark.parametrize("backend", available_backends())
def test_backends_are_payload_identical(backend, p):
    args, expected = _make_case(p, seed=0)
    comm = create_communicator(backend, p, machine=IDEAL, timeout=60.0)
    res = comm.run(conformance_program, *args)
    assert res.returns == expected
    assert res.backend == backend
