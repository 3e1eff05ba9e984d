"""The cycle's marking, subdivision and §4.3 gather/scatter as rank programs.

The cycle adapts one global mesh; these programs run on the virtual
machine only to price each phase, the way
:func:`~repro.core.remap.execute_remap` prices the remap, so every phase
of a cycle has its clock, per-rank traffic and critical path from the one
scheduler.

* **Marking** (paper §3): one round per propagation round.  A rank
  examines the elements it touches (round 1: all of its own; later
  rounds: those adjacent to an edge marked in the round before), sends
  one message to each SPL neighbour it shares newly marked edges with
  (one word per edge), receives the matching messages, and joins an
  ``allreduce`` of "changed".  Everything is derived from the round in
  which each edge was first marked (:attr:`MarkingResult.edge_round`).
* **Subdivision**: each rank computes ``SUBDIV_WORK_PER_CHILD`` units per
  child its elements create; remapping *before* subdivision balances
  exactly this phase.
* **Gather/scatter** (§4.3): each rank sends its row of the similarity
  matrix (P·F integers) to rank 0, which receives them in arrival order
  and sends the partition-to-processor mapping back.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.adapt.marking import MarkingResult
from repro.adapt.refine import SUBDIV_WORK_PER_CHILD
from repro.dist._launch import launch
from repro.mesh.tetmesh import TetMesh

__all__ = [
    "price_gather_scatter",
    "price_marking",
    "price_subdivision",
]

_TAG_MARK = 31
_TAG_ROW = 32
_TAG_MAP = 33


def _edge_rank_incidence(elem2edge: np.ndarray, part: np.ndarray):
    """CSR-ish map: for each edge of ``elem2edge``'s elements, the sorted
    unique ranks of those elements touching it.

    One value sort of the packed keys ``edge·nranks + rank`` over the
    ``6·ne`` element-edge incidences; the distinct keys, unpacked, are the
    (edge, rank) pairs in edge-then-rank order.
    """
    part = np.asarray(part, dtype=np.int64)
    nranks = int(part.max()) + 1 if part.size else 1
    keys = elem2edge * nranks
    keys += part[:, None]
    keys = np.sort(keys, axis=None)
    keep = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    return keys // nranks, keys % nranks


def _edge_rank_pairs(edge_ranks):
    """Ordered distinct rank pairs (src, dst, edge) of every edge's SPL:
    every rank touching an edge sends its copy's id to every other rank
    touching it, so only shared edges have pairs."""
    e_ids, r_ids = edge_ranks
    n = e_ids.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return empty, empty, empty
    starts = np.flatnonzero(np.r_[True, e_ids[1:] != e_ids[:-1]])
    counts = np.diff(np.r_[starts, n])
    npair = counts * (counts - 1)
    total = int(npair.sum())
    if total == 0:
        return empty, empty, empty
    seg = np.repeat(np.arange(starts.shape[0]), npair)
    offsets = np.cumsum(npair) - npair
    p = np.arange(total) - offsets[seg]
    km1 = (counts - 1)[seg]
    a = p // km1
    b = p % km1
    b = b + (b >= a)  # skip the diagonal: b ranges over positions != a
    src = r_ids[starts[seg] + a]
    dst = r_ids[starts[seg] + b]
    pair_edge = e_ids[starts[seg]]
    return src, dst, pair_edge


def marking_schedule(mesh: TetMesh, owner: np.ndarray,
                     marking: MarkingResult, nproc: int):
    """Every marking round's work and SPL exchange, from the edge rounds.

    Returns ``(work, msgs)``: ``work[k, r]`` is the number of elements
    rank ``r`` examines in round ``k + 1``, and ``msgs`` an ``(m, 4)``
    array of ``(k, src, dst, nwords)`` rows, one per message of round
    ``k + 1``, sorted by ``(k, src, dst)``.  The exchange is symmetric:
    ``src`` sends ``dst`` as many words as it receives from it.
    """
    owner = np.asarray(owner, dtype=np.int64)
    rounds = marking.iterations
    edge_round = marking.edge_round
    work = np.zeros((rounds, nproc), dtype=np.int64)
    work[0] = np.bincount(owner, minlength=nproc)
    # round k + 1 examines the elements adjacent to an edge marked in round
    # k: count each element once per distinct round among its edges.  These
    # rows hold every element touching an edge marked after round 0, so
    # they alone give those edges' SPLs.
    e2r = edge_round[mesh.elem2edge]
    rows = np.flatnonzero((e2r > 0).any(axis=1))
    if rows.shape[0]:
        r = np.sort(e2r[rows], axis=1)
        keep = r > 0
        keep[:, 1:] &= r[:, 1:] != r[:, :-1]
        keys = (r - 1) * nproc + owner[rows][:, None]
        work[1:] += np.bincount(
            keys[keep], minlength=(rounds - 1) * nproc
        ).reshape(rounds - 1, nproc)

    src, dst, pair_edge = _edge_rank_pairs(
        _edge_rank_incidence(mesh.elem2edge[rows], owner[rows]))
    k = edge_round[pair_edge].astype(np.int64)
    sel = k > 0
    keys = np.sort(((k[sel] - 1) * nproc + src[sel]) * nproc + dst[sel])
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    uniq = keys[starts]
    msgs = np.column_stack((
        uniq // (nproc * nproc), uniq // nproc % nproc, uniq % nproc,
        np.diff(np.r_[starts, keys.shape[0]]),
    ))
    return work, msgs


def _marking_program(comm, _real_wire, rounds):
    for work, sends, changed in rounds:
        yield from comm.compute(work)
        for dest, nwords in sends:
            yield from comm.send(nwords, dest=dest, tag=_TAG_MARK,
                                 nwords=nwords)
        for _ in sends:  # the exchange is symmetric
            yield from comm.recv(tag=_TAG_MARK)
        yield from comm.allreduce(changed, op=operator.or_)


def price_marking(mesh: TetMesh, owner: np.ndarray, marking: MarkingResult,
                  nproc: int, machine):
    """Run the marking loop's schedule on the virtual machine; returns the
    run result (its makespan is the phase's virtual seconds)."""
    work, msgs = marking_schedule(mesh, owner, marking, nproc)
    rounds = [[(int(w), [], bool(nxt))
               for w, nxt in zip(work[:, r], np.r_[work[1:, r], 0])]
              for r in range(nproc)]
    for k, src, dst, nwords in msgs.tolist():
        rounds[src][k][1].append((dst, nwords))
    return launch(_marking_program, rounds,
                  phase="marking", machine=machine, backend="virtual")


def _subdivision_program(comm, _real_wire, children):
    yield from comm.compute(SUBDIV_WORK_PER_CHILD * children)


def price_subdivision(owner: np.ndarray, child_count: np.ndarray,
                      nproc: int, machine):
    """Run each rank's subdivision work (per child its elements create)
    on the virtual machine; returns the run result."""
    children = np.bincount(owner, weights=child_count.astype(np.float64),
                           minlength=nproc)
    return launch(_subdivision_program, children.tolist(),
                  phase="subdivision", machine=machine, backend="virtual")


def _gather_scatter_program(comm, _real_wire, npart):
    if comm.rank:
        yield from comm.send(npart, dest=0, tag=_TAG_ROW, nwords=npart)
        yield from comm.recv(source=0, tag=_TAG_MAP)
        return
    for _ in range(comm.size - 1):
        yield from comm.recv(tag=_TAG_ROW)
    for r in range(1, comm.size):
        yield from comm.send(npart, dest=r, tag=_TAG_MAP, nwords=npart)


def price_gather_scatter(nproc: int, npart: int, machine):
    """Run the §4.3 host gather of the similarity rows and the scatter of
    the mapping (``npart`` words each way per rank) on the virtual
    machine; returns the run result."""
    return launch(_gather_scatter_program, [npart] * nproc,
                  phase="gather_scatter", machine=machine, backend="virtual")
