"""Every field of the resolution-6 sweep a cost or a count lives in, as digests.

``test_golden_series.py`` pins the six leaf phases, the imbalances, the
accept flag and the moved counts of each cycle.  This file pins the rest
of what a ``StepReport`` carries that is not host time — every
``*_time`` field, the ``Decision``, the ``RemapStats`` arrays, the
remap's VM makespan and messages, the growth factor and the mesh sizes —
and every Table 2 row but its ``reassign_seconds`` (host wall time).
One 16-hex ``blake2b`` digest per cycle, so a failure names the cycle
that moved.  The cycles come from ``run_step``'s memo, the ones the
golden series already ran.

A change to the modelled results regenerates the table with

    PYTHONPATH=src python -m tests.experiments.test_sweep_digest
"""

import hashlib
from functools import lru_cache

import numpy as np

from repro.experiments import CASE_NAMES, SWEEP_PROCS, case_for, run_step
from repro.experiments.table2 import mapper_comparison

RESOLUTION = 6

#: ("sweep", strategy, remap order, P) | ("table2",) -> digest
PINNED = {
    ('sweep', 'Real_1', 'after', 1): '7ba847ab67c098e0',
    ('sweep', 'Real_1', 'after', 2): '14f40481a82ab890',
    ('sweep', 'Real_1', 'after', 4): '7168f1d706a2be7c',
    ('sweep', 'Real_1', 'after', 8): 'cf929d2233f85107',
    ('sweep', 'Real_1', 'after', 16): '0d8647d06c0da171',
    ('sweep', 'Real_1', 'after', 32): '7c52a4e128702b5e',
    ('sweep', 'Real_1', 'after', 64): 'e9c0e6997f788a75',
    ('sweep', 'Real_1', 'before', 1): '7ba847ab67c098e0',
    ('sweep', 'Real_1', 'before', 2): 'f038ce87d98d2f7c',
    ('sweep', 'Real_1', 'before', 4): 'ccc81e8c97392580',
    ('sweep', 'Real_1', 'before', 8): 'e33239c3c91dc1fd',
    ('sweep', 'Real_1', 'before', 16): '1e8ef8f73a1f879e',
    ('sweep', 'Real_1', 'before', 32): '2a22b75d8153dc33',
    ('sweep', 'Real_1', 'before', 64): 'd0127e7f45e8e111',
    ('sweep', 'Real_2', 'after', 1): '5d2b15f5e6c1763d',
    ('sweep', 'Real_2', 'after', 2): '4e22724ae5666ddf',
    ('sweep', 'Real_2', 'after', 4): '34b374776e66125d',
    ('sweep', 'Real_2', 'after', 8): '2245aa30416cb031',
    ('sweep', 'Real_2', 'after', 16): 'e6627abfae0a7a2b',
    ('sweep', 'Real_2', 'after', 32): 'ef9f739c1e578ca1',
    ('sweep', 'Real_2', 'after', 64): 'd64ca7603fad55a6',
    ('sweep', 'Real_2', 'before', 1): '5d2b15f5e6c1763d',
    ('sweep', 'Real_2', 'before', 2): '404c2d0c5ca17347',
    ('sweep', 'Real_2', 'before', 4): '71ea603513423212',
    ('sweep', 'Real_2', 'before', 8): 'f0052dabd0ae2dc9',
    ('sweep', 'Real_2', 'before', 16): '05e0b31cfa484b9d',
    ('sweep', 'Real_2', 'before', 32): 'b28d93726c8c6404',
    ('sweep', 'Real_2', 'before', 64): '9cd037d55a5acba9',
    ('sweep', 'Real_3', 'after', 1): 'ea1969f277cef0d2',
    ('sweep', 'Real_3', 'after', 2): '44934fd459919210',
    ('sweep', 'Real_3', 'after', 4): '02341e737e3dd024',
    ('sweep', 'Real_3', 'after', 8): '55e396402999a8a4',
    ('sweep', 'Real_3', 'after', 16): '49af33a571008620',
    ('sweep', 'Real_3', 'after', 32): '7f134ab04ca16c07',
    ('sweep', 'Real_3', 'after', 64): 'ba1fd500bb8e589d',
    ('sweep', 'Real_3', 'before', 1): 'ea1969f277cef0d2',
    ('sweep', 'Real_3', 'before', 2): '3947eb129dab8c2d',
    ('sweep', 'Real_3', 'before', 4): '561db5011e7b5a0f',
    ('sweep', 'Real_3', 'before', 8): 'b814f0c6d6ba0db7',
    ('sweep', 'Real_3', 'before', 16): '977c10a7f42bd955',
    ('sweep', 'Real_3', 'before', 32): '9ad411dab8731941',
    ('sweep', 'Real_3', 'before', 64): '7d0cfcf0d7a8a2ec',
    ('table2',): 'c2e89738763f660c',
}


def _digest(*values) -> str:
    h = hashlib.blake2b(digest_size=8)
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
        h.update(b"|")
    return h.hexdigest()


def _cycle_values(rep):
    d, st, rm = rep.decision, rep.stats, rep.remap
    return (
        rep.marking_time, rep.partition_time, rep.reassign_time,
        rep.gather_scatter_time, rep.remap_time, rep.subdivision_time,
        rep.total_time, rep.imbalance_before, rep.imbalance_after,
        rep.repartition_triggered, rep.accepted, rep.growth_factor,
        sorted(rep.mesh_sizes.items()),
        None if d is None else (d.gain, d.cost, d.accept, d.w_max_old,
                                d.w_max_new, d.refine_credit),
        None if st is None else (st.objective, st.c_total, st.n_total,
                                 st.max_sent, st.max_received, st.c_max,
                                 st.n_max, st.bottleneck),
        None if st is None else st.sent,
        None if st is None else st.received,
        None if rm is None else (rm.time_seconds, rm.elements_moved,
                                 rm.messages, rm.words_moved),
        None if rm is None else rm.new_owner,
    )


@lru_cache(maxsize=None)
def _computed():
    digests = {
        ("sweep", name, mode, p): _digest(
            *_cycle_values(run_step(RESOLUTION, name, mode, p))
        )
        for name in CASE_NAMES
        for mode in ("after", "before")
        for p in SWEEP_PROCS
    }
    rows = mapper_comparison(case_for(RESOLUTION))
    digests["table2",] = _digest(*(
        (r.nproc, r.method, r.max_sent_recv, r.total_elems) for r in rows
    ))
    return digests


def test_sweep_matches_pinned_digests():
    got = _computed()
    assert set(got) == set(PINNED)
    moved = [key for key in sorted(PINNED) if got[key] != PINNED[key]]
    assert not moved, f"{len(moved)} rows moved, first {moved[0]}"


if __name__ == "__main__":
    print("PINNED = {")
    for key, digest in sorted(_computed().items()):
        print(f"    {key!r}: {digest!r},")
    print("}")
