"""Every field of the resolution-6 sweep a cost or a count lives in, as digests.

``test_golden_series.py`` pins the six leaf phases, the imbalances, the
accept flag and the moved counts of each cycle.  This file pins the rest
of what a ``StepReport`` carries that is not host time — every
``*_time`` field, the ``Decision``, the ``RemapStats`` arrays, the
remap's VM makespan and messages, the growth factor and the mesh sizes —
and every Table 2 row but its ``reassign_seconds`` (host wall time).
Each cycle has two 16-hex ``blake2b`` digests, so a failure names the
cycle that moved and which half: :data:`PINNED` covers what the
balancer decides and moves (the ``Decision``, ``RemapStats``, the remap,
the partition / reassign / remap times, the growth factor, the mesh
sizes), :data:`REPRICED` the clocks of the adaption phases and the §4.3
gather/scatter and the total they enter.  A change to how those phases
are priced moves only :data:`REPRICED`.  The cycles come from
``run_step``'s memo, the ones the golden series already ran.

A change to the modelled results regenerates both tables with

    PYTHONPATH=src python -m tests.experiments.test_sweep_digest
"""

import hashlib
from functools import lru_cache

import numpy as np

from repro.experiments import CASE_NAMES, SWEEP_PROCS, case_for, run_step
from repro.experiments.table2 import mapper_comparison

RESOLUTION = 6

#: ("sweep", strategy, remap order, P) | ("table2",) -> digest of what
#: the balancer decides and moves
PINNED = {
    ('sweep', 'Real_1', 'after', 1): 'a74f35400141a871',
    ('sweep', 'Real_1', 'after', 2): '3ec1379c1eaa661c',
    ('sweep', 'Real_1', 'after', 4): 'aeb39caa20f78913',
    ('sweep', 'Real_1', 'after', 8): '1c8a1f166d4f3484',
    ('sweep', 'Real_1', 'after', 16): 'bb0cf74acea6b484',
    ('sweep', 'Real_1', 'after', 32): 'b70b268a4017d986',
    ('sweep', 'Real_1', 'after', 64): '44f8391edb0c6694',
    ('sweep', 'Real_1', 'before', 1): 'a74f35400141a871',
    ('sweep', 'Real_1', 'before', 2): 'b25ad6578e1d3e02',
    ('sweep', 'Real_1', 'before', 4): '0be62612a3050055',
    ('sweep', 'Real_1', 'before', 8): '7c3d93c80744ee70',
    ('sweep', 'Real_1', 'before', 16): '2079da48ba78c3b2',
    ('sweep', 'Real_1', 'before', 32): 'c16cdd46914b4ad7',
    ('sweep', 'Real_1', 'before', 64): '9691e74b7f1d0fce',
    ('sweep', 'Real_2', 'after', 1): '221c38bc40ebf72f',
    ('sweep', 'Real_2', 'after', 2): '0636bd03059bdb6e',
    ('sweep', 'Real_2', 'after', 4): '5e2f976e4b138b5a',
    ('sweep', 'Real_2', 'after', 8): '3c4986ea27416c63',
    ('sweep', 'Real_2', 'after', 16): '9db4ca5dceb8922d',
    ('sweep', 'Real_2', 'after', 32): 'd252a96b01445835',
    ('sweep', 'Real_2', 'after', 64): 'fb9ce1c0e05b0af3',
    ('sweep', 'Real_2', 'before', 1): '221c38bc40ebf72f',
    ('sweep', 'Real_2', 'before', 2): '01558707acf3b646',
    ('sweep', 'Real_2', 'before', 4): 'a4fdfa2ff309cb73',
    ('sweep', 'Real_2', 'before', 8): 'fbf47c1eb4ac962f',
    ('sweep', 'Real_2', 'before', 16): '6ebdbcc947e15910',
    ('sweep', 'Real_2', 'before', 32): 'f4cd208ee03f1adf',
    ('sweep', 'Real_2', 'before', 64): '8de9b381ad0c0d7f',
    ('sweep', 'Real_3', 'after', 1): 'fa49689badb6876f',
    ('sweep', 'Real_3', 'after', 2): 'baee2adf3d9fdbee',
    ('sweep', 'Real_3', 'after', 4): 'd50cd33dd5130a1a',
    ('sweep', 'Real_3', 'after', 8): 'e7198830d1cb0427',
    ('sweep', 'Real_3', 'after', 16): '6834ada5cee61a07',
    ('sweep', 'Real_3', 'after', 32): 'dbe2b531750a7d03',
    ('sweep', 'Real_3', 'after', 64): '207872fc9ec7d788',
    ('sweep', 'Real_3', 'before', 1): 'fa49689badb6876f',
    ('sweep', 'Real_3', 'before', 2): '7359528ee005d47d',
    ('sweep', 'Real_3', 'before', 4): '601989da88ad27fd',
    ('sweep', 'Real_3', 'before', 8): '9fa0b9e5163f2549',
    ('sweep', 'Real_3', 'before', 16): 'aac2edc6c03b21b5',
    ('sweep', 'Real_3', 'before', 32): 'c049dfee20bd9eb9',
    ('sweep', 'Real_3', 'before', 64): '33020155255880a6',
    ('table2',): 'c2e89738763f660c',
}

#: ("sweep", strategy, remap order, P) -> digest of the marking,
#: gather/scatter and subdivision clocks and the total time
REPRICED = {
    ('sweep', 'Real_1', 'after', 1): 'dcb522b987a5d1b3',
    ('sweep', 'Real_1', 'after', 2): 'efc4f937e22cf165',
    ('sweep', 'Real_1', 'after', 4): 'fa2259d5bf4ee4e7',
    ('sweep', 'Real_1', 'after', 8): '980f3a1c365c251f',
    ('sweep', 'Real_1', 'after', 16): '1ca1fd0f120bfead',
    ('sweep', 'Real_1', 'after', 32): '68b664cdfc566920',
    ('sweep', 'Real_1', 'after', 64): 'b7f3df7038788f19',
    ('sweep', 'Real_1', 'before', 1): 'dcb522b987a5d1b3',
    ('sweep', 'Real_1', 'before', 2): 'efc4f937e22cf165',
    ('sweep', 'Real_1', 'before', 4): '78a950d9551905fe',
    ('sweep', 'Real_1', 'before', 8): 'f364662e2c18ba6a',
    ('sweep', 'Real_1', 'before', 16): '8067107eb572fbac',
    ('sweep', 'Real_1', 'before', 32): '796d4ae3dfaa1c82',
    ('sweep', 'Real_1', 'before', 64): '556afdfe9fc644a1',
    ('sweep', 'Real_2', 'after', 1): '299ce73d44587e16',
    ('sweep', 'Real_2', 'after', 2): '7665a653b97e877b',
    ('sweep', 'Real_2', 'after', 4): 'e25e74f5e19ce38b',
    ('sweep', 'Real_2', 'after', 8): 'd242639c05277e9a',
    ('sweep', 'Real_2', 'after', 16): 'b89fa611a70a692d',
    ('sweep', 'Real_2', 'after', 32): 'fcc61306c1b56aa8',
    ('sweep', 'Real_2', 'after', 64): '6accff3944425e2a',
    ('sweep', 'Real_2', 'before', 1): '299ce73d44587e16',
    ('sweep', 'Real_2', 'before', 2): '7665a653b97e877b',
    ('sweep', 'Real_2', 'before', 4): 'a8421b7f5c52996d',
    ('sweep', 'Real_2', 'before', 8): '318c7e2f0921053b',
    ('sweep', 'Real_2', 'before', 16): '6f1da8e9220d4ca7',
    ('sweep', 'Real_2', 'before', 32): '9cbd07018f1c90f1',
    ('sweep', 'Real_2', 'before', 64): '811318a3ffe773ac',
    ('sweep', 'Real_3', 'after', 1): '9585ed1b9e942395',
    ('sweep', 'Real_3', 'after', 2): '3117a45e4b5bee72',
    ('sweep', 'Real_3', 'after', 4): '5a3d3eb2593469cb',
    ('sweep', 'Real_3', 'after', 8): 'f72ac4f289ca8cac',
    ('sweep', 'Real_3', 'after', 16): '2825275c7584529c',
    ('sweep', 'Real_3', 'after', 32): '05a58fde829eecd8',
    ('sweep', 'Real_3', 'after', 64): '9f8441fd74d65cc1',
    ('sweep', 'Real_3', 'before', 1): '9585ed1b9e942395',
    ('sweep', 'Real_3', 'before', 2): '3117a45e4b5bee72',
    ('sweep', 'Real_3', 'before', 4): 'd24e0ddefc44168b',
    ('sweep', 'Real_3', 'before', 8): '5a50f81cae771219',
    ('sweep', 'Real_3', 'before', 16): '24897edb39b0de72',
    ('sweep', 'Real_3', 'before', 32): '3d1c330c05fb37af',
    ('sweep', 'Real_3', 'before', 64): '934289a6167547fb',
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


def _repriced_values(rep):
    return (rep.marking_time, rep.gather_scatter_time, rep.subdivision_time,
            rep.total_time)


def _cycle_values(rep):
    d, st, rm = rep.decision, rep.stats, rep.remap
    return (
        rep.partition_time, rep.reassign_time, rep.remap_time,
        rep.imbalance_before, rep.imbalance_after,
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
    """``(pinned, repriced)`` digest tables, computed once per process."""
    cells = [(name, mode, p) for name in CASE_NAMES
             for mode in ("after", "before") for p in SWEEP_PROCS]
    reps = {c: run_step(RESOLUTION, *c) for c in cells}
    pinned = {("sweep", *c): _digest(*_cycle_values(reps[c])) for c in cells}
    rows = mapper_comparison(case_for(RESOLUTION))
    pinned["table2",] = _digest(*(
        (r.nproc, r.method, r.max_sent_recv, r.total_elems) for r in rows
    ))
    repriced = {("sweep", *c): _digest(*_repriced_values(reps[c]))
                for c in cells}
    return pinned, repriced


def _assert_unmoved(got, want):
    assert set(got) == set(want)
    moved = [key for key in sorted(want) if got[key] != want[key]]
    assert not moved, f"{len(moved)} rows moved, first {moved[0]}"


def test_sweep_matches_pinned_digests():
    _assert_unmoved(_computed()[0], PINNED)


def test_repriced_phases_match_pinned_digests():
    _assert_unmoved(_computed()[1], REPRICED)


if __name__ == "__main__":
    for name, table in zip(("PINNED", "REPRICED"), _computed()):
        print(f"{name} = {{")
        for key, digest in sorted(table.items()):
            print(f"    {key!r}: {digest!r},")
        print("}")
