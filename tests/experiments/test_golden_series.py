"""Golden series: the paper's numbers on the modelled clock, pinned.

Every figure of the paper's §5 is a view of one sweep — a single
adapt/balance cycle per (strategy, remap order, P) — so pinning each
cell of that sweep pins Figs. 4, 5, 6 and 8 at once; Table 1's grid
sizes, Table 2's movement columns and the two virtual clocks of the
VM-vs-ledger cross-check complete the set.  All values are virtual
seconds, counts or ratios of counts: deterministic, compared with plain
``==``.  Resolution 6 is the one the shape claims in this directory hold
at (``conftest.py``).  The cycles run with no ambient tracer, so each
records its spans on a private clock starting at zero; under a shared
tracer the same durations are differences of larger numbers and their
last bits differ.

A change that is supposed to leave the modelled results alone — a faster
kernel, a refactor — must leave this file alone; a change that is
supposed to move them (a new cost mechanism) rebaselines it on purpose,
by pasting the output of

    PYTHONPATH=src python tests/experiments/test_golden_series.py

over ``GOLDEN`` below, and says so in its CHANGES.md entry.
"""

from functools import lru_cache

from repro.adapt.marking import propagate_markings
from repro.dist import decompose, parallel_mark
from repro.experiments import CASE_NAMES, SWEEP_PROCS, case_for, run_step
from repro.experiments.table1 import grid_sizes
from repro.experiments.table2 import mapper_comparison
from repro.parallel import SP2_1997, CostLedger
from repro.partition import Graph, multilevel_kway

RESOLUTION = 6

#: What the values of a row are, by the row key's first element.  A sweep
#: row is the six leaf phases of ``StepReport.phase_times()`` followed by
#: the report's own fields.
FIELDS = {
    "sweep": (
        "marking", "repartition", "gather_scatter", "reassign", "remap",
        "subdivision", "total_time", "imbalance_before", "imbalance_after",
        "accepted", "elements_moved", "words_moved",
    ),
    "table1": ("vertices", "elements", "edges", "bdy_faces"),
    "table2": ("total_elems", "max_sent_recv"),
    # Real_2 marking priced by the cost ledger and by the rank programs
    "vm_vs_ledger": ("ledger_seconds", "vm_seconds"),
}

#: ("sweep", strategy, remap order, P) | ("table1", row) |
#: ("table2", P, method) | ("vm_vs_ledger", P) -> that section's FIELDS
GOLDEN = {
    ('sweep', 'Real_1', 'after', 1): (
        0.0029869999999999996, 0.0, 0.0,
        0.0, 0.0, 0.12858,
        0.131567, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'after', 2): (
        0.0019369999999999997, 0.05808000000000001, 0.00015049999999999786,
        7.169925001437871e-06, 0.0, 0.06692,
        0.12709466992500143, 1.0401306579561362, 1.0401306579561362,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'after', 4): (
        0.0016715000000000002, 0.05784000000000001, 0.0004030000000000006,
        2.6844129532341277e-05, 0.003147999999999998, 0.03862,
        0.10170934412953235, 1.1983201119925337, 1.0461969202053196,
        True, 329, 7896,
    ),
    ('sweep', 'Real_1', 'after', 8): (
        0.00179025, 0.08452000000000001, 0.0008640000000000037,
        8.93994054600028e-05, 0.00563799999999999, 0.0279,
        0.12080164940546001, 1.726551563229118, 1.0471301913205786,
        True, 804, 19296,
    ),
    ('sweep', 'Real_1', 'after', 16): (
        0.0019505000000000002, 0.15046, 0.0017600000000000116,
        0.0002780850143339342, 0.004853999999999997, 0.016999999999999998,
        0.17630258501433396, 2.0905272981801213, 1.0452636490900606,
        True, 1812, 43488,
    ),
    ('sweep', 'Real_1', 'after', 32): (
        0.00230075, 0.28763, 0.00359799999999999,
        0.0007345767632060407, 0.0032480000000000286, 0.009849999999999998,
        0.30736132676320604, 2.3891740550629956, 1.0452636490900606,
        True, 2147, 51528,
    ),
    ('sweep', 'Real_1', 'after', 64): (
        0.002638, 0.563615, 0.007608000000000059,
        0.0018143978552713769, 0.0025760000000000227, 0.00642,
        0.5846713978552714, 3.0461969202053196, 1.2841810545963603,
        True, 2462, 59088,
    ),
    ('sweep', 'Real_1', 'before', 1): (
        0.0029869999999999996, 0.0, 0.0,
        0.0, 0.0, 0.12858,
        0.131567, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'before', 2): (
        0.0019369999999999997, 0.05808, 0.00015049999999999786,
        7.16992500144481e-06, 0.0, 0.06691999999999998,
        0.12709466992500143, 1.0401306579561362, 1.0401306579561362,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'before', 4): (
        0.0016715000000000002, 0.05784, 0.0004030000000000006,
        2.6844129532348215e-05, 0.0021680000000000033, 0.033729999999999996,
        0.09583934412953235, 1.1983201119925337, 1.0461969202053196,
        True, 191, 4584,
    ),
    ('sweep', 'Real_1', 'before', 8): (
        0.00179025, 0.08452000000000001, 0.0008640000000000037,
        8.93994054600028e-05, 0.00247, 0.016979999999999995,
        0.10671364940546002, 1.726551563229118, 1.0471301913205786,
        True, 332, 7968,
    ),
    ('sweep', 'Real_1', 'before', 16): (
        0.0019505000000000002, 0.15046, 0.0017600000000000116,
        0.0002780850143339342, 0.0023340000000000027, 0.008599999999999997,
        0.16538258501433395, 2.0905272981801213, 1.0452636490900606,
        True, 836, 20064,
    ),
    ('sweep', 'Real_1', 'before', 32): (
        0.00230075, 0.28763, 0.00359799999999999,
        0.0007345767632060407, 0.0017199999999999993, 0.0044500000000000095,
        0.300433326763206, 2.3891740550629956, 1.0452636490900606,
        True, 1134, 27216,
    ),
    ('sweep', 'Real_1', 'before', 64): (
        0.002638, 0.563615, 0.007608000000000059,
        0.0018143978552713769, 0.0015380000000000393, 0.0028799999999999937,
        0.5800933978552715, 3.0461969202053196, 1.2841810545963603,
        True, 1308, 31392,
    ),
    ('sweep', 'Real_2', 'after', 1): (
        0.002667, 0.0, 0.0,
        0.0, 0.0, 0.28995,
        0.29261699999999996, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'after', 2): (
        0.0015249999999999997, 0.05807999999999999, 0.00015049999999999786,
        7.169925001437871e-06, 0.0, 0.1478,
        0.20756266992500141, 1.0191412312467667, 1.0191412312467667,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'after', 4): (
        0.00109525, 0.057840000000000016, 0.0004029999999999867,
        2.6844129532355154e-05, 0.005961999999999995, 0.08545,
        0.15077709412953236, 1.1774443869632696, 1.0429384376616657,
        True, 459, 11016,
    ),
    ('sweep', 'Real_2', 'after', 8): (
        0.00088675, 0.08452, 0.0008640000000000037,
        0.00011584634845557273, 0.014537999999999995, 0.05508,
        0.15600459634845557, 1.5155716502845318, 1.0495602690118986,
        True, 2939, 70536,
    ),
    ('sweep', 'Real_2', 'after', 16): (
        0.0009795000000000001, 0.15046, 0.0017600000000000116,
        0.0002780850143339342, 0.007811999999999986, 0.03059,
        0.19187958501433394, 1.6769787894464563, 1.0495602690118986,
        True, 4114, 98736,
    ),
    ('sweep', 'Real_2', 'after', 32): (
        0.00114175, 0.28763, 0.00359799999999999,
        0.0006543888386355556, 0.004730000000000012, 0.0178,
        0.31555413883863553, 1.9368856699430936, 1.0495602690118986,
        True, 4582, 109968,
    ),
    ('sweep', 'Real_2', 'after', 64): (
        0.0012025, 0.563615, 0.007608000000000059,
        0.0016837027099745328, 0.003381999999999996, 0.010379999999999999,
        0.5878712027099746, 2.2249353336782205, 1.1654423176409725,
        True, 4935, 118440,
    ),
    ('sweep', 'Real_2', 'before', 1): (
        0.002667, 0.0, 0.0,
        0.0, 0.0, 0.28995,
        0.29261699999999996, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'before', 2): (
        0.0015249999999999997, 0.05808, 0.00015049999999999786,
        7.16992500144481e-06, 0.0, 0.1478,
        0.20756266992500141, 1.0191412312467667, 1.0191412312467667,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'before', 4): (
        0.00109525, 0.05784, 0.0004030000000000006,
        2.6844129532348215e-05, 0.0019860000000000017, 0.07570000000000002,
        0.13705109412953234, 1.1774443869632696, 1.0429384376616657,
        True, 139, 3336,
    ),
    ('sweep', 'Real_2', 'before', 8): (
        0.00088675, 0.08452000000000001, 0.0008640000000000037,
        0.00011584634845557273, 0.0042159999999999975, 0.03818999999999999,
        0.12879259634845558, 1.5155716502845318, 1.0495602690118986,
        True, 739, 17736,
    ),
    ('sweep', 'Real_2', 'before', 16): (
        0.0009795000000000001, 0.15046, 0.0017600000000000116,
        0.0002780850143339342, 0.002933999999999992, 0.019219999999999987,
        0.17563158501433396, 1.6769787894464563, 1.0495602690118986,
        True, 974, 23376,
    ),
    ('sweep', 'Real_2', 'before', 32): (
        0.00114175, 0.28763, 0.00359799999999999,
        0.0006543888386355556, 0.0018839999999999968, 0.009759999999999991,
        0.3046681388386355, 1.9368856699430936, 1.0495602690118986,
        True, 1061, 25464,
    ),
    ('sweep', 'Real_2', 'before', 64): (
        0.0012025, 0.563615, 0.007608000000000059,
        0.0016837027099745328, 0.0014539999999999553, 0.005580000000000029,
        0.5811432027099745, 2.2249353336782205, 1.1654423176409725,
        True, 1205, 28920,
    ),
    ('sweep', 'Real_3', 'after', 1): (
        0.0026889999999999996, 0.0, 0.0,
        0.0, 0.0, 0.43907999999999997,
        0.44176899999999997, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'after', 2): (
        0.001473, 0.05807999999999999, 0.00015049999999999786,
        7.169925001437871e-06, 0.0, 0.22219999999999998,
        0.2819106699250014, 1.0118884941240776, 1.0118884941240776,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'after', 4): (
        0.0009220000000000001, 0.05784, 0.0004029999999999867,
        2.192481250359868e-05, 0.011127999999999999, 0.13495,
        0.20526492481250358, 1.228477726154687, 1.0467340803498224,
        True, 777, 18648,
    ),
    ('sweep', 'Real_3', 'after', 8): (
        0.0007232500000000002, 0.08452, 0.0008640000000000037,
        0.00010246269524197271, 0.010583999999999982, 0.07580999999999999,
        0.17260371269524194, 1.3785187209620116, 1.0461874829188302,
        True, 2659, 63816,
    ),
    ('sweep', 'Real_3', 'after', 16): (
        0.0006905, 0.15046, 0.0017600000000000116,
        0.0002548452843167681, 0.011018, 0.040639999999999996,
        0.20482334528431678, 1.4736266739546324, 1.0494670675047828,
        True, 4558, 109392,
    ),
    ('sweep', 'Real_3', 'after', 32): (
        0.000746, 0.28763, 0.00359799999999999,
        0.0006898645419250449, 0.006855999999999973, 0.02053,
        0.320049864541925, 1.477999453402569, 1.0494670675047828,
        True, 6136, 147264,
    ),
    ('sweep', 'Real_3', 'after', 64): (
        0.0008027500000000001, 0.563615, 0.007608000000000059,
        0.0016737015757535278, 0.00499000000000005, 0.01062,
        0.5893094515757537, 1.5042361300901885, 1.0494670675047828,
        True, 8022, 192528,
    ),
    ('sweep', 'Real_3', 'before', 1): (
        0.0026889999999999996, 0.0, 0.0,
        0.0, 0.0, 0.43907999999999997,
        0.44176899999999997, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'before', 2): (
        0.001473, 0.05808, 0.00015049999999999786,
        7.16992500144481e-06, 0.0, 0.22219999999999995,
        0.2819106699250014, 1.0118884941240776, 1.0118884941240776,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'before', 4): (
        0.0009220000000000001, 0.05784, 0.0004030000000000006,
        2.1924812503605617e-05, 0.0021680000000000033, 0.11499999999999998,
        0.1763549248125036, 1.228477726154687, 1.0467340803498224,
        True, 137, 3288,
    ),
    ('sweep', 'Real_3', 'before', 8): (
        0.0007232500000000002, 0.08452000000000001, 0.0008640000000000037,
        0.00010246269524198659, 0.0023320000000000007, 0.05756999999999998,
        0.14611171269524198, 1.3785187209620116, 1.0461874829188302,
        True, 503, 12072,
    ),
    ('sweep', 'Real_3', 'before', 16): (
        0.0006905, 0.15046, 0.0017600000000000116,
        0.0002548452843167681, 0.002687999999999996, 0.028999999999999998,
        0.1848533452843168, 1.4736266739546324, 1.0494670675047828,
        True, 772, 18528,
    ),
    ('sweep', 'Real_3', 'before', 32): (
        0.000746, 0.28763, 0.00359799999999999,
        0.0006898645419250449, 0.0018920000000000048, 0.014649999999999996,
        0.30920586454192506, 1.477999453402569, 1.0494670675047828,
        True, 1000, 24000,
    ),
    ('sweep', 'Real_3', 'before', 64): (
        0.0008027500000000001, 0.563615, 0.007608000000000059,
        0.0016737015757535278, 0.0015300000000000313, 0.007499999999999951,
        0.5827294515757536, 1.5042361300901885, 1.0494670675047828,
        True, 1305, 31320,
    ),
    ('table1', 'Initial'): (637, 2592, 3588, 720),
    ('table1', 'Real_1'): (938, 4286, 5583, 720),
    ('table1', 'Real_2'): (1842, 9665, 11866, 720),
    ('table1', 'Real_3'): (2819, 14636, 18115, 1322),
    ('table2', 2, 'HeuMWBG'): (0, 0),
    ('table2', 2, 'OptBMCM'): (0, 0),
    ('table2', 2, 'OptMWBG'): (0, 0),
    ('table2', 4, 'HeuMWBG'): (139, 124),
    ('table2', 4, 'OptBMCM'): (139, 124),
    ('table2', 4, 'OptMWBG'): (139, 124),
    ('table2', 8, 'HeuMWBG'): (739, 303),
    ('table2', 8, 'OptBMCM'): (837, 288),
    ('table2', 8, 'OptMWBG'): (739, 303),
    ('table2', 16, 'HeuMWBG'): (974, 188),
    ('table2', 16, 'OptBMCM'): (1069, 188),
    ('table2', 16, 'OptMWBG'): (918, 188),
    ('table2', 32, 'HeuMWBG'): (1061, 83),
    ('table2', 32, 'OptBMCM'): (1267, 83),
    ('table2', 32, 'OptMWBG'): (1042, 83),
    ('table2', 64, 'HeuMWBG'): (1205, 70),
    ('table2', 64, 'OptBMCM'): (1260, 70),
    ('table2', 64, 'OptMWBG'): (1201, 70),
    ('vm_vs_ledger', 8): (0.00088675, 0.0034267499999999997),
}


def _sweep_row(name, mode, p):
    rep = run_step(RESOLUTION, name, mode, p)
    phases = rep.phase_times()
    moved = (
        (rep.remap.elements_moved, rep.remap.words_moved)
        if rep.remap is not None
        else (0, 0)
    )
    return (
        *(phases[f] for f in FIELDS["sweep"][:6]),
        rep.total_time, rep.imbalance_before, rep.imbalance_after,
        rep.accepted, *moved,
    )


def _vm_vs_ledger_row(case, nproc):
    mesh = case.mesh
    part = multilevel_kway(Graph.from_pairs(mesh.dual_pairs, mesh.ne), nproc, seed=0)
    marks = case.marking_mask("Real_2")
    ledger = CostLedger(nproc, SP2_1997)
    propagate_markings(mesh, marks, part=part, ledger=ledger)
    vm = parallel_mark(mesh, decompose(mesh, part, nproc), marks)
    return ledger.elapsed, vm.time_seconds


@lru_cache(maxsize=None)
def _computed():
    """Every row, computed once per process (the sweep cells are the ones
    ``run_step`` memoises for the shape tests next door)."""
    case = case_for(RESOLUTION)
    rows = {
        ("sweep", name, mode, p): _sweep_row(name, mode, p)
        for name in CASE_NAMES
        for mode in ("after", "before")
        for p in SWEEP_PROCS
    }
    for row, sizes in grid_sizes(case).items():
        rows["table1", row] = tuple(sizes[f] for f in FIELDS["table1"])
    for r in mapper_comparison(case, repeats=1):
        rows["table2", r.nproc, r.method] = (r.total_elems, r.max_sent_recv)
    rows["vm_vs_ledger", 8] = _vm_vs_ledger_row(case, 8)
    return rows


def test_series_matches_golden():
    got = _computed()
    moved = [
        f"{key + (field,)}: got {g!r}, golden {w!r}"
        for key in sorted(GOLDEN)
        for field, g, w in zip(FIELDS[key[0]], got[key], GOLDEN[key], strict=True)
        if g != w
    ]
    assert not moved, f"{len(moved)} values moved, first {moved[0]}"


def test_golden_table_has_no_stale_rows():
    assert set(GOLDEN) == set(_computed())


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, row in sorted(_computed().items()):
        if len(row) <= 4:
            print(f"    {key!r}: {row!r},")
            continue
        print(f"    {key!r}: (")
        for i in range(0, len(row), 3):
            print("        " + " ".join(f"{v!r}," for v in row[i:i + 3]))
        print("    ),")
    print("}")
