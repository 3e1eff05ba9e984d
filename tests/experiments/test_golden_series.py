"""Golden series: the paper's numbers on the modelled clock, pinned.

Every figure of the paper's §5 is a view of one sweep — a single
adapt/balance cycle per (strategy, remap order, P) — so pinning each
cell of that sweep pins Figs. 4, 5, 6 and 8 at once; Table 1's grid
sizes, Table 2's movement columns and the two virtual clocks of the
marking cross-check (the cycle's phase program against ``repro.dist``'s)
complete the set.  All values are virtual
seconds, counts or ratios of counts: deterministic, compared with plain
``==``.  Resolution 6 is the one the shape claims in this directory hold
at (``conftest.py``).

A change that is supposed to leave the modelled results alone — a faster
kernel, a refactor — must leave this file alone; a change that is
supposed to move them (a new cost mechanism) rebaselines it on purpose,
by pasting the output of

    PYTHONPATH=src python tests/experiments/test_golden_series.py

over ``GOLDEN`` below, and says so in its CHANGES.md entry.
"""

from functools import lru_cache

from repro.adapt.marking import propagate_markings
from repro.core.phases import price_marking
from repro.dist import decompose, parallel_mark
from repro.experiments import CASE_NAMES, SWEEP_PROCS, case_for, run_step
from repro.experiments.table1 import grid_sizes
from repro.experiments.table2 import mapper_comparison
from repro.parallel import SP2_1997
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
    # Real_2 marking priced by the cycle's program and run by repro.dist
    "mark_cycle_vs_dist": ("cycle_seconds", "dist_seconds"),
}

#: ("sweep", strategy, remap order, P) | ("table1", row) |
#: ("table2", P, method) | ("mark_cycle_vs_dist", P) -> that section's FIELDS
GOLDEN = {
    ('mark_cycle_vs_dist', 8): (0.0014009999999999997, 0.0037282500000000002),
    ('sweep', 'Real_1', 'after', 1): (
        0.0029869999999999996, 0.0, 0.0,
        0.0, 0.0, 0.12858,
        0.131567, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'after', 2): (
        0.00233875, 0.05808, 0.000101,
        7.169925001442311e-06, 0.0, 0.06687,
        0.12739691992500143, 1.0401306579561362, 1.0401306579561362,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'after', 4): (
        0.00265775, 0.05784, 0.000304,
        3.2e-05, 0.004231999999999998, 0.043109999999999996,
        0.10817575, 1.3411105926271583, 1.0331311245916939,
        True, 384, 9216,
    ),
    ('sweep', 'Real_1', 'after', 8): (
        0.0027557499999999987, 0.08452000000000001, 0.000716,
        8.939940546000542e-05, 0.0035520000000000005, 0.02283,
        0.11446314940546, 1.4204386374241718, 1.0489967335510966,
        True, 436, 10464,
    ),
    ('sweep', 'Real_1', 'after', 16): (
        0.0035694999999999993, 0.15046, 0.0015640000000000003,
        0.00044859135525699486, 0.004337999999999998, 0.016649999999999998,
        0.17703009135525702, 2.0718618758749416, 1.0489967335510966,
        True, 1179, 28296,
    ),
    ('sweep', 'Real_1', 'after', 32): (
        0.0045742499999999985, 0.28763, 0.003355999999999996,
        0.001171537189335831, 0.0038680000000000003, 0.0126,
        0.3131997871893358, 3.135790947270182, 1.0452636490900606,
        True, 1766, 42384,
    ),
    ('sweep', 'Real_1', 'after', 64): (
        0.005301249999999998, 0.563615, 0.007324000000000007,
        0.002727613849443402, 0.0032800000000000017, 0.00795,
        0.5901978638494434, 3.957069528698087, 1.0452636490900606,
        True, 2386, 57264,
    ),
    ('sweep', 'Real_1', 'before', 1): (
        0.0029869999999999996, 0.0, 0.0,
        0.0, 0.0, 0.12858,
        0.131567, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'before', 2): (
        0.00233875, 0.05808, 0.000101,
        7.169925001442311e-06, 0.0, 0.06687,
        0.12739691992500143, 1.0401306579561362, 1.0401306579561362,
        False, 0, 0,
    ),
    ('sweep', 'Real_1', 'before', 4): (
        0.00265775, 0.05784, 0.000304,
        3.2e-05, 0.0015039999999999997, 0.033209999999999996,
        0.09554775000000001, 1.3411105926271583, 1.0331311245916939,
        True, 112, 2688,
    ),
    ('sweep', 'Real_1', 'before', 8): (
        0.0027557499999999987, 0.08452000000000001, 0.000716,
        8.939940546000542e-05, 0.0015279999999999994, 0.01686,
        0.10646914940546001, 1.4204386374241718, 1.0489967335510966,
        True, 202, 4848,
    ),
    ('sweep', 'Real_1', 'before', 16): (
        0.0035694999999999993, 0.15046, 0.0015640000000000003,
        0.00044859135525699486, 0.0019939999999999992, 0.00843,
        0.166466091355257, 2.0718618758749416, 1.0489967335510966,
        True, 577, 13848,
    ),
    ('sweep', 'Real_1', 'before', 32): (
        0.0045742499999999985, 0.28763, 0.003355999999999996,
        0.001171537189335831, 0.0016999999999999993, 0.0042,
        0.30263178718933575, 3.135790947270182, 1.0452636490900606,
        True, 860, 20640,
    ),
    ('sweep', 'Real_1', 'before', 64): (
        0.005301249999999998, 0.563615, 0.007324000000000007,
        0.002727613849443402, 0.0016339999999999992, 0.0021,
        0.5827018638494434, 3.957069528698087, 1.0452636490900606,
        True, 1152, 27648,
    ),
    ('sweep', 'Real_2', 'after', 1): (
        0.002667, 0.0, 0.0,
        0.0, 0.0, 0.28995,
        0.29261699999999996, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'after', 2): (
        0.0016759999999999995, 0.05808, 0.000101,
        7.169925001442311e-06, 0.0, 0.14775,
        0.20761416992500142, 1.0191412312467667, 1.0191412312467667,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'after', 4): (
        0.0014159999999999995, 0.05784, 0.000304,
        3.2e-05, 0.006899999999999998, 0.08928,
        0.155772, 1.2316606311433005, 1.0421107087428867,
        True, 623, 14952,
    ),
    ('sweep', 'Real_2', 'after', 8): (
        0.0014009999999999997, 0.08452000000000001, 0.000716,
        8.3e-05, 0.0054179999999999975, 0.04674,
        0.138878, 1.2896016554578376, 1.0470770822555613,
        True, 650, 15600,
    ),
    ('sweep', 'Real_2', 'after', 16): (
        0.0016994999999999992, 0.15046, 0.0015640000000000003,
        0.00044859135525699486, 0.005635999999999999, 0.029849999999999998,
        0.189658091355257, 1.6471805483704087, 1.0412829798241077,
        True, 2756, 66144,
    ),
    ('sweep', 'Real_2', 'after', 32): (
        0.002013499999999999, 0.28763, 0.003355999999999996,
        0.0011907017298225311, 0.005193999999999996, 0.01884,
        0.3182242017298225, 2.079255043973099, 1.0495602690118986,
        True, 3757, 90168,
    ),
    ('sweep', 'Real_2', 'after', 64): (
        0.0023629999999999988, 0.563615, 0.007324000000000007,
        0.0027595039970370544, 0.0037400000000000016, 0.010079999999999999,
        0.589881503997037, 2.2249353336782205, 1.0462493533367823,
        True, 4799, 115176,
    ),
    ('sweep', 'Real_2', 'before', 1): (
        0.002667, 0.0, 0.0,
        0.0, 0.0, 0.28995,
        0.29261699999999996, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'before', 2): (
        0.0016759999999999995, 0.05808, 0.000101,
        7.169925001442311e-06, 0.0, 0.14775,
        0.20761416992500142, 1.0191412312467667, 1.0191412312467667,
        False, 0, 0,
    ),
    ('sweep', 'Real_2', 'before', 4): (
        0.0014159999999999995, 0.05784, 0.000304,
        3.2e-05, 0.0014479999999999996, 0.07554,
        0.13658, 1.2316606311433005, 1.0421107087428867,
        True, 105, 2520,
    ),
    ('sweep', 'Real_2', 'before', 8): (
        0.0014009999999999997, 0.08452000000000001, 0.000716,
        8.3e-05, 0.0013199999999999996, 0.03795,
        0.12599, 1.2896016554578376, 1.0470770822555613,
        True, 168, 4032,
    ),
    ('sweep', 'Real_2', 'before', 16): (
        0.0016994999999999992, 0.15046, 0.0015640000000000003,
        0.00044859135525699486, 0.0016719999999999994, 0.018869999999999998,
        0.174714091355257, 1.6471805483704087, 1.0412829798241077,
        True, 566, 13584,
    ),
    ('sweep', 'Real_2', 'before', 32): (
        0.002013499999999999, 0.28763, 0.003355999999999996,
        0.0011907017298225311, 0.0016099999999999992, 0.00951,
        0.30531020172982254, 2.079255043973099, 1.0495602690118986,
        True, 708, 16992,
    ),
    ('sweep', 'Real_2', 'before', 64): (
        0.0023629999999999988, 0.563615, 0.007324000000000007,
        0.0027595039970370544, 0.0015499999999999993, 0.004739999999999999,
        0.5823515039970371, 2.2249353336782205, 1.0462493533367823,
        True, 1059, 25416,
    ),
    ('sweep', 'Real_3', 'after', 1): (
        0.0026889999999999996, 0.0, 0.0,
        0.0, 0.0, 0.43907999999999997,
        0.44176899999999997, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'after', 2): (
        0.0015739999999999999, 0.05808, 0.000101,
        7.169925001442311e-06, 0.0, 0.22215,
        0.28191216992500145, 1.0118884941240776, 1.0118884941240776,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'after', 4): (
        0.0012197499999999997, 0.05784, 0.000304,
        3.2e-05, 0.005459999999999998, 0.12756,
        0.19241575, 1.16206613828915, 1.0461874829188302,
        True, 485, 11640,
    ),
    ('sweep', 'Real_3', 'after', 8): (
        0.0010672499999999994, 0.08452000000000001, 0.000716,
        7.049561398674885e-05, 0.007517999999999999, 0.0741,
        0.16799174561398675, 1.3500956545504237, 1.0489204700737906,
        True, 1202, 28848,
    ),
    ('sweep', 'Real_3', 'after', 16): (
        0.0010997499999999996, 0.15046, 0.0015640000000000003,
        0.0004151932968629868, 0.007291999999999996, 0.03906,
        0.199890943296863, 1.4233397103033616, 1.0494670675047828,
        True, 3129, 75096,
    ),
    ('sweep', 'Real_3', 'after', 32): (
        0.0012947499999999995, 0.28763, 0.003355999999999996,
        0.0012484369410283999, 0.005507999999999996, 0.020399999999999998,
        0.31943718694102835, 1.4867450122984422, 1.0494670675047828,
        True, 4837, 116088,
    ),
    ('sweep', 'Real_3', 'after', 64): (
        0.0014642499999999992, 0.563615, 0.007324000000000007,
        0.0025372299423301998, 0.0037900000000000013, 0.010079999999999999,
        0.5888104799423302, 1.4692538945066957, 1.0494670675047828,
        True, 6015, 144360,
    ),
    ('sweep', 'Real_3', 'before', 1): (
        0.0026889999999999996, 0.0, 0.0,
        0.0, 0.0, 0.43907999999999997,
        0.44176899999999997, 1.0, 1.0,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'before', 2): (
        0.0015739999999999999, 0.05808, 0.000101,
        7.169925001442311e-06, 0.0, 0.22215,
        0.28191216992500145, 1.0118884941240776, 1.0118884941240776,
        False, 0, 0,
    ),
    ('sweep', 'Real_3', 'before', 4): (
        0.0012197499999999997, 0.05784, 0.000304,
        3.2e-05, 0.000916, 0.11484,
        0.17515175000000002, 1.16206613828915, 1.0461874829188302,
        True, 61, 1464,
    ),
    ('sweep', 'Real_3', 'before', 8): (
        0.0010672499999999994, 0.08452000000000001, 0.000716,
        7.049561398674885e-05, 0.0013879999999999995, 0.057569999999999996,
        0.14533174561398676, 1.3500956545504237, 1.0489204700737906,
        True, 170, 4080,
    ),
    ('sweep', 'Real_3', 'before', 16): (
        0.0010997499999999996, 0.15046, 0.0015640000000000003,
        0.0004151932968629868, 0.0014239999999999995, 0.0288,
        0.18376294329686302, 1.4233397103033616, 1.0494670675047828,
        True, 433, 10392,
    ),
    ('sweep', 'Real_3', 'before', 32): (
        0.0012947499999999995, 0.28763, 0.003355999999999996,
        0.0012484369410283999, 0.0015139999999999993, 0.0144,
        0.30944318694102835, 1.4867450122984422, 1.0494670675047828,
        True, 689, 16536,
    ),
    ('sweep', 'Real_3', 'before', 64): (
        0.0014642499999999992, 0.563615, 0.007324000000000007,
        0.0025372299423301998, 0.0017659999999999993, 0.0072,
        0.5839064799423302, 1.4692538945066957, 1.0494670675047828,
        True, 958, 22992,
    ),
    ('table1', 'Initial'): (637, 2592, 3588, 720),
    ('table1', 'Real_1'): (938, 4286, 5583, 720),
    ('table1', 'Real_2'): (1842, 9665, 11866, 720),
    ('table1', 'Real_3'): (2819, 14636, 18115, 1322),
    ('table2', 2, 'HeuMWBG'): (0, 0),
    ('table2', 2, 'OptBMCM'): (0, 0),
    ('table2', 2, 'OptMWBG'): (0, 0),
    ('table2', 4, 'HeuMWBG'): (105, 105),
    ('table2', 4, 'OptBMCM'): (105, 105),
    ('table2', 4, 'OptMWBG'): (105, 105),
    ('table2', 8, 'HeuMWBG'): (168, 67),
    ('table2', 8, 'OptBMCM'): (168, 67),
    ('table2', 8, 'OptMWBG'): (168, 67),
    ('table2', 16, 'HeuMWBG'): (566, 108),
    ('table2', 16, 'OptBMCM'): (566, 108),
    ('table2', 16, 'OptMWBG'): (566, 108),
    ('table2', 32, 'HeuMWBG'): (708, 66),
    ('table2', 32, 'OptBMCM'): (708, 66),
    ('table2', 32, 'OptMWBG'): (708, 66),
    ('table2', 64, 'HeuMWBG'): (1059, 62),
    ('table2', 64, 'OptBMCM'): (1055, 62),
    ('table2', 64, 'OptMWBG'): (1053, 62),
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


def _mark_cycle_vs_dist_row(case, nproc):
    mesh = case.mesh
    part = multilevel_kway(Graph.from_pairs(mesh.dual_pairs, mesh.ne), nproc, seed=0)
    marks = case.marking_mask("Real_2")
    cycle = price_marking(mesh, part, propagate_markings(mesh, marks), nproc,
                          SP2_1997)
    dist = parallel_mark(mesh, decompose(mesh, part, nproc), marks)
    return cycle.makespan, dist.time_seconds


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
    for r in mapper_comparison(case):
        rows["table2", r.nproc, r.method] = (r.total_elems, r.max_sent_recv)
    rows["mark_cycle_vs_dist", 8] = _mark_cycle_vs_dist_row(case, 8)
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
