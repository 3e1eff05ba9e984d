"""Golden partitions: the partitioner's answers on the rotor case, pinned.

Every entry is ``(digest, edge cut, imbalance)`` — the ``blake2b`` digest
of the labels, the cut on the graph that was partitioned and the maximum
load over the mean, to four places — of one from-scratch
``multilevel_kway`` partition of the rotor case's dual graph and of the
``repartition`` that follows it under the Real_2 predicted weights (the
pair ``experiments.table2`` computes).  The digest says *that* a
partition moved, the two numbers beside it say whether it got better:
a failing row reads "cut 595 -> 584", not as two hex strings.  A change
that is supposed to leave partitions alone — a faster kernel, reuse of
finished partitions — must leave this file alone; a change that is
supposed to move them (a new partitioning algorithm) rebaselines it on
purpose, with

    PYTHONPATH=src python tests/partition/test_golden_partitions.py

and says so, old cut beside new, in its CHANGES.md entry.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.adapt.adaptor import AdaptiveMesh
from repro.core.dualgraph import DualGraph
from repro.experiments.cases import PROC_COUNTS, make_case
from repro.partition import edgecut, imbalance, multilevel_kway, repartition

#: (resolution, P) pairs; each is partitioned with seeds 0, 1, 2.  The
#: last two are the sizes ``vm_ranks`` partitions in its set-up.
CASES = [(4, p) for p in PROC_COUNTS] + [(6, 16), (8, 64), (8, 256)]
SEEDS = (0, 1, 2)

#: (resolution, P, seed) -> ((digest, cut, imbalance) of multilevel_kway,
#: the same of repartition)
GOLDEN = {
    (4, 2, 0): (('952b8805b47d2055', 34, 1.0052), ('952b8805b47d2055', 34, 1.0467)),
    (4, 2, 1): (('3f040c2f9854d2de', 33, 1.0339), ('3f040c2f9854d2de', 33, 1.0072)),
    (4, 2, 2): (('f228b8f5b7d4c77c', 32, 1.0417), ('f228b8f5b7d4c77c', 32, 1.0391)),
    (4, 4, 0): (('3460e0c66de644bd', 94, 1.0469), ('5c95d3c07533ab27', 111, 1.049)),
    (4, 4, 1): (('308255a8d13e81ec', 102, 1.0469), ('af75dc8e0158bfc6', 121, 1.0432)),
    (4, 4, 2): (('fa1c49fcaeeac412', 97, 1.0312), ('37fc968c81405e10', 115, 1.0478)),
    (4, 8, 0): (('88f6df59500b6f72', 183, 1.0417), ('4acfcfc9c8fc64f6', 216, 1.0385)),
    (4, 8, 1): (('7e9dbf8cb1006843', 176, 1.0417), ('a0a66daa2d8d81ea', 197, 1.0478)),
    (4, 8, 2): (('3b1ea5c0b79e0441', 170, 1.0417), ('790dcb9489cfc31a', 208, 1.0478)),
    (4, 16, 0): (('354519f62d03905c', 253, 1.0417), ('95fa4744d0a109ae', 253, 1.0478)),
    (4, 16, 1): (('9fa9404b93b8119b', 272, 1.0417), ('c9edba9c0a6c2858', 270, 1.0478)),
    (4, 16, 2): (('fb09cc2252d5da32', 270, 1.0417), ('e659fafe173636cd', 324, 1.0478)),
    (4, 32, 0): (('156f80290ced6b97', 388, 1.0417), ('6f481a8893448f87', 393, 1.0478)),
    (4, 32, 1): (('575bc6600ef12e63', 367, 1.0417), ('c475dc12d12f6748', 374, 1.0478)),
    (4, 32, 2): (('9d1cbf422d8deaec', 383, 1.0417), ('2dcffee79daa35cf', 369, 1.0478)),
    (4, 64, 0): (('2c60a2cbf23dc977', 530, 1.0833), ('1973532fdd6fee02', 516, 1.0385)),
    (4, 64, 1): (('bfb49018a33b1fa2', 549, 1.0833), ('c42bfc2b7f2f4718', 523, 1.0385)),
    (4, 64, 2): (('1cbd0d1f6ea12f3f', 531, 1.0833), ('2dfc7431e2260f85', 525, 1.0385)),
    (6, 16, 0): (('65c230026d0c964b', 574, 1.0494), ('94c8aa5c4f4fa578', 648, 1.0413)),
    (6, 16, 1): (('90f5514fe2221391', 550, 1.0494), ('b7ea56289bc508c5', 579, 1.0479)),
    (6, 16, 2): (('a20b8213be630182', 557, 1.0494), ('24b12042d0c3ebe7', 598, 1.0479)),
    (8, 64, 0): (('69729c4e7367138f', 1992, 1.0417), ('c4683b197ea2f61d', 2058, 1.0494)),
    (8, 64, 1): (('6ce8b9be36d858d4', 1961, 1.0417), ('c4daa6ca9f23717c', 2017, 1.0494)),
    (8, 64, 2): (('575a8150a93b4a57', 2105, 1.0417), ('693cfff8e3332610', 2148, 1.0494)),
    (8, 256, 0): (('195832225f36b115', 3625, 1.0833), ('de1f91a6cdea570a', 3667, 1.0465)),
    (8, 256, 1): (('e671521010364257', 3581, 1.0417), ('24bd8911551a47b7', 3690, 1.0465)),
    (8, 256, 2): (('7112d898ff0324b8', 3577, 1.0417), ('e4e2f0141ebd04cb', 3694, 1.0465)),
}


@lru_cache(maxsize=None)
def _graphs(resolution):
    """Dual graph under initial weights and under Real_2's predicted ones."""
    case = make_case(resolution)
    am = AdaptiveMesh(case.mesh, solution=case.solution)
    wcomp_pred, _ = am.predicted_weights(
        am.mark(edge_mask=case.marking_mask("Real_2"))
    )
    dual = DualGraph(case.mesh)
    return dual.graph, dual.graph.with_vwgt(wcomp_pred)


def _row(graph, part, nproc):
    assert part.dtype == np.int64 and part.ndim == 1
    digest = hashlib.blake2b(part.tobytes(), digest_size=8).hexdigest()
    return digest, edgecut(graph, part), round(imbalance(graph, part, nproc), 4)


def _rows(resolution, nproc, seed):
    before, after = _graphs(resolution)
    old = multilevel_kway(before, nproc, seed=seed)
    new = repartition(after, nproc, old, seed=seed)
    return _row(before, old, nproc), _row(after, new, nproc)


@pytest.mark.parametrize("resolution,nproc", CASES)
def test_partitions_match_golden_digests(resolution, nproc):
    got = {
        (resolution, nproc, seed): _rows(resolution, nproc, seed)
        for seed in SEEDS
    }
    want = {key: GOLDEN[key] for key in got}
    assert got == want


def test_golden_table_has_no_stale_rows():
    assert set(GOLDEN) == {(r, p, s) for r, p in CASES for s in SEEDS}


if __name__ == "__main__":
    print("GOLDEN = {")
    for r, p in CASES:
        for s in SEEDS:
            print(f"    ({r}, {p}, {s}): {_rows(r, p, s)!r},")
    print("}")
