"""Golden partitions: the partitioner's answers on the rotor case, pinned.

Every entry is the ``blake2b`` digest of one from-scratch
``multilevel_kway`` partition of the rotor case's dual graph and of the
``repartition`` that follows it under the Real_2 predicted weights (the
pair ``experiments.table2`` computes).  A change that is supposed to
leave partitions alone — a faster kernel, reuse of finished partitions —
must leave this file alone; a change that is supposed to move them (a
new partitioning algorithm) rebaselines it on purpose, with

    PYTHONPATH=src python tests/partition/test_golden_partitions.py

and says so in its CHANGES.md entry.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.adapt.adaptor import AdaptiveMesh
from repro.core.dualgraph import DualGraph
from repro.experiments.cases import PROC_COUNTS, make_case
from repro.partition import multilevel_kway, repartition

#: (resolution, P) pairs; each is partitioned with seeds 0, 1, 2.
CASES = [(4, p) for p in PROC_COUNTS] + [(6, 16)]
SEEDS = (0, 1, 2)

#: (resolution, P, seed) -> (multilevel_kway digest, repartition digest)
GOLDEN = {
    (4, 2, 0): ('952b8805b47d2055', '952b8805b47d2055'),
    (4, 2, 1): ('3f040c2f9854d2de', '3f040c2f9854d2de'),
    (4, 2, 2): ('f228b8f5b7d4c77c', 'f228b8f5b7d4c77c'),
    (4, 4, 0): ('ef5cd9f6f3823a41', '6e04cc4d43633b52'),
    (4, 4, 1): ('00c613e79d21cef5', 'fe9ea5e9c1eb20cd'),
    (4, 4, 2): ('c866d029191bbe72', '0b8c811b982f30d9'),
    (4, 8, 0): ('b641014af8615708', '82df483836856f7d'),
    (4, 8, 1): ('21eadf86cc799efd', 'df292e4088523db9'),
    (4, 8, 2): ('0a832d35eb0bdfd8', '5ec08664567c2288'),
    (4, 16, 0): ('8cb191222a923d87', 'f01107d33bce98e4'),
    (4, 16, 1): ('1d3fe433b517c89e', 'e8b1d915f59a752f'),
    (4, 16, 2): ('f7b077612001efb8', 'c3078d5229e948ac'),
    (4, 32, 0): ('21689261336e89b3', '99ccf7578ff3303b'),
    (4, 32, 1): ('ba412f54d1db1307', '187716927ea6fbf2'),
    (4, 32, 2): ('1b90fd177f190f1d', '2554c669391aab46'),
    (4, 64, 0): ('e26193bbb4783458', 'aa9c7e9795efed15'),
    (4, 64, 1): ('a74c5416c6545ac6', '4b1afe34b6709fb8'),
    (4, 64, 2): ('8eae7a0b10b839d9', 'dd40ea02420ba52e'),
    (6, 16, 0): ('46a7d3e8cd08d56f', '9788b1e0dcc0fb23'),
    (6, 16, 1): ('c08a697848644a73', 'da25919520570901'),
    (6, 16, 2): ('6073260d2609f584', '8dee4b045d23c64c'),
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
    return dual.comp_graph(), dual.graph.with_vwgt(wcomp_pred)


def _digest(part):
    assert part.dtype == np.int64 and part.ndim == 1
    return hashlib.blake2b(part.tobytes(), digest_size=8).hexdigest()


def _digests(resolution, nproc, seed):
    before, after = _graphs(resolution)
    old = multilevel_kway(before, nproc, seed=seed)
    new = repartition(after, nproc, old, seed=seed)
    return _digest(old), _digest(new)


@pytest.mark.parametrize("resolution,nproc", CASES)
def test_partitions_match_golden_digests(resolution, nproc):
    got = {
        (resolution, nproc, seed): _digests(resolution, nproc, seed)
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
            print(f"    ({r}, {p}, {s}): {_digests(r, p, s)!r},")
    print("}")
