"""The seeded repartitioner's answers wherever its coarse rebalance succeeds.

``repartition`` coarsens with the old partition fixed, rebalances the
coarsest graph with ``balance_only`` greedy moves and uncoarsens.  When
that coarse rebalance reaches ``UB`` with every label in use, the rest is
the seeded path the paper describes, and no change to what happens when
the rebalance *misses* may move its output.  This file pins the
``blake2b`` digest of the labels on every such input of

* ``test_golden_partitions``: the rotor case's dual graph under Real_2's
  predicted weights, seeded with ``multilevel_kway``'s partition, for
  each of its (resolution, P) cases and seeds 0-2;
* the resolution-6 sweep behind Figs. 4-6: every ``repartition`` call of
  one ``adapt_step`` per strategy, remap order and P,

and lists the inputs where the rebalance missed (:data:`MISSED`).  A
change to the seeded path itself regenerates the table with

    PYTHONPATH=src python -m tests.partition.test_repartition_pin
"""

import hashlib
from functools import lru_cache
from importlib import import_module

import numpy as np
import pytest

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.experiments import CASE_NAMES, PROC_COUNTS, case_for
from repro.parallel import SP2_1997
from repro.partition import imbalance, multilevel_kway, repartition
from repro.partition.fm_refine import UB, kway_greedy_refine
from repro.partition.multilevel import _COARSE_PER_PART, _COARSEN_TO, coarsen

from tests.partition.test_golden_partitions import CASES, SEEDS, _graphs

framework = import_module("repro.core.framework")

#: input -> digest of ``repartition``'s labels.  Keys are ``("golden",
#: resolution, P, seed)`` and ``("sweep", strategy, remap order, P)``.
PINNED = {
    ('golden', 4, 16, 2): 'e659fafe173636cd',
    ('golden', 4, 2, 0): '952b8805b47d2055',
    ('golden', 4, 2, 1): '3f040c2f9854d2de',
    ('golden', 4, 2, 2): 'f228b8f5b7d4c77c',
    ('golden', 4, 4, 0): '5c95d3c07533ab27',
    ('golden', 4, 4, 1): 'af75dc8e0158bfc6',
    ('golden', 4, 4, 2): '37fc968c81405e10',
    ('golden', 4, 8, 0): '4acfcfc9c8fc64f6',
    ('golden', 4, 8, 2): '790dcb9489cfc31a',
    ('sweep', 'Real_1', 'after', 2): '8dbc5aa8f97e5a31',
    ('sweep', 'Real_1', 'after', 4): 'd490b78593d48192',
    ('sweep', 'Real_1', 'after', 8): 'ed89a048b7bf2810',
    ('sweep', 'Real_1', 'before', 2): '8dbc5aa8f97e5a31',
    ('sweep', 'Real_1', 'before', 4): 'd490b78593d48192',
    ('sweep', 'Real_1', 'before', 8): 'ed89a048b7bf2810',
    ('sweep', 'Real_2', 'after', 2): '8dbc5aa8f97e5a31',
    ('sweep', 'Real_2', 'after', 4): '45bad8d64eaa9fe4',
    ('sweep', 'Real_2', 'after', 8): '7b56a8d3c417e989',
    ('sweep', 'Real_2', 'before', 2): '8dbc5aa8f97e5a31',
    ('sweep', 'Real_2', 'before', 4): '45bad8d64eaa9fe4',
    ('sweep', 'Real_2', 'before', 8): '7b56a8d3c417e989',
    ('sweep', 'Real_3', 'after', 2): '8dbc5aa8f97e5a31',
    ('sweep', 'Real_3', 'after', 4): '0ef679978d62e104',
    ('sweep', 'Real_3', 'after', 8): '1ae34450ef1a6b43',
    ('sweep', 'Real_3', 'before', 2): '8dbc5aa8f97e5a31',
    ('sweep', 'Real_3', 'before', 4): '0ef679978d62e104',
    ('sweep', 'Real_3', 'before', 8): '1ae34450ef1a6b43',
}

#: The inputs whose coarse rebalance missed ``UB`` or left a label unused.
MISSED = [
    ('golden', 4, 16, 0),
    ('golden', 4, 16, 1),
    ('golden', 4, 32, 0),
    ('golden', 4, 32, 1),
    ('golden', 4, 32, 2),
    ('golden', 4, 64, 0),
    ('golden', 4, 64, 1),
    ('golden', 4, 64, 2),
    ('golden', 4, 8, 1),
    ('golden', 6, 16, 0),
    ('golden', 6, 16, 1),
    ('golden', 6, 16, 2),
    ('golden', 8, 256, 0),
    ('golden', 8, 256, 1),
    ('golden', 8, 256, 2),
    ('golden', 8, 64, 0),
    ('golden', 8, 64, 1),
    ('golden', 8, 64, 2),
    ('sweep', 'Real_1', 'after', 16),
    ('sweep', 'Real_1', 'after', 32),
    ('sweep', 'Real_1', 'after', 64),
    ('sweep', 'Real_1', 'before', 16),
    ('sweep', 'Real_1', 'before', 32),
    ('sweep', 'Real_1', 'before', 64),
    ('sweep', 'Real_2', 'after', 16),
    ('sweep', 'Real_2', 'after', 32),
    ('sweep', 'Real_2', 'after', 64),
    ('sweep', 'Real_2', 'before', 16),
    ('sweep', 'Real_2', 'before', 32),
    ('sweep', 'Real_2', 'before', 64),
    ('sweep', 'Real_3', 'after', 16),
    ('sweep', 'Real_3', 'after', 32),
    ('sweep', 'Real_3', 'after', 64),
    ('sweep', 'Real_3', 'before', 16),
    ('sweep', 'Real_3', 'before', 32),
    ('sweep', 'Real_3', 'before', 64),
]


def _digest(part):
    return hashlib.blake2b(
        np.asarray(part, dtype=np.int64).tobytes(), digest_size=8
    ).hexdigest()


def _golden_input(resolution, nproc, seed):
    before, after = _graphs(resolution)
    return after, nproc, multilevel_kway(before, nproc, seed=seed), seed


@lru_cache(maxsize=None)
def _sweep_inputs():
    """``(graph, k, old, seed)`` of each sweep cycle's ``repartition``."""
    case = case_for(6)
    calls = {}
    for name in CASE_NAMES:
        for mode in ("before", "after"):
            for nproc in PROC_COUNTS:
                seen = []

                def recording(graph, k, old, seed=0):
                    seen.append((graph, k, np.array(old), seed))
                    return repartition(graph, k, old, seed=seed)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(framework, "repartition", recording)
                    LoadBalancedAdaptiveSolver(
                        case.mesh, nproc, machine=SP2_1997,
                        cost_model=CostModel(machine=SP2_1997),
                        remap_when=mode, imbalance_threshold=1.0,
                    ).adapt_step(edge_mask=case.marking_mask(name))
                (calls["sweep", name, mode, nproc],) = seen
    return calls


def _inputs():
    inputs = {
        ("golden", r, p, s): _golden_input(r, p, s)
        for r, p in CASES for s in SEEDS
    }
    inputs.update(_sweep_inputs())
    return inputs


def _coarse_rebalance_misses(graph, k, old, seed):
    """Whether ``repartition``'s rebalance of its coarsest graph ends
    above ``UB`` or with a label unused."""
    floor = max(4 * _COARSEN_TO, _COARSE_PER_PART * k)
    _, g, part = coarsen(graph, np.random.default_rng(seed), floor, part=old)
    part = kway_greedy_refine(g, part, k, max_passes=8, balance_only=True)
    return not (
        imbalance(g, part, k) <= UB + 1e-9
        and np.bincount(part, minlength=k).all()
    )


@pytest.mark.parametrize("key", sorted(PINNED, key=repr))
def test_seeded_path_is_pinned(key):
    if key[0] == "golden":
        graph, k, old, seed = _golden_input(*key[1:])
    else:
        graph, k, old, seed = _sweep_inputs()[key]
    assert _digest(repartition(graph, k, old, seed=seed)) == PINNED[key]


def test_every_input_is_pinned_or_listed():
    keys = {("golden", r, p, s) for r, p in CASES for s in SEEDS}
    keys |= {("sweep", n, m, p) for n in CASE_NAMES
             for m in ("before", "after") for p in PROC_COUNTS}
    assert set(PINNED) | set(MISSED) == keys
    assert not set(PINNED) & set(MISSED)


if __name__ == "__main__":
    pinned, missed = {}, []
    for key, (graph, k, old, seed) in sorted(_inputs().items(), key=repr):
        if _coarse_rebalance_misses(graph, k, old, seed):
            missed.append(key)
        else:
            pinned[key] = _digest(repartition(graph, k, old, seed=seed))
    print("PINNED = {")
    for key, digest in pinned.items():
        print(f"    {key!r}: {digest!r},")
    print("}")
    print("MISSED = [")
    for key in missed:
        print(f"    {key!r},")
    print("]")
