"""Reuse of repartitions is invisible except in time and in the trace.

``repartition`` keeps its answers in ``multilevel_kway``'s store, keyed
on the graph's arrays, ``k``, ``seed`` and ``old_part``.  These tests pin
what a caller may rely on: a reused answer is the computed one, nothing a
caller writes leaks into a later answer, any change to an input is a new
key, the early returns never touch the store, the two kinds of answer
are never mixed up — and a reused answer records none of the wall-clock
spans of work it did not do, while the modelled clock cannot tell.
"""

from importlib import import_module

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.experiments import case_for
from repro.obs import Tracer, use_tracer
from repro.parallel import SP2_1997
from repro.partition import multilevel_kway, repartition

from tests.fixtures import store_info

from .test_partition_properties import random_connected_graph

repartition_module = import_module("repro.partition.repartition")
_acceptable = repartition_module._acceptable
DIFFUSION_ROUNDS = repartition_module.DIFFUSION_ROUNDS

graphs = st.builds(
    random_connected_graph,
    n=st.integers(8, 90),
    extra_edges=st.integers(0, 120),
    seed=st.integers(0, 999),
)
ks = st.integers(2, 6)
seeds = st.integers(0, 2**40)
label_seeds = st.integers(0, 2**32 - 1)


def _old(g, k, label_seed):
    """Random labels in [0, k): an old partition the store will see."""
    old = np.random.default_rng(label_seed).integers(0, k, g.n)
    assume(not _acceptable(g, old, k))
    return old


def _cold(g, k, old, seed):
    multilevel_kway.cache_clear()
    return repartition(g, k, old, seed=seed)


@given(g=graphs, k=ks, seed=seeds, label_seed=label_seeds)
@settings(max_examples=25, deadline=None)
def test_hit_equals_miss(g, k, seed, label_seed):
    old = _old(g, k, label_seed)
    miss = _cold(g, k, old, seed)
    hit = repartition(g, k, old, seed=seed)
    info = store_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, miss.nbytes)
    again = _cold(g, k, old.copy(), seed)
    assert store_info().misses == 1
    for other in (hit, again):
        assert other.dtype == miss.dtype
        assert np.array_equal(other, miss)


@given(g=graphs, k=ks, seed=seeds, label_seed=label_seeds)
@settings(max_examples=25, deadline=None)
def test_callers_writes_never_reach_a_later_answer(g, k, seed, label_seed):
    old = _old(g, k, label_seed)
    first = _cold(g, k, old, seed)
    assert old.flags.writeable  # the key is a digest: the input stays the caller's
    expected = first.copy()
    first[:] = -1  # answers are private, writable copies ...
    second = repartition(g, k, old, seed=seed)
    assert np.array_equal(second, expected)
    second[:] = -2  # ... on a hit as much as on a miss
    assert np.array_equal(repartition(g, k, old, seed=seed), expected)
    assert store_info().hits == 2


@given(g=graphs, k=ks, seed=seeds, label_seed=label_seeds, v=st.integers(0, 89))
@settings(max_examples=25, deadline=None)
def test_any_changed_input_misses(g, k, seed, label_seed, v):
    old = _old(g, k, label_seed)
    v %= g.n
    relabelled = old.copy()
    relabelled[v] = (old[v] + 1) % k
    heavier = g.with_vwgt(g.vwgt + (np.arange(g.n) == v))
    variants = {
        "old_part": (g, k, relabelled, seed),
        "vwgt": (heavier, k, old, seed),
        "k": (g, k + 1, old, seed),  # label k unused: never acceptable
        "seed": (g, k, old, seed + 1),
    }
    for what, (graph, kk, labels, s) in variants.items():
        if _acceptable(graph, labels, kk):
            continue  # an early return: the store is not asked
        _cold(g, k, old, seed)
        got = repartition(graph, kk, labels, seed=s)
        info = store_info()
        assert (info.hits, info.misses) == (0, 2), what
        assert np.array_equal(got, _cold(graph, kk, labels, s)), what


@given(g=graphs, k=ks, seed=seeds, label_seed=label_seeds)
@settings(max_examples=25, deadline=None)
def test_early_returns_leave_the_store_alone(g, k, seed, label_seed):
    old = _old(g, k, label_seed)
    new = _cold(g, k, old, seed)
    before = store_info()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repartition_module, "_content_key", None)  # never hashed
        assert np.array_equal(
            repartition(g, 1, np.zeros(g.n, np.int64), seed=seed),
            np.zeros(g.n),
        )
        if _acceptable(g, new, k):
            back = repartition(g, k, new, seed=seed)
            assert np.array_equal(back, new) and back is not new
        with pytest.raises(ValueError):
            repartition(g, g.n + 1, old, seed=seed)
        with pytest.raises(ValueError):
            repartition(g, k, old[1:], seed=seed)
    assert store_info() == before


@given(g=graphs, k=ks, seed=seeds, label_seed=label_seeds)
@settings(max_examples=25, deadline=None)
def test_kway_and_repartition_answers_are_never_mixed_up(g, k, seed, label_seed):
    old = _old(g, k, label_seed)
    expected_new = _cold(g, k, old, seed)
    expected_kway = multilevel_kway(g, k, seed=seed)
    multilevel_kway.cache_clear()
    # one stored k-way partition, then a repartition of the same (graph,
    # k, seed) seeded with it or with anything else: a miss each time
    kway = multilevel_kway(g, k, seed=seed)
    assert np.array_equal(repartition(g, k, old, seed=seed), expected_new)
    if not _acceptable(g, kway, k):
        repartition(g, k, kway, seed=seed)
    assert store_info().hits == 0
    # and the other way round
    assert np.array_equal(multilevel_kway(g, k, seed=seed), expected_kway)
    assert store_info().hits == 1


def test_a_reused_repartition_records_no_stage_spans():
    # Both remap orders repartition the same predicted weights from the same
    # initial partition, so the second solver's call is served from the store
    case = case_for(6)
    tracers, reports = [], []
    for mode in ("before", "after"):
        tracers.append(Tracer())
        with use_tracer(tracers[-1]):
            reports.append(LoadBalancedAdaptiveSolver(
                case.mesh, 32, machine=SP2_1997,
                cost_model=CostModel(machine=SP2_1997),
                remap_when=mode, imbalance_threshold=1.0,
            ).adapt_step(edge_mask=case.marking_mask("Real_2")))
    stages = ("repartition.coarsen", "repartition.rebalance",
              "repartition.uncoarsen")
    computed, reused = ([s.name for s in t.spans] for t in tracers)
    assert all(computed.count(name) == 1 for name in stages)
    assert not set(stages) & set(reused)
    (rebalance,) = (s for s in tracers[0].spans
                    if s.name == "repartition.rebalance")
    assert 0 <= rebalance.attrs["diffusion_rounds"] <= DIFFUSION_ROUNDS
    assert computed.count("repartition") == reused.count("repartition") == 1
    assert reports[0].partition_time == reports[1].partition_time > 0
    # the second solver's initial k-way partition and its repartition
    info = store_info()
    assert (info.hits, info.misses) == (2, 2)
