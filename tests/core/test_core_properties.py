"""Property-based invariants of the load-balancing core."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CostModel,
    build_move_matrix,
    execute_remap,
    heuristic_mwbg,
    optimal_mwbg,
    remap_stats,
    similarity_matrix,
)
from repro.parallel import IDEAL, SP2_1997


@st.composite
def ownership_instance(draw):
    n = draw(st.integers(4, 120))
    p = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    old = rng.integers(0, p, n).astype(np.int64)
    new = rng.integers(0, p, n).astype(np.int64)
    w = rng.integers(1, 9, n).astype(np.int64)
    return old, new, w, p


@given(inst=ownership_instance())
@settings(max_examples=30, deadline=None)
def test_similarity_matrix_conserves_weight(inst):
    old, new, w, p = inst
    S = similarity_matrix(old, new, w, p)
    assert int(S.sum()) == int(w.sum())
    # row i sums to the weight currently on processor i
    assert np.array_equal(
        S.sum(axis=1), np.bincount(old, weights=w, minlength=p).astype(np.int64)
    )
    # column j sums to new partition j's weight
    assert np.array_equal(
        S.sum(axis=0), np.bincount(new, weights=w, minlength=p).astype(np.int64)
    )


@given(inst=ownership_instance())
@settings(max_examples=25, deadline=None)
def test_remap_conservation_and_stats_consistency(inst):
    old, new, w, p = inst
    mv = build_move_matrix(old, new, w, p)
    # conservation: weight leaving i + staying = weight owned by i
    for i in range(p):
        stays = int(w[(old == i) & (new == i)].sum())
        assert stays + int(mv[i].sum()) == int(w[old == i].sum())
    # the identity assignment's stats describe the same movement
    S = similarity_matrix(old, new, w, p)
    st_id = remap_stats(S, np.arange(p))
    assert st_id.c_total == int(mv.sum())
    assert np.array_equal(st_id.sent, mv.sum(axis=1))
    assert np.array_equal(st_id.received, mv.sum(axis=0))
    # execute_remap reports exactly the same total
    ex = execute_remap(old, new, w, p, machine=IDEAL)
    assert ex.elements_moved == st_id.c_total


@given(inst=ownership_instance())
@settings(max_examples=25, deadline=None)
def test_reassignment_never_increases_movement(inst):
    """Any MWBG assignment must retain at least as much as the identity
    (the identity is one feasible assignment)."""
    old, new, w, p = inst
    S = similarity_matrix(old, new, w, p)
    identity = remap_stats(S, np.arange(p))
    for method in (optimal_mwbg, heuristic_mwbg):
        st_m = remap_stats(S, method(S))
        if method is optimal_mwbg:
            assert st_m.c_total <= identity.c_total
        else:
            # Theorem 1 corollary bound relative to the optimum
            opt_moved = remap_stats(S, optimal_mwbg(S)).c_total
            assert st_m.c_total <= 2 * opt_moved + 1  # integer slack


#: CostModel knobs on the gain side of the acceptance test (§4.6): the
#: solver phase T_iter·N_adapt and the subdivision credit T_child
GAIN_KNOBS = ("n_adapt", "t_iter", "t_child")


@given(
    inst=ownership_instance(),
    t_iter_exp=st.floats(-9.0, -3.0),
    t_child_exp=st.floats(-9.0, -3.0),
    n_adapt=st.integers(1, 500),
    storage_words=st.integers(1, 200),
    knob=st.sampled_from(GAIN_KNOBS + ("storage_words",)),
    factor=st.sampled_from([2, 3, 10]),
)
@settings(max_examples=150, deadline=None)
def test_decide_is_monotone_in_gain(
    inst, t_iter_exp, t_child_exp, n_adapt, storage_words, knob, factor
):
    """With weights, ownerships and RemapStats fixed, a larger gain side
    never turns accept into reject, and a larger storage requirement M
    never turns reject into accept."""
    old, new, w, p = inst
    stats = remap_stats(similarity_matrix(old, new, w, p), np.arange(p))
    base = CostModel(
        machine=SP2_1997,
        t_iter=10.0**t_iter_exp,
        n_adapt=n_adapt,
        storage_words=storage_words,
        t_child=10.0**t_child_exp,
    )
    raised = dataclasses.replace(base, **{knob: getattr(base, knob) * factor})
    before = base.decide(w, old, new, p, stats).accept
    after = raised.decide(w, old, new, p, stats).accept
    if knob in GAIN_KNOBS:
        assert after or not before
    else:
        assert before or not after
