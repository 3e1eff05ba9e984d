"""Similarity matrix construction and TotalV/MaxV statistics."""

import numpy as np
import pytest

from repro.core import remap_stats, similarity_matrix
from repro.parallel import MachineModel


def test_similarity_basic():
    old = np.array([0, 0, 1, 1])
    new = np.array([0, 1, 1, 0])
    w = np.array([10, 20, 30, 40])
    S = similarity_matrix(old, new, w, nproc=2)
    assert S.tolist() == [[10, 20], [40, 30]]
    assert S.sum() == w.sum()


def test_similarity_f2():
    old = np.array([0, 0, 1, 1])
    new = np.array([0, 1, 2, 3])
    w = np.ones(4, dtype=np.int64)
    S = similarity_matrix(old, new, w, nproc=2, npart=4)
    assert S.shape == (2, 4)
    assert S.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]


def test_similarity_validation():
    with pytest.raises(ValueError, match="align"):
        similarity_matrix(np.zeros(3, int), np.zeros(4, int), np.zeros(3, int), 2)
    with pytest.raises(ValueError, match="multiple"):
        similarity_matrix(np.zeros(4, int), np.zeros(4, int), np.ones(4, int), 2, 3)
    with pytest.raises(ValueError, match="out of range"):
        similarity_matrix(np.array([5]), np.array([0]), np.array([1]), 2)


def test_remap_stats_identity_mapping():
    S = np.diag([5, 7, 9]).astype(np.int64)
    st = remap_stats(S, np.array([0, 1, 2]))
    assert st.objective == 21
    assert st.c_total == 0
    assert st.n_total == 0
    assert st.c_max == 0
    assert st.sent.tolist() == [0, 0, 0]


def test_remap_stats_full_rotation():
    S = np.diag([5, 7, 9]).astype(np.int64)
    # rotate: partition j -> processor (j+1) % 3; everything moves
    st = remap_stats(S, np.array([1, 2, 0]))
    assert st.objective == 0
    assert st.c_total == 21
    assert st.n_total == 3
    assert st.sent.tolist() == [5, 7, 9]
    assert st.received.tolist() == [9, 5, 7]
    assert st.max_sent == 9
    # cost per proc: max(sent, recv) = (9, 7, 9); procs 0 and 2 tie at 9
    assert st.c_max == 9
    assert st.bottleneck in (0, 2)
    assert st.n_max == 2  # one set out, one set in


def test_remap_stats_alpha_beta():
    S = np.array([[0, 10], [10, 0]])
    st = remap_stats(S, np.array([0, 1]), alpha=1.0, beta=3.0)
    # everything moves both ways; recv weighted 3x
    assert st.c_max == 30


def test_remap_stats_rejects_uneven_assignment():
    S = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="same number"):
        remap_stats(S, np.array([0, 0]))


def test_charge_gather_scatter():
    """The §4.3 gather/scatter program: 3 rows in, 3 mappings out, each
    ``npart`` words; rank 0 receives and sends one message at a time."""
    from repro.core.phases import price_gather_scatter
    from repro.obs import Tracer, analyze, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        run = price_gather_scatter(4, 4, MachineModel(t_setup=1.0, t_word=0.0,
                                                      t_work=0.0))
    assert run.total_messages == 6
    assert run.total_words == 6 * 4
    [stats] = analyze(tracer).stats.values()
    assert [st.msgs_sent for st in stats] == [3, 1, 1, 1]
    assert [st.msgs_recv for st in stats] == [3, 1, 1, 1]
    # the host's three receives and three sends take one startup each; the
    # last mapping arrives as the host's last send completes
    assert run.makespan == 6.0
