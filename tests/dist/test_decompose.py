"""Initialization phase: decomposition and SPL consistency."""

import numpy as np
import pytest

from repro.dist import decompose
from repro.dist.decompose import _spl_csr, rank_incidence
from repro.mesh import box_mesh
from repro.partition import Graph, multilevel_kway

from tests.fixtures import check_local_mesh, two_tets


def _vertex_spl(lm, v):
    """Other ranks sharing local vertex ``v``: its slice of the SPL CSR."""
    return lm.vert_spl_dat[lm.vert_spl_ptr[v] : lm.vert_spl_ptr[v + 1]]


def test_two_tets_two_ranks():
    m = two_tets()
    locals_ = decompose(m, np.array([0, 1]), 2)
    assert len(locals_) == 2
    for lm in locals_:
        assert lm.ne == 1
        assert lm.nv == 4
        check_local_mesh(lm, m)
    # the shared face (1,2,3): 3 shared vertices, 3 shared edges per side
    for lm in locals_:
        assert lm.vert_shared.sum() == 3
        assert lm.edge_shared.sum() == 3
        for v in np.flatnonzero(lm.vert_shared):
            assert _vertex_spl(lm, v).tolist() == [1 - lm.rank]


def test_partition_of_box_covers_everything():
    m = box_mesh(3, 3, 3)
    g = Graph.from_pairs(m.dual_pairs, m.ne)
    part = multilevel_kway(g, 4, seed=0)
    locals_ = decompose(m, part, 4)
    assert sum(lm.ne for lm in locals_) == m.ne
    # every global element appears exactly once
    all_elems = np.concatenate([lm.elem_l2g for lm in locals_])
    assert np.array_equal(np.sort(all_elems), np.arange(m.ne))
    # every global vertex/edge appears on at least one rank
    assert set(np.concatenate([lm.vert_l2g for lm in locals_])) == set(range(m.nv))
    assert set(np.concatenate([lm.edge_l2g for lm in locals_])) == set(
        range(m.nedges)
    )
    for lm in locals_:
        check_local_mesh(lm, m)


def test_spl_symmetry():
    """If rank a lists rank b for a shared vertex, b lists a for the same
    global vertex."""
    m = box_mesh(2, 2, 2)
    part = np.arange(m.ne) % 3
    locals_ = decompose(m, part, 3)
    spl_by_global: dict[int, dict[int, list]] = {}
    for lm in locals_:
        for lv in np.flatnonzero(lm.vert_shared):
            g = int(lm.vert_l2g[lv])
            spl_by_global.setdefault(g, {})[lm.rank] = sorted(
                _vertex_spl(lm, lv).tolist()
            )
    for g, per_rank_spl in spl_by_global.items():
        ranks = sorted(per_rank_spl)
        for r, spl in per_rank_spl.items():
            assert spl == [x for x in ranks if x != r], (g, r)


def test_shared_fraction_reasonable():
    # 6x6x6 (324 elements per part): on 4x4x4 a 96-element part is mostly
    # surface, so the fraction would measure the mesh, not the partition
    m = box_mesh(6, 6, 6)
    g = Graph.from_pairs(m.dual_pairs, m.ne)
    part = multilevel_kway(g, 4, seed=0)
    locals_ = decompose(m, part, 4)
    # a good partition keeps the shared fraction modest (paper: the extra
    # parallel storage was < 10%; our meshes are smaller so allow more)
    for lm in locals_:
        assert lm.shared_fraction() < 0.5
    # random partitions share much more — the locality penalty is visible
    rng = np.random.default_rng(0)
    scattered = decompose(m, rng.integers(0, 4, m.ne), 4)
    assert (
        sum(lm.shared_fraction() for lm in scattered)
        > sum(lm.shared_fraction() for lm in locals_)
    )


def _spl_csr_loop(gids, ptr, ranks, own_rank):
    """The per-object loop ``_spl_csr`` replaced, kept as its reference."""
    counts = []
    data = []
    for g in gids:
        spl = ranks[ptr[g] : ptr[g + 1]]
        spl = spl[spl != own_rank]
        counts.append(spl.shape[0])
        data.append(spl)
    out_ptr = np.zeros(len(gids) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=out_ptr[1:])
    out_dat = (
        np.concatenate(data) if data else np.empty(0, dtype=np.int64)
    )
    return out_ptr, out_dat


@pytest.mark.parametrize("seed", range(8))
def test_spl_csr_equals_the_loop(seed):
    """Random incidences, empty ranks and unshared objects included:
    same pointers and data, same dtypes."""
    rng = np.random.default_rng(seed)
    n_global, nproc = 40, 5
    ids = [np.unique(rng.integers(0, n_global, rng.integers(0, 30)))
           for _ in range(nproc)]
    ptr, ranks, _ = rank_incidence(ids, n_global)
    for r, gids in enumerate(ids):
        got = _spl_csr(gids, ptr, ranks, r)
        want = _spl_csr_loop(gids, ptr, ranks, r)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_input_validation():
    m = two_tets()
    with pytest.raises(ValueError, match="shape"):
        decompose(m, np.array([0]), 2)
    with pytest.raises(ValueError, match="labels"):
        decompose(m, np.array([0, 5]), 2)


def test_empty_rank_allowed():
    m = two_tets()
    locals_ = decompose(m, np.array([0, 0]), 2)
    assert locals_[0].ne == 2
    assert locals_[1].ne == 0
    assert locals_[0].shared_fraction() == 0.0
