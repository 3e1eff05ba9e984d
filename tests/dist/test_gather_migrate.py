"""Finalization gather and element migration."""

import numpy as np
import pytest

from repro.dist import decompose, finalize, migrate
from repro.mesh import box_mesh, tet_volumes
from repro.partition import Graph, multilevel_kway

from tests.fixtures import check_local_mesh, two_tets


def canonical(mesh):
    """Order-independent signature of a mesh: sorted element coordinate
    multisets."""
    pts = np.sort(
        mesh.coords[np.sort(mesh.elems, axis=1)].reshape(mesh.ne, -1), axis=1
    )
    order = np.lexsort(pts.T)
    return pts[order]


class TestFinalize:
    def test_roundtrip_two_tets(self):
        m = two_tets()
        locals_ = decompose(m, np.array([0, 1]), 2)
        res = finalize(locals_)
        assert res.mesh.ne == m.ne
        assert res.mesh.nv == m.nv
        assert np.allclose(canonical(res.mesh), canonical(m))
        assert res.gather_seconds > 0

    @pytest.mark.parametrize("nproc", [2, 3, 5])
    def test_roundtrip_box(self, nproc):
        m = box_mesh(3, 3, 3)
        g = Graph.from_pairs(m.dual_pairs, m.ne)
        part = multilevel_kway(g, nproc, seed=1)
        res = finalize(decompose(m, part, nproc))
        assert res.mesh.ne == m.ne
        assert res.mesh.nv == m.nv
        assert res.mesh.nedges == m.nedges
        assert res.mesh.nbnd == m.nbnd
        assert np.allclose(canonical(res.mesh), canonical(m))
        # volume conserved exactly
        assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())
        # new global numbering is a bijection
        for new_ids in res.vert_new_global:
            assert np.all(new_ids >= 0)
        all_owned = np.concatenate(
            [ids for ids in res.vert_new_global]
        )
        assert set(all_owned.tolist()) == set(range(m.nv))

    def test_gather_cost_grows_with_ranks(self):
        m = box_mesh(3, 3, 3)
        g = Graph.from_pairs(m.dual_pairs, m.ne)
        t = {}
        for p in (2, 8):
            part = multilevel_kway(g, p, seed=0)
            t[p] = finalize(decompose(m, part, p)).gather_seconds
        # more senders -> more messages into the host
        assert t[8] > 0 and t[2] > 0


class TestMigrate:
    def test_matches_fresh_decomposition(self):
        m = box_mesh(3, 3, 3)
        g = Graph.from_pairs(m.dual_pairs, m.ne)
        old = multilevel_kway(g, 4, seed=0)
        new = multilevel_kway(g, 4, seed=7)
        locals_ = decompose(m, old, 4)
        res = migrate(m, locals_, new)
        fresh = decompose(m, new, 4)
        assert res.elements_moved == int((old != new).sum())
        for a, b in zip(res.locals, fresh):
            assert np.array_equal(a.elem_l2g, b.elem_l2g)
            assert np.array_equal(a.vert_l2g, b.vert_l2g)
            assert np.array_equal(a.vert_spl_dat, b.vert_spl_dat)
            check_local_mesh(a, m)

    def test_noop_migration(self):
        m = two_tets()
        part = np.array([0, 1])
        locals_ = decompose(m, part, 2)
        res = migrate(m, locals_, part)
        assert res.elements_moved == 0
        assert res.messages == 0

    def test_more_movement_costs_more(self):
        m = box_mesh(3, 3, 3)
        g = Graph.from_pairs(m.dual_pairs, m.ne)
        old = multilevel_kway(g, 4, seed=0)
        locals_ = decompose(m, old, 4)
        # small perturbation vs full permutation of partitions
        small = old.copy()
        small[:10] = (small[:10] + 1) % 4
        rolled = (old + 1) % 4
        t_small = migrate(m, locals_, small).seconds
        t_big = migrate(m, locals_, rolled).seconds
        assert t_small < t_big

    def test_validation(self):
        m = two_tets()
        locals_ = decompose(m, np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="shape"):
            migrate(m, locals_, np.array([0]))
