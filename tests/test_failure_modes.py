"""Failure injection and degenerate-input behaviour across the stack.

Every module should fail loudly and specifically on invalid input — these
tests pin the error contracts so refactors can't silently turn validation
into garbage output.
"""

import numpy as np
import pytest

from repro.adapt import AdaptiveMesh, propagate_markings
from repro.core import LoadBalancedAdaptiveSolver, similarity_matrix
from repro.mesh import TetMesh, box_mesh
from repro.parallel import DeadlockError, MachineModel, VirtualMachine
from repro.solver import EulerSolver, conservative

from tests.fixtures import check_mesh, single_tet, uniform_flow


class TestDegenerateMeshes:
    def test_zero_volume_element_rejected(self):
        coords = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]
        )  # collinear
        m = TetMesh.from_elems(coords, np.array([[0, 1, 2, 3]]), orient=False)
        with pytest.raises(AssertionError, match="volume"):
            check_mesh(m)

    def test_duplicate_vertices_in_element(self):
        m = TetMesh.from_elems(
            np.eye(4, 3), np.array([[0, 1, 2, 2]]), orient=False
        )
        with pytest.raises(AssertionError):
            check_mesh(m)

    def test_empty_mesh_is_consistent(self):
        m = TetMesh.from_elems(np.zeros((0, 3)), np.zeros((0, 4), dtype=int))
        assert m.ne == 0 and m.nv == 0 and m.nedges == 0
        assert m.volumes().sum() == 0.0


class TestSolverGuards:
    def test_negative_density_input_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            conservative(np.array([-1.0]), np.zeros((1, 3)), np.array([1.0]))

    def test_extreme_cfl_still_finite_briefly(self):
        m = box_mesh(2, 2, 2)
        s = EulerSolver(m, uniform_flow(m.coords))
        dt = s.stable_dt()
        assert np.isfinite(dt) and dt > 0

    def test_mismatched_solution_rejected_by_adaptor(self):
        m = single_tet()
        with pytest.raises(ValueError, match="solution"):
            AdaptiveMesh(m, solution=np.zeros((7, 5)))


class TestLoadBalancerGuards:
    def test_similarity_total_must_be_conserved(self):
        """similarity_matrix cannot lose weight even with extreme skew."""
        n = 1000
        rng = np.random.default_rng(0)
        old = np.zeros(n, dtype=np.int64)  # everything on one processor
        new = rng.integers(0, 16, n)
        w = rng.integers(1, 100, n)
        S = similarity_matrix(old, new, w, 16)
        assert S.sum() == w.sum()
        assert (S[1:] == 0).all()  # rows of empty processors stay zero

    def test_framework_rejects_empty_processor_request(self):
        with pytest.raises(ValueError):
            LoadBalancedAdaptiveSolver(box_mesh(1, 1, 1), nproc=-1)


class TestVirtualMachineFailures:
    def test_mutual_recv_deadlock_reported_with_ranks(self):
        def prog(comm):
            _ = yield from comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError) as e:
            VirtualMachine(3).run(prog)
        assert "[0, 1, 2]" in str(e.value)

    def test_partial_deadlock_other_ranks_finish(self):
        """Ranks that can finish do; only the blocked ones are reported."""

        def prog(comm):
            if comm.rank == 0:
                _ = yield from comm.recv(source=1, tag=5)  # never sent
            yield from comm.compute(1)

        with pytest.raises(DeadlockError) as e:
            VirtualMachine(3).run(prog)
        assert "[0]" in str(e.value)

    def test_exception_in_rank_program_propagates(self):
        def prog(comm):
            yield from comm.compute(1)
            raise RuntimeError("rank exploded")

        with pytest.raises(RuntimeError, match="rank exploded"):
            VirtualMachine(2).run(prog)

    def test_machine_model_validation(self):
        m = MachineModel()

        def negative_send(comm):
            yield from comm.send(None, dest=1 - comm.rank, nwords=-1)

        with pytest.raises(ValueError, match="negative message size"):
            VirtualMachine(2, m).run(negative_send)
        with pytest.raises(ValueError):
            m.work_time(-5)


class TestMarkingRobustness:
    def test_all_edges_marked_is_stable(self):
        m = box_mesh(2, 2, 2)
        r = propagate_markings(m, np.ones(m.nedges, dtype=bool))
        assert r.iterations == 1
        assert r.edge_marked.all()

    def test_alternating_mask_converges(self):
        """A pathological scattered mask converges (propagation is
        monotone and bounded by the full mask)."""
        m = box_mesh(3, 3, 3)
        mask = np.zeros(m.nedges, dtype=bool)
        mask[::7] = True
        r = propagate_markings(m, mask)
        assert r.iterations < 30
        re = propagate_markings(m, r.edge_marked)
        assert re.iterations == 1
