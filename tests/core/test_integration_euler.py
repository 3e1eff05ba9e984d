"""Full-system integration: the Euler solver driving the Fig.-1 cycle.

This is the paper's actual use case — "mesh adaption based on actual flow
solutions" — run end to end: solve, build the indicator from the solution,
adapt, balance, solve again on the refined mesh.
"""

import numpy as np

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.mesh import box_mesh
from repro.parallel import MachineModel
from repro.solver import EulerSolver, density_indicator

from tests.fixtures import check_mesh, spherical_blast_field

CHEAP = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)


def test_solve_adapt_solve_cycle():
    mesh = box_mesh(3, 3, 3)
    q0 = spherical_blast_field(mesh.coords, center=(0.3, 0.3, 0.3), radius=0.2)
    solver = LoadBalancedAdaptiveSolver(
        mesh, 4, solution=q0, machine=CHEAP,
        cost_model=CostModel(machine=CHEAP), imbalance_threshold=1.05,
    )
    reports = []

    for step in range(2):
        cur = solver.adaptive.mesh
        flow = EulerSolver(cur, solver.adaptive.solution)
        flow.run(4, cfl=0.3)
        solver.adaptive.solution = flow.q
        err = density_indicator(cur, flow.q)
        reports.append(solver.adapt_step(edge_error=err, refine_frac=0.1))
        # the interpolated solution on the refined mesh is a valid state
        q = solver.adaptive.solution
        assert q.shape == (solver.adaptive.mesh.nv, 5)
        assert np.all(np.isfinite(q))
        assert np.all(q[:, 0] > 0)

    assert solver.adaptive.mesh.ne > mesh.ne
    assert solver.solver_imbalance() < 1.6
    assert len(reports) == 2
    check_mesh(solver.adaptive.mesh)
    # refinement followed the blast: elements near the feature are smaller
    vols = solver.adaptive.mesh.volumes()
    cent = solver.adaptive.mesh.coords[solver.adaptive.mesh.elems].mean(axis=1)
    near = np.linalg.norm(cent - 0.3, axis=1) < 0.25
    far = np.linalg.norm(cent - 0.75, axis=1) < 0.25
    assert vols[near].mean() < vols[far].mean()


def test_refined_mesh_supports_further_solving():
    """The solver must run stably on the adapted (non-uniform) mesh."""
    mesh = box_mesh(3, 3, 3)
    q0 = spherical_blast_field(mesh.coords, center=(0.5, 0.5, 0.5), radius=0.25)
    solver = LoadBalancedAdaptiveSolver(
        mesh, 2, solution=q0, machine=CHEAP,
        cost_model=CostModel(machine=CHEAP),
    )
    cur = solver.adaptive.mesh
    err = density_indicator(cur, solver.adaptive.solution)
    solver.adapt_step(edge_error=err, refine_frac=0.15)

    flow = EulerSolver(solver.adaptive.mesh, solver.adaptive.solution)
    flow.run(5, cfl=0.3)
    assert np.all(np.isfinite(flow.q))
    assert np.all(flow.q[:, 0] > 0)
