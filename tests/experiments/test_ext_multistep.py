"""Extension — repeated refinement (paper §5 closing claim).

"It is important to realize that the results shown in Figs. 7 and 8 are
for a single refinement step.  With repeated refinement, the gains
realized with load balancing may be even more significant."

The test runs three consecutive adapt steps of a localized strategy with
and without the load balancer and compares cumulative modelled solver
time: the balanced run's advantage after three steps must exceed its
advantage after one.
"""

import numpy as np

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.parallel.machine import SP2_1997


def _solver_phase_time(solver) -> float:
    """Modelled time of one solve phase under the solver's current mapping."""
    loads = np.bincount(
        solver.part, weights=solver.adaptive.wcomp().astype(np.float64),
        minlength=solver.nproc,
    )
    return solver.cost_model.solver_phase_time(float(loads.max()))


def _cumulative_solver_times(case, balance: bool, steps: int = 3, nproc: int = 16):
    solver = LoadBalancedAdaptiveSolver(
        case.mesh,
        nproc,
        machine=SP2_1997,
        cost_model=CostModel(machine=SP2_1997),
        # a threshold no run can exceed disables the balancer entirely
        imbalance_threshold=1.0 if balance else float(nproc),
    )
    times = []
    elem_err = case.elem_error
    for _ in range(steps):
        from repro.adapt.marking import target_elements_by_fraction

        # elements inherit their refinement-tree root's feature intensity,
        # so the same localized region keeps refining step after step
        err_now = elem_err[solver.adaptive.forest.root_of_elem]
        mask = target_elements_by_fraction(solver.adaptive.mesh, err_now, 0.10)
        solver.adapt_step(edge_mask=mask)
        times.append(_solver_phase_time(solver))
    return np.array(times)


def test_gains_compound_over_steps(case):
    balanced = _cumulative_solver_times(case, balance=True)
    unbalanced = _cumulative_solver_times(case, balance=False)

    ratio_per_step = unbalanced / balanced
    cum_ratio = unbalanced.cumsum() / balanced.cumsum()
    print(f"\n  per-step solver-time ratio (unbal/bal): "
          f"{np.round(ratio_per_step, 2).tolist()}")
    print(f"  cumulative ratio after each step:       "
          f"{np.round(cum_ratio, 2).tolist()}")

    # balancing always helps ...
    assert np.all(ratio_per_step >= 1.0)
    # ... and the advantage after three steps beats the single-step one
    assert cum_ratio[-1] > cum_ratio[0]
    # imbalance compounds: the last unbalanced step is worse than the first
    assert ratio_per_step[-1] > ratio_per_step[0]
