"""End-to-end: the adapt→balance cycle's virtual times are unchanged by the
optimized kernels, at more than one resolution."""

import numpy as np
import pytest

from repro.core.framework import LoadBalancedAdaptiveSolver
from repro.mesh.generate import box_mesh

from .oracles import reference_kernels


def _run_steps(res, nproc, force_reference):
    with reference_kernels(force_reference):
        solver = LoadBalancedAdaptiveSolver(
            box_mesh(res, res, res), nproc=nproc, seed=0
        )
        reports = []
        for step in range(2):
            rng = np.random.default_rng(1000 + step)
            err = rng.uniform(size=solver.adaptive.mesh.nedges)
            reports.append(solver.adapt_step(edge_error=err, refine_frac=0.15))
    return reports


@pytest.mark.parametrize("res,nproc", [(2, 4), (3, 8)])
def test_step_reports_bit_identical(res, nproc):
    for opt, ref in zip(
        _run_steps(res, nproc, False), _run_steps(res, nproc, True)
    ):
        assert opt.total_time == ref.total_time
        assert opt.phase_times() == ref.phase_times()
        assert opt.marking_time == ref.marking_time
        assert opt.partition_time == ref.partition_time
        assert opt.reassign_time == ref.reassign_time
        assert opt.gather_scatter_time == ref.gather_scatter_time
        assert opt.remap_time == ref.remap_time
        assert opt.subdivision_time == ref.subdivision_time
        assert opt.imbalance_before == ref.imbalance_before
        assert opt.imbalance_after == ref.imbalance_after
        assert opt.repartition_triggered == ref.repartition_triggered
        assert opt.accepted == ref.accepted
        assert opt.growth_factor == ref.growth_factor
        assert opt.mesh_sizes == ref.mesh_sizes
