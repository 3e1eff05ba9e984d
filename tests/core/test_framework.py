"""Integration tests of the full Fig.-1 cycle."""

import numpy as np
import pytest

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.mesh import box_mesh, edge_midpoints
from repro.parallel import MachineModel

CHEAP_MACHINE = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)


def corner_error(mesh):
    """Error indicator concentrated near the origin corner."""
    mid = edge_midpoints(mesh.coords, mesh.edges)
    return 1.0 / (0.05 + np.linalg.norm(mid, axis=1))


def make_solver(nproc=4, **kw):
    m = box_mesh(3, 3, 3)
    return LoadBalancedAdaptiveSolver(
        m, nproc, machine=CHEAP_MACHINE,
        cost_model=CostModel(machine=CHEAP_MACHINE), **kw
    )


def test_constructor_validation():
    m = box_mesh(1, 1, 1)
    with pytest.raises(ValueError, match="nproc"):
        LoadBalancedAdaptiveSolver(m, 0)
    with pytest.raises(ValueError, match="reassigner"):
        LoadBalancedAdaptiveSolver(m, 2, reassigner="nope")
    with pytest.raises(ValueError, match="remap_when"):
        LoadBalancedAdaptiveSolver(m, 2, remap_when="sometimes")
    with pytest.raises(ValueError, match="F = 1"):
        LoadBalancedAdaptiveSolver(m, 2, reassigner="optimal_bmcm", F=2)


def test_unknown_backend_name_is_refused_before_any_partitioning():
    from repro.partition import multilevel_kway

    with pytest.raises(ValueError, match="unknown communicator backend 'bogus'; "
                                         "available: .*virtual"):
        LoadBalancedAdaptiveSolver(box_mesh(2, 2, 2), 2, backend="bogus")
    assert multilevel_kway.cache_info().misses == 0
    # a ready-made backend object is the caller's business, as before
    LoadBalancedAdaptiveSolver(box_mesh(2, 2, 2), 2, backend=object())
    assert multilevel_kway.cache_info().misses == 1


def test_initial_partition_balanced():
    s = make_solver(4)
    assert s.solver_imbalance() <= 1.15
    assert np.bincount(s.part, minlength=4).min() > 0


def test_localized_refinement_triggers_rebalance():
    s = make_solver(4)
    err = corner_error(s.adaptive.mesh)
    report = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert report.repartition_triggered
    assert report.accepted
    assert report.imbalance_after < report.imbalance_before
    assert s.solver_imbalance() <= 1.3
    # ownership still covers every initial element exactly once
    assert s.part.shape == (s.adaptive.initial_mesh.ne,)
    assert s.part.min() >= 0 and s.part.max() < 4


def test_uniform_refinement_skips_balancing():
    """Uniform 1:8 refinement multiplies every weight by 8 — balance is
    preserved, so the evaluation step must skip the load balancer."""
    s = make_solver(4)
    report = s.adapt_step(edge_mask=np.ones(s.adaptive.mesh.nedges, dtype=bool))
    assert not report.repartition_triggered
    assert report.remap_time == 0.0
    assert report.growth_factor == pytest.approx(8.0)


def test_single_proc_never_balances():
    s = make_solver(1)
    err = corner_error(s.adaptive.mesh)
    report = s.adapt_step(edge_error=err, refine_frac=0.2)
    assert not report.repartition_triggered
    assert report.adaption_time > 0


def test_remap_before_moves_less_than_after():
    """§4.6: remapping before subdivision moves the un-grown mesh."""
    err = None
    moved = {}
    for when in ("before", "after"):
        s = make_solver(4, remap_when=when, seed=1)
        err = corner_error(s.adaptive.mesh)
        rep = s.adapt_step(edge_error=err, refine_frac=0.2)
        assert rep.accepted, f"remap_when={when} should accept"
        moved[when] = rep.remap.elements_moved
    assert moved["before"] < moved["after"]


def test_remap_before_balances_subdivision():
    err = None
    subdiv = {}
    for when in ("before", "after"):
        s = make_solver(4, remap_when=when, seed=1)
        err = corner_error(s.adaptive.mesh)
        rep = s.adapt_step(edge_error=err, refine_frac=0.2)
        subdiv[when] = rep.subdivision_time
    assert subdiv["before"] < subdiv["after"]


@pytest.mark.parametrize(
    "method", ["heuristic_mwbg", "optimal_mwbg", "optimal_bmcm", "combined"]
)
def test_all_reassigners_run(method):
    s = make_solver(4, reassigner=method)
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert rep.repartition_triggered
    assert rep.stats is not None
    assert rep.reassign_time >= 0


def test_F2_partitions_per_processor():
    s = make_solver(2, F=2)
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.2)
    if rep.repartition_triggered and rep.accepted:
        assert s.part.max() < 2  # partitions folded back onto processors


def test_multiple_adaption_steps():
    s = make_solver(4)
    for _ in range(3):
        err = corner_error(s.adaptive.mesh)
        s.adapt_step(edge_error=err, refine_frac=0.1)
        s.adaptive.mesh.check()
    assert s.adaptive.forest.depth == 3
    assert s.solver_imbalance() < 2.0


def test_report_times_populated():
    s = make_solver(4)
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert rep.marking_time > 0
    assert rep.subdivision_time > 0
    assert rep.adaption_time == rep.marking_time + rep.subdivision_time
    if rep.accepted:
        assert rep.partition_time > 0
        assert rep.remap_time > 0
        assert rep.total_time >= rep.adaption_time
        # §4.3's "minuscule" gather/scatter claim: dwarfed by the remap
        assert 0 < rep.gather_scatter_time < rep.remap_time


def test_rejection_leaves_partition_unchanged():
    """With an absurdly expensive machine the gain can't pay for the move."""
    expensive = MachineModel(t_setup=10.0, t_word=1.0, t_work=1e-6)
    m = box_mesh(3, 3, 3)
    s = LoadBalancedAdaptiveSolver(
        m, 4, machine=expensive,
        cost_model=CostModel(machine=expensive, t_iter=1e-9, n_adapt=1),
    )
    before = s.part.copy()
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert rep.repartition_triggered
    assert not rep.accepted
    assert np.array_equal(s.part, before)
