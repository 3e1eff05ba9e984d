"""Optimized marking/refinement kernels must match the reference bit-for-bit."""

import numpy as np
import pytest

from repro.adapt.marking import propagate_markings, target_by_fraction
from repro.adapt.refine import subdivide
from repro.mesh.generate import box_mesh
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import MachineModel

from .oracles import reference_kernels


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_subdivide_bit_identical(seed):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(3, 3, 3)
    err = rng.uniform(size=mesh.nedges)
    frac = float(rng.uniform(0.05, 0.6))
    marking = propagate_markings(mesh, target_by_fraction(err, frac))
    sol = rng.uniform(size=(mesh.nv, 2))
    opt = subdivide(mesh, marking, solution=sol)
    with reference_kernels():
        ref = subdivide(mesh, marking, solution=sol)
    assert np.array_equal(opt.mesh.elems, ref.mesh.elems)
    assert np.array_equal(opt.mesh.coords, ref.mesh.coords)
    assert np.array_equal(opt.parent, ref.parent)
    assert np.array_equal(opt.child_count, ref.child_count)
    assert np.array_equal(opt.midpoint_of, ref.midpoint_of)
    assert np.array_equal(opt.edge_children, ref.edge_children)
    assert np.array_equal(opt.edge_survivor, ref.edge_survivor)
    assert np.array_equal(opt.solution, ref.solution)


def test_subdivide_handles_unmarked_empty_and_tiny_meshes():
    # regression: a mesh where nothing (or everything) is selected must not
    # crash the chunk assembly in either implementation
    mesh = box_mesh(1, 1, 1)
    marking = propagate_markings(mesh, np.zeros(mesh.nedges, dtype=bool))
    for force_ref in (False, True):
        with reference_kernels(force_ref):
            res = subdivide(mesh, marking)
        assert res.mesh.ne == mesh.ne
        assert np.array_equal(res.child_count, np.ones(mesh.ne, dtype=np.int64))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_propagate_markings_ledger_bit_identical(seed):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(3, 3, 3)
    marked = target_by_fraction(rng.uniform(size=mesh.nedges), 0.25)
    nproc = int(rng.integers(2, 9))
    part = rng.integers(0, nproc, size=mesh.ne)

    led_opt = CostLedger(nproc, MachineModel())
    opt = propagate_markings(mesh, marked, part=part, ledger=led_opt)
    with reference_kernels():
        led_ref = CostLedger(nproc, MachineModel())
        ref = propagate_markings(mesh, marked, part=part, ledger=led_ref)

    assert np.array_equal(opt.edge_marked, ref.edge_marked)
    assert np.array_equal(opt.patterns, ref.patterns)
    assert opt.iterations == ref.iterations
    assert np.array_equal(led_opt.clocks, led_ref.clocks)
    assert led_opt.total_messages == led_ref.total_messages
    assert led_opt.total_words == led_ref.total_words
