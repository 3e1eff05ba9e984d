"""The oracle harness itself: counts, no timers.

``reference_kernels()`` substitutes the oracles from outside the product,
so an equivalence test is only as good as the substitution: if a binding
silently did not move, "fast == reference" compares the product with
itself.  These tests pin that every oracle is reached inside the manager
and never outside it, that a bad target or an error in the body cannot
leave the product rebound, that a partition is never served across the
switch — and that the fork the oracles replaced cannot come back into
``src/`` unnoticed.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt.marking import propagate_markings, target_by_fraction
from repro.adapt.refine import subdivide
from repro.core.dualgraph import DualGraph
from repro.mesh.generate import box_mesh
from repro.parallel import VirtualMachine
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import MachineModel
from repro.partition import multilevel_kway
from repro.solver.euler import dual_volumes, edge_normals
from repro.solver.scatter import scatter_add_components, scatter_add_rows

from . import oracles
from .oracles import (
    CALLS,
    SUBSTITUTIONS,
    reference_kernels,
    scatter_add_components_reference,
    scatter_add_rows_reference,
)

SRC = Path(__file__).resolve().parents[2] / "src"


# --- (i) the one property behind the five deleted solver branches ------------

#: trailing shapes the solver scatters: scalars (dual volumes, CFL sums),
#: edge normals, the least-squares normal matrices, states and their
#: right-hand sides
TRAILING = [(), (3,), (3, 3), (5,), (2, 3), (5, 3)]


@given(
    nrows=st.integers(1, 12),
    n=st.integers(0, 60),
    trailing=st.sampled_from(TRAILING),
    seed=st.integers(0, 2**32 - 1),
    subtract_then_add=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_scatter_add_rows_is_add_at(nrows, n, trailing, seed, subtract_then_add):
    rng = np.random.default_rng(seed)
    index = rng.integers(0, nrows, size=n)  # few rows: indices repeat
    values = rng.standard_normal((n,) + trailing) * 10.0 ** rng.integers(-8, 8)
    expect = np.zeros((nrows,) + trailing)
    if subtract_then_add:
        # the residual: f leaves each lower endpoint and enters each upper
        upper = rng.integers(0, nrows, size=n)
        np.subtract.at(expect, index, values)
        np.add.at(expect, upper, values)
        index = np.concatenate([index, upper])
        values = np.concatenate([-values, values])
    else:
        np.add.at(expect, index, values)
    got = scatter_add_rows(index, values, nrows)
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert np.array_equal(got, expect)  # same additions in the same order
    assert np.array_equal(scatter_add_rows_reference(index, values, nrows), expect)
    # the same scatter on component-major rows: values (k, n) -> (k, nrows)
    width = int(np.prod(trailing))
    rows = values.reshape(values.shape[0], width).T
    expect_rows = expect.reshape(nrows, width).T
    assert np.array_equal(scatter_add_components(index, rows, nrows), expect_rows)
    assert np.array_equal(
        scatter_add_components_reference(index, rows, nrows), expect_rows
    )


# --- (ii) every oracle is reached inside the manager, and only there ---------


def _ring(comm):
    yield from comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=0)
    return (yield from comm.recv(source=(comm.rank - 1) % comm.size, tag=0))


def _drive_vm():
    VirtualMachine(3, trace=True).run(_ring)


def _drive_partitioner():
    # > 64 vertices, so the bisections coarsen (matching) before FM
    multilevel_kway.cache_clear()
    multilevel_kway(DualGraph(box_mesh(3, 3, 3)).graph, 4, seed=0)


def _drive_subdivide():
    mesh = box_mesh(2, 2, 2)
    err = np.random.default_rng(0).uniform(size=mesh.nedges)
    subdivide(mesh, propagate_markings(mesh, target_by_fraction(err, 0.3)))


def _drive_marking_exchange():
    mesh = box_mesh(2, 2, 2)
    rng = np.random.default_rng(0)
    marked = target_by_fraction(rng.uniform(size=mesh.nedges), 0.3)
    part = rng.integers(0, 3, size=mesh.ne)
    propagate_markings(mesh, marked, part=part, ledger=CostLedger(3, MachineModel()))


def _drive_solver():
    dual_volumes(box_mesh(2, 2, 2))


def _drive_normals():
    edge_normals(box_mesh(2, 2, 2))


DRIVERS = {
    "repro.parallel.runtime:VirtualMachine._run_fast": _drive_vm,
    "repro.partition.fm_refine:fm_bisection_refine": _drive_partitioner,
    "repro.partition.fm_refine:kway_greedy_refine": _drive_partitioner,
    "repro.partition.matching:heavy_edge_matching": _drive_partitioner,
    "repro.partition.initial:greedy_graph_growing": _drive_partitioner,
    "repro.adapt.refine:_assemble_children": _drive_subdivide,
    "repro.adapt.marking:_charge_shared_exchange": _drive_marking_exchange,
    "repro.solver.scatter:scatter_add_rows": _drive_solver,
    "repro.solver.scatter:scatter_add_components": _drive_normals,
}


def test_every_substitution_has_a_driver():
    assert set(DRIVERS) == {target for target, _ in SUBSTITUTIONS}


@pytest.mark.parametrize("target", sorted(DRIVERS))
def test_oracle_runs_inside_the_manager_and_not_outside(target):
    drive = DRIVERS[target]
    before = CALLS[target]
    drive()
    assert CALLS[target] == before  # the product ran
    with reference_kernels():
        drive()
    inside = CALLS[target]
    assert inside > before  # the oracle ran
    drive()
    assert CALLS[target] == inside  # and the product is back


def test_each_scheduler_builds_its_own_mailbox(monkeypatch):
    """The product's mailbox is a plain list; only the oracle builds a
    ``_ListMailbox``, one per rank."""
    built = []

    class CountingList(oracles._ListMailbox):
        __slots__ = ()

        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(oracles, "_ListMailbox", CountingList)
    _drive_vm()
    assert built == []
    with reference_kernels():
        _drive_vm()
    assert len(built) == 3


# --- (iii)-(v) the manager fails loudly and leaves nothing behind -------------


def _bindings():
    """What every substitution target resolves to right now."""
    return [oracles._resolve(target)[3] for target, _ in SUBSTITUTIONS]


def test_unknown_target_raises_before_anything_moves(monkeypatch):
    product = _bindings()
    bogus = SUBSTITUTIONS + (("repro.partition.matching:no_such_kernel", print),)
    monkeypatch.setattr(oracles, "SUBSTITUTIONS", bogus)
    with pytest.raises(AttributeError, match="no_such_kernel"):
        with reference_kernels():
            pytest.fail("body must not run")
    assert _bindings() == product


def test_a_target_bound_nowhere_raises(monkeypatch):
    product = _bindings()
    # resolves, but it is not the global of any repro.* module
    orphan = SUBSTITUTIONS + (("tests.kernels.oracles:_matches", print),)
    monkeypatch.setattr(oracles, "SUBSTITUTIONS", orphan)
    with pytest.raises(RuntimeError, match="bound nowhere.*oracles:_matches"):
        with reference_kernels():
            pytest.fail("body must not run")
    assert _bindings() == product


def test_state_is_restored_after_an_exception_in_the_body():
    product = _bindings()
    with pytest.raises(ZeroDivisionError):
        with reference_kernels():
            assert _bindings() == [oracle for _, oracle in SUBSTITUTIONS]
            1 / 0
    assert _bindings() == product
    before = sum(CALLS.values())
    for drive in set(DRIVERS.values()):
        drive()
    assert sum(CALLS.values()) == before


def test_nested_use_restores_the_outer_state():
    product = _bindings()
    substituted = [oracle for _, oracle in SUBSTITUTIONS]
    with reference_kernels():
        with reference_kernels(False):
            assert _bindings() == product
            with reference_kernels():
                assert _bindings() == substituted
            assert _bindings() == product
        assert _bindings() == substituted
        with reference_kernels():
            assert _bindings() == substituted
        assert _bindings() == substituted
    assert _bindings() == product
    with reference_kernels(False):
        assert _bindings() == product
    assert _bindings() == product


def test_no_partition_is_served_across_the_switch():
    g = DualGraph(box_mesh(3, 3, 3)).graph
    fast = multilevel_kway(g, 4, seed=0)
    assert multilevel_kway.cache_info().currsize > 0
    with reference_kernels():
        assert multilevel_kway.cache_info().currsize == 0  # entry
        calls = CALLS["repro.partition.fm_refine:kway_greedy_refine"]
        ref = multilevel_kway(g, 4, seed=0)
        # recomputed by the oracle, not a copy of what the product stored
        assert CALLS["repro.partition.fm_refine:kway_greedy_refine"] == calls + 1
        assert multilevel_kway.cache_info().currsize > 0
    assert multilevel_kway.cache_info().currsize == 0  # exit
    assert np.array_equal(fast, ref)


# --- the fork cannot come back unnoticed --------------------------------------

FORK = re.compile(r"reference_enabled|reference_kernels|def \w+_reference\b")
ADD_AT = re.compile(r"np\.(add|subtract)\.at")


def test_src_has_one_implementation_per_kernel():
    assert not (SRC / "repro" / "kernels.py").exists()
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 50  # the glob found the tree
    forked = [str(p.relative_to(SRC)) for p in sources if FORK.search(p.read_text())]
    assert forked == []
    solver = [
        str(p.relative_to(SRC))
        for p in sources
        if p.parent.name == "solver" and ADD_AT.search(p.read_text())
    ]
    assert solver == []


def test_src_has_one_remapper_and_one_launcher():
    remap = (SRC / "repro" / "core" / "remap.py").read_text()
    assert "comm.run" not in remap
    assert "def program" not in remap
    resolves = {
        str(p.relative_to(SRC)): p.read_text().count("resolve_backend(")
        for p in sorted(SRC.rglob("*.py"))
        if p.parent.name in ("core", "dist")
    }
    assert len(resolves) > 10  # the glob found both packages
    assert {k: n for k, n in resolves.items() if n} == {"repro/dist/_launch.py": 1}
