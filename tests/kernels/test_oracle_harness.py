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

import ast
import importlib
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
from repro.core.phases import price_marking
from repro.parallel import VirtualMachine
from repro.parallel.machine import MachineModel
from repro.partition import multilevel_kway
from repro.solver.euler import dual_volumes, edge_normals
from repro.solver.scatter import scatter_add_components, scatter_add_rows
from tests.fixtures import store_info

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

#: trailing shapes: the ones the solver scatters — scalars (dual volumes,
#: CFL sums), edge normals, states — and wider rows
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


def _drive_marking_schedule():
    mesh = box_mesh(2, 2, 2)
    rng = np.random.default_rng(0)
    marked = target_by_fraction(rng.uniform(size=mesh.nedges), 0.3)
    part = rng.integers(0, 3, size=mesh.ne)
    price_marking(mesh, part, propagate_markings(mesh, marked), 3,
                  MachineModel())


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
    "repro.partition.contract:contract": _drive_partitioner,
    "repro.partition.multilevel:_subgraph": _drive_partitioner,
    "repro.adapt.refine:_assemble_children": _drive_subdivide,
    "repro.core.phases:marking_schedule": _drive_marking_schedule,
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
    assert store_info().currsize > 0
    with reference_kernels():
        assert store_info().currsize == 0  # entry
        calls = CALLS["repro.partition.fm_refine:kway_greedy_refine"]
        ref = multilevel_kway(g, 4, seed=0)
        # recomputed by the oracle, not a copy of what the product stored
        assert CALLS["repro.partition.fm_refine:kway_greedy_refine"] == calls + 1
        assert store_info().currsize > 0
    assert store_info().currsize == 0  # exit
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


#: Where a product caller may live: the package, the examples, the scripts
#: and the benchmark.
CALLERS = [SRC, SRC.parent / "examples", SRC.parent / "scripts",
           SRC.parent / "benchmarks"]

#: ``module:name`` strings (``benchmarks/e2e/spans.py``'s rebinding targets).
TARGET = re.compile(r"\brepro[\w.]*:(\w+)")

#: Exported names kept without a product caller, each for a written reason.
ALLOWLIST = {
    "is_valid": "the pattern invariant the adaptor and rank-program tests "
                "hold every marking fixpoint to",
    "IDEAL": "the contention-free machine the property tests price against",
}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and ``module:name`` target a module mentions."""
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used.update(TARGET.findall(n.value))
    return used


def _returned(node: ast.AST) -> set[str]:
    """Names in the return annotations of a function, or of a class's
    methods."""
    defs = node.body if isinstance(node, ast.ClassDef) else [node]
    names = set()
    for d in defs:
        if isinstance(d, ast.FunctionDef) and d.returns is not None:
            for n in ast.walk(d.returns):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    names.update(re.findall(r"\w+", n.value))
    return names


def test_every_exported_name_has_a_product_caller():
    """Every name in a ``repro`` module's ``__all__`` is referenced from a
    module other than the one exporting it and the one defining it, under
    ``src/``, ``examples/``, ``scripts/`` or ``benchmarks/``; or it is a
    class a live name's return annotation names (a result type); or it
    is in :data:`ALLOWLIST`.  A name only its own module uses leaves
    ``__all__``; one only the tests use leaves ``src/``."""
    trees = {p: ast.parse(p.read_text())
             for root in CALLERS for p in sorted(root.rglob("*.py"))}
    assert len(trees) > 100  # the globs found the tree
    used = {p: _used_names(tree) for p, tree in trees.items()}
    defined: dict[str, list[tuple[Path, ast.AST]]] = {}
    for p, tree in trees.items():
        if SRC not in p.parents:
            continue
        for s in tree.body:
            if isinstance(s, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(s.name, []).append((p, s))
            elif isinstance(s, (ast.Assign, ast.AnnAssign)):
                for t in s.targets if isinstance(s, ast.Assign) else [s.target]:
                    if isinstance(t, ast.Name):
                        defined.setdefault(t.id, []).append((p, s))

    exported = {}
    for p, tree in trees.items():
        if SRC in p.parents and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for s in tree.body if isinstance(s, ast.Assign) for t in s.targets
        ):
            module = ".".join(p.relative_to(SRC).with_suffix("").parts)
            module = module.removesuffix(".__init__")
            exported[p] = importlib.import_module(module).__all__
    assert len(exported) > 50

    live, orphans = set(), []
    for p, names in exported.items():
        for name in names:
            homes = [h for h, _ in defined.get(name, [])]
            home = p if p in homes or len(homes) != 1 else homes[0]
            if any(name in u for q, u in used.items() if q not in (p, home)):
                live.add(name)
            else:
                orphans.append((str(p.relative_to(SRC)), name))
    results = {
        r for name in live for _, node in defined.get(name, []) for r in _returned(node)
    }
    assert set(ALLOWLIST) <= {name for _, name in orphans}, "stale allowlist entries"
    assert len(ALLOWLIST) <= 25
    missing = [(m, n) for m, n in orphans if n not in results and n not in ALLOWLIST]
    assert missing == [], f"exported names no product code uses: {missing}"


#: Public members kept without a product caller, each for a written reason
#: (at most 5).
ALLOWLIST_MEMBERS = {
    "EulerSolver.residual": "test_solver_equiv.py compares the AoS oracle "
                            "through it",
    "EulerSolver.stable_dt": "test_solver_equiv.py compares the AoS oracle "
                             "through it",
    "SlabPool.free_count": "the slab-leak observable the transport tests read",
}


def _member_mentions(tree: ast.AST) -> set[str]:
    """:func:`_used_names`, plus every string that is one identifier
    (``getattr(x, "name")``) and each dotted part of a
    ``module:Class.member`` target."""
    used = _used_names(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                used.add(n.value)
            for target in re.findall(r"\brepro[\w.]*:([\w.]+)", n.value):
                used.update(target.split("."))
    return used


def test_every_public_member_has_a_product_caller():
    """Every public method and property of a public class under
    ``src/repro`` is named — as ``x.member``, as a bare name or in a
    string — by a module under ``src/``, ``examples/``, ``scripts/`` or
    ``benchmarks/``; or it is in :data:`ALLOWLIST_MEMBERS`.  A member
    only the tests reach leaves ``src/`` (or moves into
    ``tests/fixtures.py``)."""
    trees = {p: ast.parse(p.read_text())
             for root in CALLERS for p in sorted(root.rglob("*.py"))}
    used = set().union(*map(_member_mentions, trees.values()))
    members = sorted(
        (qual, name) for _, qual, name, _, _ in _public_callables(trees)
        if "." in qual and not qual.endswith(".__init__")
    )
    assert len(members) > 100  # the walker found the classes
    orphans = [qual for qual, name in members if name not in used]
    assert len(ALLOWLIST_MEMBERS) <= 5
    assert set(ALLOWLIST_MEMBERS) <= set(orphans), "stale allowlist entries"
    missing = [m for m in orphans if m not in ALLOWLIST_MEMBERS]
    assert missing == [], f"public members no product code names: {missing}"


def test_src_calls_every_comm_method_and_yields_every_op():
    """The communicator keeps only what rank programs call: every public
    ``Comm`` method is called as ``comm.<method>(...)`` somewhere in
    ``src/`` outside ``simcomm.py``, and every op class with a ``_code``
    is constructed in a ``yield`` somewhere in ``src/``."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    simcomm = SRC / "repro" / "parallel" / "simcomm.py"
    runtime = SRC / "repro" / "parallel" / "runtime.py"

    def public_methods(tree, name):
        [cls] = [n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == name]
        return {f.name for f in cls.body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}

    methods = public_methods(trees[simcomm], "Comm")
    called = {
        n.func.attr
        for path, tree in trees.items() if path != simcomm
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "comm"
    }
    assert methods >= {"compute", "send", "recv", "barrier", "allreduce"}
    assert methods - called == set(), "Comm methods no product code calls"

    ops = {
        cls.name
        for tree in trees.values()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        if any(isinstance(t, ast.Name) and t.id == "_code"
               for s in cls.body if isinstance(s, ast.Assign)
               for t in s.targets)
    } | {
        s.targets[0].value.id
        for s in ast.walk(trees[runtime])
        if isinstance(s, ast.Assign) and isinstance(s.targets[0], ast.Attribute)
        and s.targets[0].attr == "_code" and isinstance(s.targets[0].value, ast.Name)
    }
    yielded = {
        n.value.func.id
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Yield) and isinstance(n.value, ast.Call)
        and isinstance(n.value.func, ast.Name)
    }
    assert ops >= {"WorkOp", "SendOp", "RecvOp"}
    assert ops - yielded == set(), "op classes no product code yields"


# --- every option has a product caller ----------------------------------------

#: Keyword forwarders whose ``**opts`` reach every registered backend class.
FORWARDERS = {"create_communicator", "resolve_backend"}
BACKENDS_INIT = SRC / "repro" / "parallel" / "backends" / "__init__.py"

#: Defaulted parameters kept without a product caller, each for a written
#: reason (at most 10).
ALLOWLIST_OPTIONS = {
    "Tracer.__init__(wall_clock)": "the fake clock the span tests step by hand",
    "ShmTransport.__init__(min_bytes)": "the zero-copy threshold the transport "
                                        "tests lower to put small arrays on "
                                        "the slab path",
    "ShmTransport.__init__(alloc_wait)": "the pool-exhaustion wait the spill "
                                         "tests shorten",
    "LoadBalancedAdaptiveSolver.__init__(F)": "the partitions-per-processor "
                                              "ablation hook of paper §4.3",
    "MultiprocessingBackend.__init__(timeout)": "the receive timeout the "
                                                "deadlock tests shorten so a "
                                                "hung rank fails in seconds",
}


def _callee(e: ast.AST) -> str | None:
    if isinstance(e, ast.Name):
        return e.id
    if isinstance(e, ast.Attribute):
        return e.attr
    return None


def _public_callables(trees):
    """``(path, qualified name, name a call uses, def, leading self)`` for
    every public function, public method and public class ``__init__``
    under ``src/repro``."""
    for p, tree in trees.items():
        if SRC not in p.parents:
            continue
        for s in tree.body:
            if isinstance(s, ast.FunctionDef) and not s.name.startswith("_"):
                yield p, s.name, s.name, s, 0
            elif isinstance(s, ast.ClassDef) and not s.name.startswith("_"):
                for f in s.body:
                    if not isinstance(f, ast.FunctionDef):
                        continue
                    static = any(_callee(d) == "staticmethod"
                                 for d in f.decorator_list)
                    if f.name == "__init__":
                        yield p, f"{s.name}.__init__", s.name, f, 1
                    elif not f.name.startswith("_"):
                        yield p, f"{s.name}.{f.name}", f.name, f, int(not static)


def _defaulted(f: ast.FunctionDef, skip: int):
    """``(name, position a call passes it at or None)`` per defaulted
    positional-or-keyword and keyword-only parameter."""
    a = f.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos[first:], first):
        yield arg.arg, i - skip
    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield arg.arg, None


def _option_walk():
    """Every defaulted parameter of a public callable, and those of them no
    product call sets: ``(all, flagged)`` as ``"Qual.name(param)"``."""
    trees = {p: ast.parse(p.read_text())
             for root in CALLERS for p in sorted(root.rglob("*.py"))}
    registered = {
        _callee(v)
        for n in ast.walk(trees[BACKENDS_INIT])
        if isinstance(n, ast.Dict)
        for v in n.values
    }
    registered.discard(None)
    assert {"VirtualBackend", "MultiprocessingBackend",
            "SharedMemoryBackend"} <= registered
    # a bare ``f(...)`` credits module-level functions and classes; a
    # ``x.f(...)`` (or a call through ``nd_ext = rec.rows.extend``)
    # credits methods, so ``coarsen(graph, ...)`` never sets a parameter
    # of ``AdaptiveMesh.coarsen``
    bare: dict[str, list[tuple[float, set[str]]]] = {}
    attr: dict[str, list[tuple[float, set[str]]]] = {}

    def credit(e: ast.AST, npos: float, kws: set[str], alias=None) -> None:
        if isinstance(e, ast.Name) and alias and e.id in alias:
            attr.setdefault(alias[e.id], []).append((npos, kws))
        elif isinstance(e, ast.Name):
            bare.setdefault(e.id, []).append((npos, kws))
        elif isinstance(e, ast.Attribute):
            attr.setdefault(e.attr, []).append((npos, kws))

    for tree in trees.values():
        # ``nd_ext = rec.rows.extend`` then ``nd_ext(...)``
        alias = {
            n.targets[0].id: n.value.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and len(n.targets) == 1
            and isinstance(n.targets[0], ast.Name)
            and isinstance(n.value, ast.Attribute)
        }
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            kws = {k.arg for k in n.keywords if k.arg}
            npos = (float("inf") if any(isinstance(a, ast.Starred) for a in n.args)
                    else len(n.args))
            credit(n.func, npos, kws, alias)
            # a runner given the callee: ``ops.run(labels, f, ..., p=...)``
            for a in list(n.args) + [k.value for k in n.keywords]:
                credit(a, 0, kws)
            if _callee(n.func) in FORWARDERS:
                for cls in registered:
                    bare.setdefault(cls, []).append((0, kws))
    everything, flagged = [], []
    for p, qual, callee, f, skip in _public_callables(trees):
        sets = attr if "." in qual and not qual.endswith(".__init__") else bare
        for param, at in _defaulted(f, skip):
            key = f"{qual}({param})"
            everything.append(key)
            if not any(param in kws or (at is not None and npos > at)
                       for npos, kws in sets.get(callee, [])):
                flagged.append(key)
    return everything, flagged


def test_every_option_has_a_product_caller():
    """Every defaulted parameter of a public callable under ``src/repro``
    is set, by keyword or by position, by a call in ``src/``,
    ``examples/``, ``scripts/`` or ``benchmarks/`` that names the callable
    or takes it as an argument (``ops.run(labels, f, ..., p=...)``): a
    bare ``f(...)`` / ``Class(...)`` names a module-level function or
    class, an ``x.f(...)`` (or a local alias of a bound method) names a
    method, so a method never borrows the calls of a function that shares
    its name.  The backend registry's ``**opts`` credit every registered
    backend class.  An option no product caller sets becomes a constant or
    leaves with its branch."""
    everything, flagged = _option_walk()
    assert len(everything) > 140  # the walker found the tree
    assert len(ALLOWLIST_OPTIONS) <= 10
    assert set(ALLOWLIST_OPTIONS) <= set(flagged), "stale allowlist entries"
    missing = [k for k in flagged if k not in ALLOWLIST_OPTIONS]
    assert missing == [], f"options no product caller sets: {missing}"


#: Where a public callable may take a tracer: the obs package, and the
#: machines (the virtual machine, the backends) that the one launcher
#: hands it to.
TRACER_TAKERS = (
    SRC / "repro" / "obs",
    SRC / "repro" / "parallel" / "runtime.py",
    SRC / "repro" / "parallel" / "backends",
)


def test_entry_points_read_the_ambient_tracer():
    """Outside :data:`TRACER_TAKERS` no public callable has a parameter
    named ``tracer``: an entry point reads ``current_tracer()``, and a
    caller installs one with ``use_tracer``."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    takers = []
    for p, qual, _callee_name, f, _skip in _public_callables(trees):
        a = f.args
        names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
        if "tracer" in names and not any(
            p == t or t in p.parents for t in TRACER_TAKERS
        ):
            takers.append(f"{p.relative_to(SRC)}:{qual}")
    assert len(trees) > 50
    assert takers == []
