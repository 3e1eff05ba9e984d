"""The three in-process workloads: ``paper_sweep``, ``rotor_multistep``
and ``vm_ranks`` (``cli_session`` drives subprocesses and lives in
``cli_session.py``, so that it never imports ``repro`` itself).

Importing this module is part of the measured set-up: it pulls in every
``repro`` package the workloads use, exactly as a user's script would.
Each workload is three stages run by ``child.py``:

``setup``   builds the inputs from the seed (timed as ``setup_s``),
``body``    the calls a user would make (timed as ``wall_s``),
``verify``  correctness checks on what the body produced (untimed).

The driver wraps each call it makes into a layer in ``rec.span(...)``;
those are no-ops unless the pass is traced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adapt import AdaptiveMesh
from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.dist import decompose, finalize, migrate, parallel_mark, parallel_refine
from repro.experiments import CASE_NAMES, make_case, mapper_comparison
from repro.experiments.weak_scaling import halo_cycle
from repro.mesh import rotor_domain_mesh
from repro.parallel import SP2_1997
from repro.partition import Graph, edgecut, imbalance, multilevel_kway, repartition
from repro.solver import EulerSolver, rotor_acoustics_field, speed_indicator

import verify
from common import Ops, Sizes
from spans import Recorder

#: Words per migrated element in ``vm_ranks`` (the value ``migrate`` and
#: ``execute_remap`` both default to); passed explicitly so that
#: ``remap_words`` does not depend on a default of ``src/``.
STORAGE_WORDS = 24


@dataclass
class Cycle:
    """What one adapt/balance cycle left behind, for quality and verify."""

    label: str
    nproc: int
    remap_when: str
    fresh: bool  #: ``part_before`` is the solver's from-scratch partition
    storage_words: int  #: words per moved element in the solver's cost model
    part_before: np.ndarray
    part_after: np.ndarray
    wremap_before: np.ndarray
    wremap_after: np.ndarray
    report: object  #: the ``StepReport``

    @property
    def wremap_moved(self) -> np.ndarray:
        """The weights the remap physically moved (paper §4.6)."""
        return self.wremap_before if self.remap_when == "before" else self.wremap_after


def run_cycle(rec: Recorder, label: str, solver, **step_args) -> Cycle:
    """One ``adapt_step`` with the state around it snapshotted."""
    fresh = not solver.adaptive.steps
    part_before = solver.part.copy()
    wremap_before = solver.adaptive.wremap()
    with rec.span("core.adapt_step"):
        report = solver.adapt_step(**step_args)
    return Cycle(
        label=label,
        nproc=solver.nproc,
        remap_when=solver.remap_when,
        fresh=fresh,
        storage_words=solver.cost_model.storage_words,
        part_before=part_before,
        part_after=solver.part.copy(),
        wremap_before=wremap_before,
        wremap_after=solver.adaptive.wremap(),
        report=report,
    )


def cycle_quality(cycles: list[Cycle], mesh) -> dict:
    """The paper's quality side of a list of cycles: edge cut, balance,
    TotalV.  The cut is counted on the dual graph of the initial ``mesh``
    (unit edge weights), which every cycle partitions.

    ``remap_words`` is the TotalV of every *proposed* remap, accepted or
    not: what the repartitioner and the reassigner ask to move.  Summing
    only accepted remaps makes the metric jump by half whenever the
    gain/cost test flips on the largest cycle, which it does between
    seeds (the accepted sum is kept as ``core.remap_words_accepted``).
    """
    dual = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
    return {
        "edgecut": sum(edgecut(dual, c.part_after) for c in cycles),
        "imbalance_mean": float(np.mean([c.report.imbalance_after for c in cycles])),
        "remap_words": sum(
            c.report.stats.c_total * c.storage_words
            for c in cycles if c.report.repartition_triggered
        ),
    }


def cycle_counts(cycles: list[Cycle]) -> dict:
    triggered = sum(c.report.repartition_triggered for c in cycles)
    accepted = sum(c.report.accepted for c in cycles)
    return {
        "core.cycles_n": len(cycles),
        "core.accept_ratio": accepted / triggered if triggered else 0.0,
        "core.virtual_total_s": sum(c.report.total_time for c in cycles),
        "core.remap_words_accepted": sum(
            c.report.remap.words_moved for c in cycles if c.report.accepted
        ),
        "partition.imbalance_max": max(c.report.imbalance_after for c in cycles),
        "partition.empty_parts_n": sum(
            verify.empty_parts(c.part_after, c.nproc) for c in cycles
        ),
    }


class Workload:
    """The stages ``child.py`` runs, in order: ``setup``, ``body``,
    ``verify``, then ``quality`` (end-to-end) and ``counts`` (per-layer)."""

    def __init__(self, seed: int, sizes: Sizes, rec: Recorder, ops: Ops):
        self.seed = seed
        self.sizes = sizes
        self.rec = rec
        self.ops = ops


class PaperSweep(Workload):
    """The union behind Figs. 4/5/6 plus Table 2, with the arguments of
    ``experiments.sweep.run_step``."""

    MODES = ("before", "after")

    def setup(self) -> None:
        with self.rec.span("mesh.case_build"):
            self.case = make_case(self.sizes.sweep_resolution, seed=self.seed)
        self.cycles: list[Cycle] = []
        self.rows = None

    def _cycle(self, name: str, mode: str, nproc: int) -> None:
        label = f"cycle/{name}/{mode}/P{nproc}"
        with self.rec.span("core.solver_init"):
            solver = LoadBalancedAdaptiveSolver(
                self.case.mesh,
                nproc,
                machine=SP2_1997,
                cost_model=CostModel(machine=SP2_1997),
                remap_when=mode,
                imbalance_threshold=1.0,
                seed=self.seed,
            )
        with self.rec.span("adapt.mark"):
            mask = self.case.marking_mask(name)
        self.cycles.append(run_cycle(self.rec, label, solver, edge_mask=mask))

    def body(self) -> None:
        procs = self.sizes.sweep_procs
        for name in CASE_NAMES:
            for mode in self.MODES:
                for nproc in procs:
                    self.ops.run(
                        [f"cycle/{name}/{mode}/P{nproc}"],
                        self._cycle, name, mode, nproc,
                    )
        rows = [f"table2/P{p}/{m}" for p in procs
                for m in ("OptMWBG", "HeuMWBG", "OptBMCM")]
        with self.rec.span("experiments.table2"):
            self.rows = self.ops.run(
                rows, mapper_comparison, self.case, procs=procs
            )

    def quality(self) -> dict:
        return cycle_quality(self.cycles, self.case.mesh)

    def counts(self) -> dict:
        return cycle_counts(self.cycles)

    def verify(self) -> None:
        for cycle in self.cycles:
            verify.check_cycle(self.ops, cycle)
        if self.rows is not None:
            verify.check_table2(self.ops, self.rows, self.case.mesh.ne)


class RotorMultistep(Workload):
    """``examples/rotor_acoustics.py`` at a larger mesh and one more cycle:
    solve, indicate, adapt and balance, repeatedly, on a growing mesh."""

    def setup(self) -> None:
        with self.rec.span("mesh.case_build"):
            self.mesh, blade = rotor_domain_mesh(
                resolution=self.sizes.rotor_resolution, grading=2.0
            )
            self.q0 = rotor_acoustics_field(self.mesh.coords, blade, tip_mach=0.9)
        self.cycles: list[Cycle] = []
        self.solver_iterations = 0

    def _cycle(self, solver, step: int) -> None:
        rec = self.rec
        cur = solver.adaptive.mesh
        with rec.span("solver.build"):
            flow = EulerSolver(cur, solver.adaptive.solution)
        with rec.span("solver.run"):
            flow.run(5, cfl=0.4)
        self.solver_iterations += 5
        solver.adaptive.solution = flow.q
        with rec.span("solver.indicator"):
            err = speed_indicator(cur, flow.q)
        label = f"cycle/{step}"
        self.ops.check(label, bool(np.isfinite(flow.q).all()),
                       "solver state is not finite after run")
        self.cycles.append(
            run_cycle(rec, label, solver, edge_error=err, refine_frac=0.08)
        )

    def body(self) -> None:
        with self.rec.span("core.solver_init"):
            solver = LoadBalancedAdaptiveSolver(
                self.mesh,
                nproc=self.sizes.rotor_nproc,
                solution=self.q0,
                machine=SP2_1997,
                cost_model=CostModel(machine=SP2_1997, n_adapt=50),
                imbalance_threshold=1.05,
                seed=self.seed,
            )
        for step in range(self.sizes.rotor_cycles):
            self.ops.run([f"cycle/{step}"], self._cycle, solver, step)

    def quality(self) -> dict:
        return cycle_quality(self.cycles, self.mesh)

    def counts(self) -> dict:
        return {**cycle_counts(self.cycles),
                "solver.iterations_n": self.solver_iterations}

    def verify(self) -> None:
        for cycle in self.cycles:
            verify.check_cycle(self.ops, cycle)


@dataclass
class RankPipeline:
    """Inputs (from set-up) and outputs (from the body) at one rank count."""

    nproc: int
    part: np.ndarray
    new_part: np.ndarray
    graph_pred: Graph  #: dual graph under the predicted weights
    mark: object = None
    refine: object = None
    migrate: object = None
    final: object = None


class VmRanks(Workload):
    """The §3 rank programs on the virtual machine, then the scheduler on
    its own at thousands of ranks.  Partitioning is set-up here."""

    def setup(self) -> None:
        with self.rec.span("mesh.case_build"):
            self.case = make_case(self.sizes.vm_resolution, seed=self.seed)
        mesh = self.case.mesh
        dual = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
        self.marks = self.case.marking_mask("Real_2")
        self.serial = AdaptiveMesh(mesh)
        self.marking = self.serial.mark(edge_mask=self.marks)
        wcomp_pred, _ = self.serial.predicted_weights(self.marking)
        graph_pred = dual.with_vwgt(wcomp_pred)
        self.pipelines = []
        for nproc in self.sizes.vm_procs:
            part = multilevel_kway(dual, nproc, seed=self.seed)
            new_part = repartition(graph_pred, nproc, part, seed=self.seed)
            self.pipelines.append(RankPipeline(nproc, part, new_part, graph_pred))
        self.halo: dict[int, object] = {}
        self.backend_counts: dict = {}

    def _phase(self, label: str, span: str, fn, *args, **kwargs):
        with self.rec.span(span):
            return self.ops.run([label], fn, *args, **kwargs)

    def _pipeline(self, p: RankPipeline) -> None:
        mesh, tag = self.case.mesh, f"P{p.nproc}"
        with self.rec.span("dist.decompose"):
            locals_ = decompose(mesh, p.part, p.nproc)
        p.mark = self._phase(f"{tag}/mark", "dist.mark",
                             parallel_mark, mesh, locals_, self.marks)
        p.refine = self._phase(f"{tag}/refine", "dist.refine",
                               parallel_refine, mesh, locals_, self.marking)
        p.migrate = self._phase(f"{tag}/migrate", "dist.migrate",
                                migrate, mesh, locals_, p.new_part,
                                storage_words_per_elem=STORAGE_WORDS)
        # without a migration there is nothing to gather: that fails too
        p.final = self._phase(f"{tag}/finalize", "dist.gather",
                              lambda: finalize(p.migrate.locals))

    def body(self) -> None:
        for p in self.pipelines:
            self._pipeline(p)
        for n in self.sizes.halo_ranks:
            self.halo[n] = self._phase(f"halo/{n}", f"parallel.halo{n}", halo_cycle, n)

    def quality(self) -> dict:
        moved = sum(p.migrate.elements_moved for p in self.pipelines if p.migrate)
        return {
            "edgecut": sum(edgecut(p.graph_pred, p.new_part) for p in self.pipelines),
            "imbalance_mean": float(np.mean(self._imbalances())),
            "remap_words": moved * STORAGE_WORDS,
        }

    def _imbalances(self) -> list[float]:
        return [imbalance(p.graph_pred, p.new_part, p.nproc) for p in self.pipelines]

    def counts(self) -> dict:
        out = {
            "partition.imbalance_max": max(self._imbalances()),
            "partition.empty_parts_n": sum(
                verify.empty_parts(p.new_part, p.nproc) for p in self.pipelines
            ),
            "dist.elements_moved": sum(
                p.migrate.elements_moved for p in self.pipelines if p.migrate
            ),
            "dist.mark_rounds": sum(
                p.mark.iterations for p in self.pipelines if p.mark
            ),
        }
        for n, res in self.halo.items():
            if res is not None:
                out[f"parallel.halo{n}_messages"] = res.total_messages
        out.update(self.backend_counts)
        return out

    def verify(self) -> None:
        mesh = self.case.mesh
        serial_mesh = self.serial.refine(self.marking).mesh
        for p in self.pipelines:
            verify.check_pipeline(self.ops, p, mesh, self.marking, serial_mesh)
        for n, res in self.halo.items():
            verify.check_halo(self.ops, n, res)
        self.backend_counts = verify.check_backends(self.ops, self.seed)


WORKLOADS = {
    "paper_sweep": PaperSweep,
    "rotor_multistep": RotorMultistep,
    "vm_ranks": VmRanks,
}
