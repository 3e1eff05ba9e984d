"""The full load-balanced adaptive computation cycle (paper Fig. 1).

``LoadBalancedAdaptiveSolver`` wires every component together:

    flow solver → edge marking → [evaluate → repartition → reassign →
    gain/cost decision → remap] → subdivision → flow solver → …

The load balancer runs between *marking* and *subdivision* (the paper's key
§4.6 ordering, ``remap_when="before"``); setting ``remap_when="after"``
reproduces the baseline that balances only after the mesh has grown, which
Figs. 4 and 5 compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.adapt.adaptor import AdaptiveMesh
from repro.adapt.marking import MarkingResult
from repro.adapt.patterns import NUM_CHILDREN
from repro.mesh.tetmesh import TetMesh
from repro.obs import Tracer, current_tracer, maybe_phase
from repro.parallel.backends import backend_factory
from repro.parallel.machine import MachineModel, SP2_1997
from repro.partition import quality as pq
from repro.partition.multilevel import multilevel_kway
from repro.partition.parallel_model import partition_time
from repro.partition.repartition import repartition

from .cost import CostModel, Decision
from .dualgraph import DualGraph
from .evaluate import load_imbalance, needs_repartition
from .metrics import RemapStats, remap_stats
from .phases import price_gather_scatter, price_marking, price_subdivision
from .reassign import (
    heuristic_mwbg,
    optimal_bmcm,
    optimal_mwbg,
    reassignment_time,
)
from .remap import RemapExecution, execute_remap
from .similarity import similarity_matrix

__all__ = ["LoadBalancedAdaptiveSolver", "StepReport"]

_REASSIGNERS = {
    "heuristic_mwbg": lambda S, F, a, b: heuristic_mwbg(S, F=F),
    "optimal_mwbg": lambda S, F, a, b: optimal_mwbg(S, F=F),
    "optimal_bmcm": lambda S, F, a, b: optimal_bmcm(S, alpha=a, beta=b),
    "combined": lambda S, F, a, b: _combined(S, a, b),
}


def _combined(S, alpha, beta):
    from .combined import combined_reassign

    return combined_reassign(S, lam=0.5, alpha=alpha, beta=beta)


@dataclass
class StepReport:
    """Everything one adapt/balance step produced (Fig. 6's anatomy).

    Every ``*_time`` field is **modelled virtual seconds** on the active
    :class:`~repro.parallel.machine.MachineModel` — the clock all of the
    paper's figures are plotted in — except :attr:`remap_time` on a real
    backend (``"multiprocessing"``, ``"shm"``), where it is the measured
    wall makespan of the remap's rank programs.  Host wall-clock
    measurements of the balancer itself carry an explicit ``wall`` in
    their name (:attr:`reassign_wall_seconds`) and are never mixed into
    :attr:`total_time`.  These fields are the one
    record of the step's phase seconds: :meth:`phase_times` returns them,
    and an ambient tracer's phase spans advance its clock by them.
    """

    marking_time: float = 0.0
    partition_time: float = 0.0
    reassign_time: float = 0.0  #: modelled §4.4 host sort/assign time
    gather_scatter_time: float = 0.0  #: modelled S-row gather + map scatter
    remap_time: float = 0.0
    subdivision_time: float = 0.0
    reassign_wall_seconds: float = 0.0  #: host wall time actually spent solving
    imbalance_before: float = 1.0  #: predicted solver imbalance, old partition
    imbalance_after: float = 1.0  #: solver imbalance after the step
    repartition_triggered: bool = False
    accepted: bool = False
    decision: Decision | None = None
    stats: RemapStats | None = None
    remap: RemapExecution | None = None
    marking: MarkingResult | None = None  #: as the adaptor keeps it: no edge_round
    growth_factor: float = 1.0
    mesh_sizes: dict = field(default_factory=dict)

    @property
    def adaption_time(self) -> float:
        """Parallel mesh-adaption time: marking + subdivision (Fig. 4)."""
        return self.marking_time + self.subdivision_time

    @property
    def total_time(self) -> float:
        """Seconds of the whole step: adaption + every load-balancer phase
        (partitioning, §4.3 gather/scatter, reassignment, remapping).  All
        virtual on the ``"virtual"`` backend; on a real backend the sum
        adds the measured wall remap to the other phases' virtual
        seconds."""
        return (
            self.adaption_time
            + self.partition_time
            + self.gather_scatter_time
            + self.reassign_time
            + self.remap_time
        )

    def phase_times(self) -> dict[str, float]:
        """Virtual seconds per leaf phase, keyed by the phase's span name."""
        return {
            "marking": self.marking_time,
            "repartition": self.partition_time,
            "gather_scatter": self.gather_scatter_time,
            "reassign": self.reassign_time,
            "remap": self.remap_time,
            "subdivision": self.subdivision_time,
        }


class LoadBalancedAdaptiveSolver:
    """Global-view dynamic load balancing for adaptive grid calculations.

    Parameters
    ----------
    mesh:
        The initial computational mesh (or an existing :class:`AdaptiveMesh`).
    nproc:
        Number of (virtual) processors.
    F:
        Partitions per processor (§4.3); 1 for all the paper's experiments.
    reassigner:
        ``"heuristic_mwbg"`` (default), ``"optimal_mwbg"``, or
        ``"optimal_bmcm"``.
    remap_when:
        ``"before"`` — move data after marking, before subdivision (§4.6);
        ``"after"`` — the baseline: subdivide first, then balance.
    imbalance_threshold:
        Predicted-imbalance level above which repartitioning is attempted.
    backend:
        Communicator backend name (or object) executing the remap's rank
        programs — see :func:`repro.parallel.create_communicator`.  On
        the default ``"virtual"`` backend the remap time is modelled
        virtual seconds (bit-identical to previous releases); on a
        real-execution backend (``"multiprocessing"``, ``"shm"``) it
        is the measured wall makespan of the actual migration program.

    Each :meth:`adapt_step` records its phase spans, point events and
    metrics into the ambient tracer (:func:`repro.obs.use_tracer`); with
    none installed it records nothing, and its phase seconds are on the
    returned :class:`StepReport` either way.
    """

    def __init__(
        self,
        mesh: TetMesh | AdaptiveMesh,
        nproc: int,
        solution: np.ndarray | None = None,
        machine: MachineModel = SP2_1997,
        cost_model: CostModel | None = None,
        reassigner: str = "heuristic_mwbg",
        F: int = 1,
        remap_when: str = "before",
        imbalance_threshold: float = 1.1,
        seed: int = 0,
        backend="virtual",
    ):
        if nproc < 1:
            raise ValueError(f"nproc must be >= 1, got {nproc}")
        if F < 1:
            raise ValueError(f"F must be >= 1, got {F}")
        if reassigner not in _REASSIGNERS:
            raise ValueError(
                f"unknown reassigner {reassigner!r}; choose from "
                f"{sorted(_REASSIGNERS)}"
            )
        if reassigner in ("optimal_bmcm", "combined") and F != 1:
            raise ValueError(
                f"{reassigner} is implemented for F = 1 (as in the paper)"
            )
        if remap_when not in ("before", "after"):
            raise ValueError(f"remap_when must be 'before' or 'after', got {remap_when!r}")
        if cost_model is not None and cost_model.machine != machine:
            raise ValueError(
                "cost_model.machine differs from machine: the phases and the "
                "gain/cost decision would be priced on two machines"
            )
        if isinstance(backend, str):
            backend_factory(backend)  # unknown name: fail now, not at the first remap
        self.adaptive = mesh if isinstance(mesh, AdaptiveMesh) else AdaptiveMesh(
            mesh, solution
        )
        self.nproc = nproc
        self.F = F
        self.machine = machine
        self.cost_model = cost_model or CostModel(machine=machine)
        self.reassigner = reassigner
        self.remap_when = remap_when
        self.imbalance_threshold = imbalance_threshold
        self.seed = seed
        self.backend = backend
        self.dual = DualGraph(self.adaptive.initial_mesh)
        # initial partitioning + mapping (Fig. 1's initialization box):
        # partition id f·P… maps to processor id partition // F; a mesh
        # that arrives already refined is balanced by its leaf counts
        init = multilevel_kway(
            self.dual.graph.with_vwgt(self.adaptive.wcomp()), F * nproc, seed=seed
        )
        self.part = (init // F).astype(np.int64)

    # --- observables ----------------------------------------------------------

    def elem_owner(self) -> np.ndarray:
        """Current processor of each *current-mesh* element."""
        return self.adaptive.elem_partition(self.part)

    def solver_imbalance(self) -> float:
        """Current flow-solver load imbalance (max over average Wcomp)."""
        return load_imbalance(self.adaptive.wcomp(), self.part, self.nproc)

    # --- the cycle ----------------------------------------------------------------

    def adapt_step(
        self,
        edge_error: np.ndarray | None = None,
        refine_frac: float | None = None,
        edge_mask: np.ndarray | None = None,
    ) -> StepReport:
        """One pass of the Fig.-1 cycle (marking, balancing, subdivision).

        Under an ambient tracer the step is recorded as a span tree rooted
        at ``"adapt_step"``: ``marking`` and ``subdivision`` spans for the
        adaptor, and a ``balance`` span with ``evaluate`` /
        ``repartition`` / ``gather_scatter`` / ``reassign`` / ``decide`` /
        ``remap`` children for the load balancer.
        """
        report = StepReport()
        tracer = current_tracer()
        cycle = tracer.begin_cycle() if tracer is not None else None
        with maybe_phase(
            tracer,
            "adapt_step",
            nproc=self.nproc,
            remap_when=self.remap_when,
            reassigner=self.reassigner,
            cycle=cycle,
        ):
            with maybe_phase(tracer, "marking") as sp:
                marking = self.adaptive.mark(
                    edge_error=edge_error,
                    refine_frac=refine_frac,
                    edge_mask=edge_mask,
                )
                report.marking_time = price_marking(
                    self.adaptive.mesh, self.elem_owner(), marking,
                    self.nproc, self.machine,
                ).makespan
                if tracer is not None:
                    tracer.advance(report.marking_time)
                    edges_marked = int(np.count_nonzero(marking.edge_marked))
                    sp.attrs.update(
                        edges_marked=edges_marked, iterations=marking.iterations
                    )

            wcomp_pred, _wremap_pred = self.adaptive.predicted_weights(marking)
            report.imbalance_before = load_imbalance(
                wcomp_pred, self.part, self.nproc
            )

            if self.remap_when == "before":
                self._balance(report, wcomp_pred, tracer)
                self._subdivide(report, marking, tracer)
            else:
                self._subdivide(report, marking, tracer)
                self._balance(report, self.adaptive.wcomp(), tracer)

            report.imbalance_after = self.solver_imbalance()
        if tracer is not None:
            for phase, secs in report.phase_times().items():
                tracer.metric("repro.cycle.phase_seconds", secs, phase=phase)
            tracer.metric("repro.cycle.total_seconds", report.total_time)
            tracer.metric(
                "repro.cycle.imbalance", report.imbalance_before, when="before"
            )
            tracer.metric(
                "repro.cycle.imbalance", report.imbalance_after, when="after"
            )
            tracer.metric("repro.cycle.accepted", float(report.accepted))
        return report

    # --- internals -----------------------------------------------------------

    def _subdivide(
        self, report: StepReport, marking: MarkingResult, tracer: Tracer | None
    ) -> None:
        with maybe_phase(tracer, "subdivision") as sp:
            # priced from the marking: the owner map is gone before the mesh grows
            report.subdivision_time = price_subdivision(
                self.elem_owner(), NUM_CHILDREN[marking.patterns],
                self.nproc, self.machine,
            ).makespan
            result = self.adaptive.refine(marking)
            if tracer is not None:
                tracer.advance(report.subdivision_time)
                sp.attrs["growth_factor"] = result.growth_factor
        # the level's own slim copy, so the step's full marking (its
        # edge_round, its int64 patterns) dies with the step
        report.marking = self.adaptive.steps[-1].marking
        report.growth_factor = result.growth_factor
        report.mesh_sizes = self.adaptive.mesh.sizes()

    def _balance(
        self, report: StepReport, wcomp: np.ndarray, tracer: Tracer | None
    ) -> None:
        """Evaluate → repartition → reassign → decide → remap."""
        if self.nproc == 1:
            return
        with maybe_phase(tracer, "balance"):
            with maybe_phase(tracer, "evaluate") as sp:
                triggered = needs_repartition(
                    wcomp, self.part, self.nproc, self.imbalance_threshold
                )
                if tracer is not None:
                    sp.attrs["triggered"] = triggered
            if not triggered:
                return
            report.repartition_triggered = True
            npart = self.F * self.nproc

            with maybe_phase(tracer, "repartition", npart=npart, n=self.dual.n):
                graph = self.dual.graph.with_vwgt(
                    np.asarray(wcomp, dtype=np.int64)
                )
                old_as_parts = (self.part * self.F).astype(np.int64)
                new_part = repartition(graph, npart, old_as_parts, seed=self.seed)
                report.partition_time = partition_time(
                    self.dual.n, self.nproc, self.machine
                )
                if tracer is not None:
                    tracer.advance(report.partition_time)

            # data physically moved: the *current* (pre- or post-subdivision)
            # refinement trees, depending on remap_when
            wremap_now = self.adaptive.wremap()
            with maybe_phase(tracer, "gather_scatter") as sp:
                S = similarity_matrix(
                    self.part, new_part, wremap_now, self.nproc, npart
                )
                entries = int(np.count_nonzero(S))
                # §4.3: each processor computes its own row; a host gathers
                # the P×F-integer rows, solves, and scatters the mapping back
                # ("a minuscule amount of time" — modelled, so the claim is
                # checkable)
                report.gather_scatter_time = price_gather_scatter(
                    self.nproc, npart, self.machine
                ).makespan
                if tracer is not None:
                    tracer.advance(report.gather_scatter_time)
                    sp.attrs["entries"] = entries

            with maybe_phase(tracer, "reassign") as sp:
                # the modelled §4.4 cost: O(E log E) sort of the nonzero
                # similarity entries at the host, then the linear assignment
                # pass — kept in the same virtual clock as every other phase
                report.reassign_time = reassignment_time(
                    entries, npart, self.machine
                )
                t0 = time.perf_counter()
                proc_of_part = _REASSIGNERS[self.reassigner](
                    S, self.F, self.machine.alpha, self.machine.beta
                )
                report.reassign_wall_seconds = time.perf_counter() - t0
                if tracer is not None:
                    tracer.advance(report.reassign_time)
                    sp.attrs["wall_seconds"] = report.reassign_wall_seconds

            new_proc = proc_of_part[new_part]
            stats = remap_stats(
                S, proc_of_part, self.machine.alpha, self.machine.beta
            )
            report.stats = stats
            with maybe_phase(tracer, "decide") as sp:
                decision = self.cost_model.decide(
                    wcomp, self.part, new_proc, self.nproc, stats
                )
                if tracer is not None:
                    sp.attrs.update(
                        gain=decision.gain, cost=decision.cost,
                        accept=decision.accept,
                    )
            report.decision = decision
            if tracer is not None:
                chosen = new_proc if decision.accept else self.part
                self._record_balance(tracer, graph, S, proc_of_part, stats,
                                     chosen)
            if not decision.accept:
                return  # the new partitioning is discarded (Fig. 1)

            with maybe_phase(tracer, "remap") as sp:
                execu = execute_remap(
                    self.part,
                    new_proc,
                    wremap_now,
                    self.nproc,
                    storage_words=self.cost_model.storage_words,
                    machine=self.machine,
                    backend=self.backend,
                )
                if tracer is not None:
                    tracer.advance(execu.time_seconds)
                    sp.attrs.update(
                        elements_moved=execu.elements_moved,
                        messages=execu.messages,
                        words_moved=execu.words_moved,
                    )
                    tracer.metric(
                        "repro.remap.elements_moved", execu.elements_moved,
                        kind="counter",
                    )
                    tracer.metric(
                        "repro.remap.words_moved", execu.words_moved,
                        kind="counter",
                    )
                    tracer.metric(
                        "repro.remap.messages", execu.messages, kind="counter"
                    )
            report.remap = execu
            report.remap_time = execu.time_seconds
            report.accepted = True
            self.part = new_proc

    def _record_balance(
        self, tracer: Tracer, graph, S: np.ndarray, proc_of_part: np.ndarray,
        stats: RemapStats, chosen: np.ndarray,
    ) -> None:
        """Partition quality before and after the decision, and paper
        Table 1's quantities for both reassignment methods, so every run
        report can compare greedy against optimal MWBG (the re-solve costs
        host wall time only; the modelled ``reassign_time`` is unchanged)."""
        for when, part in (("before", self.part), ("after", chosen)):
            tracer.metric(
                "repro.partition.imbalance",
                pq.imbalance(graph, part, self.nproc), when=when,
            )
            tracer.metric(
                "repro.partition.edgecut", float(pq.edgecut(graph, part)),
                when=when,
            )
        total_mass = float(S.sum())
        tracer.metric(
            "repro.partition.diag_fraction",
            float(stats.objective) / total_mass if total_mass else 1.0,
        )
        for method, reassigner, solve in (
            ("greedy", "heuristic_mwbg", heuristic_mwbg),
            ("mwbg", "optimal_mwbg", optimal_mwbg),
        ):
            mapping = (proc_of_part if self.reassigner == reassigner
                       else solve(S, F=self.F))
            mstats = remap_stats(
                S, mapping, self.machine.alpha, self.machine.beta
            )
            tracer.metric("repro.reassign.total_v", mstats.c_total,
                          method=method)
            tracer.metric("repro.reassign.max_v", mstats.c_max, method=method)
            tracer.metric(
                "repro.reassign.max_sr",
                max(mstats.max_sent, mstats.max_received), method=method,
            )
