"""Calibrate the LogGP machine model against real parallel execution.

The paper reports wall-clock seconds measured on an IBM SP2; this library
models them on a LogGP virtual machine.  With the communicator backends
(:mod:`repro.parallel.backends`) the *same* rank programs also run on real
cores, so the model becomes checkable: :func:`calibrate` executes the
fig6 exec-phase workload — the §3 pipeline of marking propagation,
distributed subdivision, element migration, and the finalization gather
on decomposed rotor-case data — once per backend, verifies the payloads
are identical, and reports modelled virtual seconds next to measured
wall seconds phase by phase.

Interpretation note: the measured/modelled ratio is *not* an error — the
virtual machine models a 1997 SP2, not this host.  The ratio's
phase-to-phase consistency is what validates the model's shape; its
magnitude is the machine-constant rescaling a present-day
:class:`~repro.parallel.machine.MachineModel` calibration would apply.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.adapt.adaptor import AdaptiveMesh
from repro.dist import decompose, finalize, migrate, parallel_mark, parallel_refine
from repro.dist.refine_exec import canonical_signature
from repro.obs import current_tracer
from repro.parallel.backends import available_backends
from repro.parallel.machine import MachineModel, SP2_1997
from repro.partition import Graph, multilevel_kway, repartition

__all__ = [
    "calibrate",
    "run_exec_phase_workload",
    "CalibrationReport",
    "format_calibration",
]

#: Pipeline phases in execution order.
PHASES = ("mark", "refine", "migrate", "gather")


@dataclass(frozen=True)
class PhaseRun:
    """One phase's outcome on one backend."""

    phase: str
    backend: str
    makespan: float  #: the backend's clock: modelled (virtual) or wall
    host_wall: float  #: host wall seconds around the whole phase call


@dataclass(frozen=True)
class WorkloadResult:
    """Everything one backend produced for the exec-phase workload."""

    backend: str
    phases: list[PhaseRun]
    edge_marked: np.ndarray  #: marking fixpoint (payload of the mark phase)
    refine_signature: np.ndarray  #: canonical merged refined-mesh signature
    elements_moved: int
    final_ne: int  #: elements in the reassembled global mesh
    #: ``repro.transport.*`` counter totals accumulated over the run's
    #: backend executions (all zero for backends without a slab transport)
    transport: dict = field(default_factory=dict)

    def makespans(self) -> dict[str, float]:
        return {p.phase: p.makespan for p in self.phases}

    def host_walls(self) -> dict[str, float]:
        return {p.phase: p.host_wall for p in self.phases}


@dataclass(frozen=True)
class CalibrationReport:
    """Modelled-vs-measured comparison over the same workload."""

    resolution: int
    nproc: int
    cores: int  #: CPUs this process may run on (its affinity mask)
    machine: MachineModel
    reference: WorkloadResult  #: the virtual (modelled) run
    measured: list[WorkloadResult] = field(default_factory=list)
    payloads_identical: bool = True
    mismatches: list[str] = field(default_factory=list)


def run_exec_phase_workload(
    resolution: int,
    nproc: int,
    backend: str = "virtual",
    seed: int = 0,
) -> WorkloadResult:
    """Run the fig6 exec-phase pipeline on the named backend.

    The rank programs and their inputs are identical for every backend;
    only the transport differs.  Decomposition/partitioning happen on the
    host and are excluded from the phase clocks.  Under an ambient tracer
    each phase is a named span with its clocks as counters.
    """
    tracer = current_tracer()
    from repro.parallel.backends.shm import (
        reset_transport_totals,
        transport_totals,
    )

    from .cases import make_case

    reset_transport_totals()
    case = make_case(resolution, seed=seed)
    mesh = case.mesh
    dual = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
    part = multilevel_kway(dual, nproc, seed=seed)
    locals_ = decompose(mesh, part, nproc)
    marks = case.marking_mask("Real_2")

    phases: list[PhaseRun] = []

    def timed(phase, fn):
        t0 = time.perf_counter()
        if tracer is not None:
            # Named span so measured runs land under a phase the trace
            # tooling (skew table, critical path, report) can attribute.
            with tracer.phase(phase, kind="compute", backend=backend):
                out = fn()
        else:
            out = fn()
        host_wall = time.perf_counter() - t0
        phases.append(PhaseRun(phase, backend, _makespan(out), host_wall))
        if tracer is not None:
            tracer.metric(
                "repro.calibrate.phase_seconds", _makespan(out),
                kind="counter", phase=phase, backend=backend,
            )
            tracer.metric(
                "repro.calibrate.host_wall_seconds", host_wall,
                kind="counter", phase=phase, backend=backend,
            )
        return out

    mark_res = timed("mark", lambda: parallel_mark(
        mesh, locals_, marks, backend=backend))

    am = AdaptiveMesh(mesh)
    marking = am.mark(edge_mask=mark_res.edge_marked)
    refine_res = timed("refine", lambda: parallel_refine(
        mesh, locals_, marking, backend=backend))

    wcomp_pred, _ = am.predicted_weights(marking)
    new_part = repartition(dual.with_vwgt(wcomp_pred), nproc, part, seed=seed)
    mig = timed("migrate", lambda: migrate(
        mesh, locals_, new_part, backend=backend))

    fin = timed("gather", lambda: finalize(mig.locals, backend=backend))

    return WorkloadResult(
        backend=backend,
        phases=phases,
        edge_marked=mark_res.edge_marked,
        refine_signature=refine_res.merged_signature(),
        elements_moved=mig.elements_moved,
        final_ne=fin.mesh.ne,
        transport=transport_totals(),
    )


def _makespan(result) -> float:
    for attr in ("time_seconds", "seconds", "gather_seconds"):
        if hasattr(result, attr):
            return float(getattr(result, attr))
    raise AttributeError(f"no makespan field on {result!r}")


def calibrate(
    resolution: int = 4,
    nproc: int = 4,
    backends: tuple[str, ...] | None = None,
) -> CalibrationReport:
    """Run the workload on ``virtual`` plus each measured backend, with
    the LogGP clock of the SP2 model.

    ``backends`` defaults to every registered backend other than
    ``virtual``.
    Payload identity between the reference run and every measured run is
    verified and reported, never assumed.
    """
    if backends is None:
        backends = tuple(b for b in available_backends() if b != "virtual")
    reference = run_exec_phase_workload(resolution, nproc, "virtual")
    measured: list[WorkloadResult] = []
    mismatches: list[str] = []
    for name in backends:
        res = run_exec_phase_workload(resolution, nproc, name)
        measured.append(res)
        if not np.array_equal(res.edge_marked, reference.edge_marked):
            mismatches.append(f"{name}: marking fixpoint differs")
        if not np.array_equal(res.refine_signature, reference.refine_signature):
            mismatches.append(f"{name}: refined-mesh signature differs")
        if res.elements_moved != reference.elements_moved:
            mismatches.append(f"{name}: migration moved a different element set")
        if res.final_ne != reference.final_ne:
            mismatches.append(f"{name}: reassembled mesh size differs")
    return CalibrationReport(
        resolution=resolution,
        nproc=nproc,
        cores=len(os.sched_getaffinity(0)),
        machine=SP2_1997,
        reference=reference,
        measured=measured,
        payloads_identical=not mismatches,
        mismatches=mismatches,
    )


def format_calibration(report: CalibrationReport) -> str:
    """Render the measured-vs-modelled table as aligned ASCII."""
    lines = [
        f"calibrate: resolution {report.resolution}, P={report.nproc} "
        f"on {report.cores} usable cores — "
        f"modelled LogGP seconds (t_setup={report.machine.t_setup:g}, "
        f"t_word={report.machine.t_word:g}, t_work={report.machine.t_work:g}) "
        "vs measured wall seconds",
    ]
    if report.nproc > report.cores:
        lines.append(
            f"note: {report.nproc} ranks share {report.cores} cores, so a "
            "measured run's skew bound also includes core sharing"
        )
    ref = report.reference.makespans()
    for run in report.measured:
        got = run.makespans()
        lines.append(f"\nbackend {run.backend!r} vs 'virtual':")
        lines.append(
            f"  {'phase':10s} {'modelled(s)':>12s} {'measured(s)':>12s} "
            f"{'measured/modelled':>18s}"
        )
        for phase in PHASES:
            v, w = ref[phase], got[phase]
            ratio = f"{w / v:18.2f}" if v > 0 else " " * 18
            lines.append(f"  {phase:10s} {v:12.6f} {w:12.6f} {ratio}")
        v_tot = sum(ref.values())
        w_tot = sum(got.values())
        ratio = f"{w_tot / v_tot:18.2f}" if v_tot > 0 else " " * 18
        lines.append(f"  {'total':10s} {v_tot:12.6f} {w_tot:12.6f} {ratio}")
        t = run.transport
        if t and (t.get("msgs_zero_copy") or t.get("msgs_pickled")):
            lines.append(
                f"  transport: {t.get('bytes_zero_copy', 0) / 1e6:.2f} MB "
                f"zero-copy ({t.get('msgs_zero_copy', 0)} msgs) / "
                f"{t.get('bytes_pickled', 0) / 1e6:.2f} MB pickled "
                f"({t.get('msgs_pickled', 0)} msgs), "
                f"slab reuse {t.get('slab_reuse', 0)}, "
                f"spills {t.get('spills', 0)}"
            )
    by_name = {run.backend: run for run in report.measured}
    if "multiprocessing" in by_name and "shm" in by_name:
        pickle_w = by_name["multiprocessing"].host_walls()
        zc_w = by_name["shm"].host_walls()
        lines.append(
            "\npickle vs zero-copy (measured host wall, same workload):"
        )
        lines.append(
            f"  {'phase':10s} {'pickle(s)':>12s} {'zero-copy(s)':>12s} "
            f"{'speedup':>8s}"
        )
        for phase in PHASES:
            p, z = pickle_w[phase], zc_w[phase]
            speedup = f"{p / z:7.2f}x" if z > 0 else " " * 8
            lines.append(f"  {phase:10s} {p:12.6f} {z:12.6f} {speedup}")
        p_tot, z_tot = sum(pickle_w.values()), sum(zc_w.values())
        speedup = f"{p_tot / z_tot:7.2f}x" if z_tot > 0 else " " * 8
        lines.append(f"  {'total':10s} {p_tot:12.6f} {z_tot:12.6f} {speedup}")
    if report.payloads_identical:
        lines.append(
            "\npayloads: identical across backends "
            "(marking fixpoint, refined-mesh signature, migration, gather)"
        )
    else:
        lines.append("\npayloads: MISMATCH")
        lines.extend(f"  - {m}" for m in report.mismatches)
    return "\n".join(lines)
