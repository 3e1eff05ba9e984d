"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
report [RESOLUTION | TRACE.jsonl]
    With a numeric target: regenerate every table and figure of the
    paper's evaluation section (default resolution 8 ≈ 6k elements; 13 is
    paper-scale).  With a trace-file path: render a run report from the
    exported JSONL (``--format ascii|html|both``, ``--out PATH``).
step [RESOLUTION]
    Run one load-balanced adapt/balance cycle on the rotor case and print
    its phase anatomy in virtual seconds (``--nproc`` selects P,
    ``--reassigner`` the processor-reassignment algorithm, ``--backend``
    the communicator backend executing the remap's rank programs).
runs {list | show ID | compare A B | index TRACE}
    Query the cross-run history store (``.repro_runs/``, override with
    ``--dir`` or ``REPRO_RUNS_DIR``).  Every traced ``report``/``step``/
    ``calibrate`` run is indexed automatically; ``compare`` prints
    metric-by-metric deltas.  Files in the store that are not run
    records are skipped by ``list`` and refused by ``show``/``compare``.
calibrate [RESOLUTION]
    Run the fig6 exec-phase workload (marking propagation, distributed
    subdivision, migration, finalization gather) on the virtual backend
    and on each real-execution backend (default: multiprocessing),
    verify the payloads are identical, and print measured wall seconds
    against the LogGP-modelled virtual seconds phase by phase.
critical-path TRACE.jsonl
    Reconstruct the happens-before DAG from an exported trace and print
    the critical path: makespan attribution by (phase, kind), the top
    path segments, and per-cycle stragglers.  Virtual-time and measured
    wall-clock paths are both printed when the trace carries them
    (``--clock`` pins one).
diff A.jsonl B.jsonl
    Compare two traces' critical-path compositions — e.g. a greedy run
    against an MWBG run — and report which phase segments account for
    the makespan delta (``--clock wall`` compares measured runs).
scale [--ranks P ...]
    Weak-scaling sweep of the virtual-machine scheduler itself: run the
    fig6-style execution phase (compute, halo exchange, convergence
    allreduce) at 1k/4k/16k virtual ranks and print host wall seconds
    and scheduler ops/second per point.
case [RESOLUTION]
    Print the synthetic rotor case's mesh sizes and growth factors.
version
    Print the package version.

Tracing
-------
``report`` and ``step`` accept ``--trace-out PATH`` to export the run's
phase spans, marker events, metrics (among them one end-of-run resource
reading per process), and causal message DAG as JSONL (schema
``repro.obs/v9``) and ``--chrome-out PATH``
to additionally write a Chrome-trace JSON that ``chrome://tracing`` or
https://ui.perfetto.dev can open (message sends render as flow arrows).
Feed the JSONL back to ``report`` for the dashboard, or to
``critical-path`` / ``diff`` for makespan attribution.  Traced runs are
indexed into the run-history store automatically (``--no-history``
opts out).
"""

from __future__ import annotations

import argparse
import contextlib
import sys


def _int_from(low: int, what: str):
    """An argparse ``type``: an integer of at least ``low``, named ``what``
    in the error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_from(1, "positive")
_non_negative_int = _int_from(0, "non-negative")


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not value >= 0.0:  # rejects nan as well
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    def add_tracing(p):
        p.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="export phase spans/metrics/causal DAG as JSONL (repro.obs/v9)",
        )
        p.add_argument(
            "--chrome-out", metavar="PATH", default=None,
            help="export a chrome://tracing-loadable trace JSON",
        )
        p.add_argument(
            "--no-history", action="store_true",
            help="do not index the exported trace into the run-history store",
        )

    p_report = sub.add_parser(
        "report",
        help="regenerate all tables/figures, or render a trace-file report",
    )
    p_report.add_argument(
        "target", nargs="?", default="8",
        help="experiment resolution (integer) or a trace .jsonl path",
    )
    p_report.add_argument(
        "--format", dest="fmt", default="ascii",
        choices=("ascii", "html", "both"),
        help="trace-report output format (trace-file mode only)",
    )
    p_report.add_argument(
        "--out", metavar="PATH", default=None,
        help="HTML output path (default: trace path with .html suffix)",
    )
    p_report.add_argument(
        "--top", type=_non_negative_int, default=10,
        help="span-table size in the trace report",
    )
    add_tracing(p_report)

    p_step = sub.add_parser("step", help="one traced adapt/balance cycle")
    p_step.add_argument("resolution", nargs="?", type=_positive_int, default=6)
    p_step.add_argument("--nproc", type=_positive_int, default=8)
    p_step.add_argument("--strategy", default="Real_2",
                        choices=("Real_1", "Real_2", "Real_3"))
    p_step.add_argument(
        "--reassigner", default="heuristic_mwbg",
        choices=("heuristic_mwbg", "optimal_mwbg", "optimal_bmcm", "combined"),
        help="processor-reassignment algorithm for the balance phase",
    )
    p_step.add_argument(
        "--backend", default="virtual",
        help="communicator backend for the remap's rank programs "
             "(see `python -m repro calibrate --help` for the registry)",
    )
    add_tracing(p_step)

    p_cal = sub.add_parser(
        "calibrate",
        help="measured-vs-modelled phase times on the exec-phase workload",
    )
    p_cal.add_argument("resolution", nargs="?", type=_positive_int, default=4)
    p_cal.add_argument("--nproc", type=_positive_int, default=4)
    p_cal.add_argument(
        "--backend", action="append", default=None, metavar="NAME",
        help="measured backend(s) to compare against 'virtual' "
             "(repeatable; default: every registered real-execution "
             "backend)",
    )
    add_tracing(p_cal)

    p_cp = sub.add_parser(
        "critical-path",
        help="critical-path / straggler breakdown of an exported trace",
    )
    p_cp.add_argument("trace", help="trace .jsonl path (repro.obs/v9)")
    p_cp.add_argument(
        "--top", type=_non_negative_int, default=10,
        help="number of critical-path segments to list",
    )
    p_cp.add_argument(
        "--clock", default="auto", choices=("auto", "virtual", "wall"),
        help="which timeline to analyse: modelled virtual time, measured "
             "wall time, or both when present (default: auto)",
    )

    p_diff = sub.add_parser(
        "diff",
        help="compare two traces' critical-path compositions",
    )
    p_diff.add_argument("trace_a", help="baseline trace .jsonl path")
    p_diff.add_argument("trace_b", help="candidate trace .jsonl path")
    p_diff.add_argument(
        "--top", type=_non_negative_int, default=15,
        help="number of (phase, kind) rows to list",
    )
    p_diff.add_argument(
        "--clock", default="virtual", choices=("virtual", "wall"),
        help="compare modelled virtual-time paths (default) or measured "
             "wall-clock paths",
    )

    p_scale = sub.add_parser(
        "scale",
        help="weak-scaling sweep of the VM scheduler (1k-16k virtual ranks)",
    )
    p_scale.add_argument(
        "--ranks", type=_positive_int, action="append", default=None,
        metavar="P",
        help="virtual rank count to measure (repeatable; "
             "default: 1024 4096 16384)",
    )
    p_scale.add_argument("--rounds", type=_positive_int, default=3,
                         help="propagation rounds per cycle")
    p_scale.add_argument("--halo-words", type=_positive_int, default=64,
                         help="words per halo message")
    p_scale.add_argument("--work-units", type=_non_negative_float, default=200.0,
                         help="mean compute units per rank per round")

    p_case = sub.add_parser("case", help="print case sizes and growth factors")
    p_case.add_argument("resolution", nargs="?", type=_positive_int, default=8)

    p_runs = sub.add_parser(
        "runs", help="query the cross-run history store (.repro_runs/)"
    )
    p_runs.add_argument(
        "--dir", default=None,
        help="store root (default: $REPRO_RUNS_DIR or ./.repro_runs)",
    )
    rsub = p_runs.add_subparsers(dest="runs_command")
    rsub.add_parser("list", help="one row per stored run, newest last")
    pr_show = rsub.add_parser("show", help="full record of one run")
    pr_show.add_argument("id", help="run id (unique prefix accepted)")
    pr_cmp = rsub.add_parser(
        "compare", help="metric-by-metric deltas between two stored runs"
    )
    pr_cmp.add_argument("id_a", help="baseline run id")
    pr_cmp.add_argument("id_b", help="candidate run id")
    pr_idx = rsub.add_parser(
        "index", help="summarize a trace file into the store"
    )
    pr_idx.add_argument("trace", help="trace .jsonl path")
    pr_idx.add_argument("--label", default="",
                        help="series label (default: the trace basename)")

    sub.add_parser("version", help="print the package version")
    return parser


def _export(tracer, trace_out: str | None, chrome_out: str | None,
            label: str = "", config: dict | None = None,
            history: bool = True) -> None:
    from repro.obs import export_chrome_trace, export_jsonl

    if trace_out:
        n = export_jsonl(tracer, trace_out)  # checks every record it writes
        print(f"wrote {n} JSONL records to {trace_out}")
        if history:
            from repro.obs.runs import RunStore, index_trace

            store = RunStore()
            rec = index_trace(store, trace_out, label=label, config=config,
                              tracer=tracer)
            print(f"indexed run {rec.id} into {store.root} "
                  f"(compare with `repro runs list`)")
    if chrome_out:
        n = export_chrome_trace(tracer, chrome_out)
        print(f"wrote {n} Chrome-trace events to {chrome_out} "
              "(open in chrome://tracing or ui.perfetto.dev)")


def _writable(*paths: str | None) -> bool:
    """Can every output path that was given be opened for writing?  Asked
    before the run starts, so that a mistyped directory costs no work; the
    first that cannot prints one ``error:`` line to stderr (the caller
    exits 2 with nothing on stdout).  The probe leaves a missing file
    behind empty, for the run to fill."""
    for path in filter(None, paths):
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            print(f"error: {path}: {exc.strerror}", file=sys.stderr)
            return False
    return True


def _ambient(tracer):
    """``use_tracer(tracer)``, or a no-op context when ``tracer`` is None."""
    if tracer is None:
        return contextlib.nullcontext()
    from repro.obs import use_tracer

    return use_tracer(tracer)


@contextlib.contextmanager
def _host_resources(tracer):
    """Read the host process's resources into ``tracer`` (None: no-op).

    One reading at the start (for the GC count) and one at the end; the
    closing ``record_resources`` call is what puts the host's
    ``repro.resource.*`` gauges into every traced CLI run.
    """
    if tracer is None:
        yield
        return
    from repro.obs import read_resources, record_resources

    start = read_resources(None)
    try:
        yield
    finally:
        record_resources(tracer, read_resources(start), None, "host")


def _cmd_report(args) -> int:
    try:
        resolution = int(args.target)
    except ValueError:
        return _cmd_trace_report(args)
    if resolution < 1:
        print(f"error: expected a positive resolution or a trace path, "
              f"got {args.target!r}", file=sys.stderr)
        return 2
    if not _writable(args.trace_out, args.chrome_out):
        return 2

    from repro.experiments.report import run_all
    from repro.obs import Tracer

    tracing = bool(args.trace_out or args.chrome_out)
    tracer = Tracer() if tracing else None
    with _host_resources(tracer), _ambient(tracer):
        print(run_all(resolution))
    if tracer is not None:
        _export(
            tracer, args.trace_out, args.chrome_out,
            label=f"report/r{resolution}",
            config={"command": "report", "resolution": resolution},
            history=not args.no_history,
        )
    return 0


def _cmd_trace_report(args) -> int:
    import os

    from repro.obs import render_ascii, render_html

    path = args.target
    tracer = _read_trace(path)
    if tracer is None:
        return 2
    out = None
    if args.fmt in ("html", "both"):
        out = args.out or os.path.splitext(path)[0] + ".html"
        if not _writable(out):
            return 2
    if args.fmt in ("ascii", "both"):
        print(render_ascii(tracer, source=path, top=args.top), end="")
    if out is not None:
        with open(out, "w") as fh:
            fh.write(render_html(tracer, source=path, top=args.top))
        print(f"wrote HTML report to {out}")
    return 0


def _cmd_step(args) -> int:
    if not _writable(args.trace_out, args.chrome_out):
        return 2

    from repro.core import CostModel, LoadBalancedAdaptiveSolver
    from repro.experiments import make_case
    from repro.experiments.report import format_counters
    from repro.obs import Tracer, use_tracer
    from repro.parallel import SP2_1997, backend_factory

    try:
        backend_factory(args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    case = make_case(args.resolution)
    if args.nproc > case.mesh.ne:
        print(f"error: --nproc {args.nproc} exceeds the {case.mesh.ne} elements "
              f"of the resolution-{args.resolution} mesh", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracing = bool(args.trace_out or args.chrome_out)
    with _host_resources(tracer if tracing else None), use_tracer(tracer):
        solver = LoadBalancedAdaptiveSolver(
            case.mesh,
            args.nproc,
            machine=SP2_1997,
            cost_model=CostModel(machine=SP2_1997),
            imbalance_threshold=1.0,
            reassigner=args.reassigner,
            backend=args.backend,
        )
        report = solver.adapt_step(edge_mask=case.marking_mask(args.strategy))

    clock = (
        "times are virtual seconds"
        if args.backend == "virtual"
        else f"remap ran on the {args.backend!r} backend (measured wall); "
             "other phases are virtual seconds"
    )
    print(f"one {args.strategy} step at resolution {args.resolution} "
          f"on P={args.nproc} ({args.reassigner}; {clock}):")
    for name, seconds in report.phase_times().items():
        print(f"  {name:14s} {seconds:10.6f}")
    print(f"  {'total':14s} {report.total_time:10.6f}")
    print(f"  (reassignment host wall time, for reference: "
          f"{report.reassign_wall_seconds:.6f} s)")
    print()
    print(format_counters(tracer.metrics))
    _export(
        tracer, args.trace_out, args.chrome_out,
        label=f"step/r{args.resolution}",
        config={
            "command": "step", "resolution": args.resolution,
            "nproc": args.nproc, "strategy": args.strategy,
            "reassigner": args.reassigner, "backend": args.backend,
        },
        history=not args.no_history,
    )
    return 0


def _cmd_calibrate(args) -> int:
    from repro.experiments import calibrate, format_calibration
    from repro.obs import Tracer
    from repro.parallel import available_backends

    backends = args.backend
    if backends is not None:
        unknown = [b for b in backends if b not in available_backends()]
        if unknown:
            print(
                f"error: unknown backend(s) {unknown}; registered: "
                f"{', '.join(available_backends())}",
                file=sys.stderr,
            )
            return 2
        backends = tuple(b for b in backends if b != "virtual")
    if not _writable(args.trace_out, args.chrome_out):
        return 2
    tracing = bool(args.trace_out or args.chrome_out)
    tracer = Tracer() if tracing else None
    with _host_resources(tracer), _ambient(tracer):
        report = calibrate(args.resolution, args.nproc, backends=backends)
    print(format_calibration(report))
    if tracer is not None:
        from repro.obs.wallclock import format_clock_skew

        skew_table = format_clock_skew(tracer)
        if skew_table:
            print()
            print(skew_table)
        _export(
            tracer, args.trace_out, args.chrome_out,
            label=f"calibrate/r{args.resolution}",
            config={
                "command": "calibrate", "resolution": args.resolution,
                "nproc": args.nproc,
                "backends": sorted(backends) if backends else None,
            },
            history=not args.no_history,
        )
    return 0 if report.payloads_identical else 1


def _read_trace(path: str):
    """Load a trace file for a CLI command.  A missing, unreadable or
    malformed file prints one ``error:`` line to stderr and returns None
    (the caller exits 2 with nothing on stdout)."""
    from repro.obs import SchemaError, read_jsonl

    try:
        return read_jsonl(path)
    except (OSError, SchemaError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"error: {path}: {reason}", file=sys.stderr)
        return None


def _cmd_critical_path(args) -> int:
    from repro.obs import analyze, format_critical_path

    tracer = _read_trace(args.trace)
    if tracer is None:
        return 2
    virtual = analyze(tracer) if args.clock in ("auto", "virtual") else None
    wall = analyze(tracer, clock="wall") if args.clock in ("auto", "wall") \
        else None
    if wall is not None and not wall.runs:
        if args.clock == "wall":
            print(f"note: {args.trace} carries no measured (wall-clock) "
                  "runs; run the workload on a real backend with tracing "
                  "enabled", file=sys.stderr)
        else:
            wall = None  # auto: nothing measured to show
    if virtual is not None and not virtual.runs:
        if args.clock == "virtual" or wall is None:
            print(f"note: {args.trace} carries no causal records "
                  "(no traced VM run)",
                  file=sys.stderr)
        else:
            virtual = None  # auto: measured-only trace
    shown = [a for a in (virtual, wall) if a is not None]
    for i, analysis in enumerate(shown):
        if i:
            print()
            print("measured (wall clock):")
        print(format_critical_path(analysis, top=args.top))
    return 0


def _cmd_diff(args) -> int:
    import os

    from repro.obs import analyze, diff, format_diff

    tracer_a = _read_trace(args.trace_a)
    tracer_b = _read_trace(args.trace_b)
    if tracer_a is None or tracer_b is None:
        return 2
    clock = args.clock
    analysis_a = analyze(tracer_a, clock=clock) if clock == "wall" \
        else analyze(tracer_a)
    analysis_b = analyze(tracer_b, clock=clock) if clock == "wall" \
        else analyze(tracer_b)
    label_a = os.path.basename(args.trace_a)
    label_b = os.path.basename(args.trace_b)
    if label_a == label_b:
        label_a, label_b = args.trace_a, args.trace_b
    what = ("measured (wall-clock) runs" if clock == "wall"
            else "causal records")
    for label, analysis in ((label_a, analysis_a), (label_b, analysis_b)):
        if not analysis.runs:
            print(f"note: {label} carries no {what}; its side of the "
                  "comparison is empty and only the other trace's "
                  "composition is shown", file=sys.stderr)
    d = diff(analysis_a, analysis_b)
    print(format_diff(d, label_a=label_a, label_b=label_b, top=args.top))
    return 0


def _cmd_scale(args) -> int:
    from repro.experiments.weak_scaling import DEFAULT_RANKS, measure_point
    from repro.obs import Tracer
    from repro.obs.tracer import use_tracer

    ranks = args.ranks or list(DEFAULT_RANKS)
    print("weak scaling of the VM scheduler "
          f"(fig6-style execution phase; {args.rounds} rounds, "
          f"{args.halo_words}-word halos):")
    print(f"  {'P':>6s} {'wall s':>9s} {'ops':>10s} {'ops/s':>11s} "
          f"{'makespan':>10s}")
    for p in ranks:
        # the full-pipeline configuration: one fresh ambient tracer per point
        with use_tracer(Tracer()):
            pt = measure_point(p, rounds=args.rounds,
                               halo_words=args.halo_words,
                               work_units=args.work_units)
        print(f"  {p:6d} {pt.wall_seconds:9.3f} {pt.ops:10d} "
              f"{pt.ops_per_second:11.0f} {pt.makespan:10.4f}")
    return 0


def _cmd_case(args) -> int:
    from repro.experiments.cases import CASE_NAMES, case_for, growth_factor

    case = case_for(args.resolution)
    sz = case.mesh.sizes()
    print(f"resolution {args.resolution}: "
          + ", ".join(f"{k}={v}" for k, v in sz.items()))
    for name in CASE_NAMES:
        print(f"  {name}: G = {growth_factor(args.resolution, name):.3f}")
    return 0


def _cmd_runs(args) -> int:
    from repro.obs.runs import (
        RunStore,
        format_compare,
        format_record,
        format_runs_list,
        index_trace,
    )

    store = RunStore(args.dir)
    cmd = args.runs_command
    if cmd is None or cmd == "list":
        print(format_runs_list(store.records()))
        return 0
    try:
        if cmd == "show":
            print(format_record(store.get(args.id)))
            return 0
        if cmd == "compare":
            print(format_compare(store.get(args.id_a), store.get(args.id_b)))
            return 0
        if cmd == "index":
            tracer = _read_trace(args.trace)
            if tracer is None:
                return 2
            rec = index_trace(store, args.trace, label=args.label,
                              tracer=tracer)
            print(f"indexed run {rec.id} ({rec.label}) into {store.root}")
            return 0
    except (KeyError, OSError, ValueError) as exc:
        # an unknown id, or a file in the store that is not a run record
        reason = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2
    return 2


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        print(__doc__)
        return 0
    if args.command == "version":
        import repro

        print(repro.__version__)
        return 0
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "step":
        return _cmd_step(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "critical-path":
        return _cmd_critical_path(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "scale":
        return _cmd_scale(args)
    if args.command == "case":
        return _cmd_case(args)
    if args.command == "runs":
        return _cmd_runs(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
