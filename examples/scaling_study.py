#!/usr/bin/env python3
"""Scaling study: remap-before vs remap-after across processor counts.

Reproduces the story of the paper's Figs. 4 and 5 on one strategy: how the
parallel mesh adaptor speeds up with processors, and how much data movement
the remap-before-subdivision ordering saves.

The whole sweep runs under an ambient tracer; alongside the table it
exports the trace as ``scaling_study.jsonl`` (schema ``repro.obs/v6``,
causal message DAG included) and renders the run-report dashboard to
``scaling_study.html`` — the same artifacts ``repro report
<trace.jsonl>`` produces.  Before printing the critical-path
composition it re-reads the exported file and checks the makespan
identity: every virtual-machine run's critical-path length must equal
its recorded makespan bit-for-bit.

Run:  python examples/scaling_study.py [resolution] [strategy]
      (strategy one of Real_1, Real_2, Real_3; default Real_1)
"""

import sys

from repro.experiments import case_for, run_step
from repro.experiments.sweep import SWEEP_PROCS
from repro.obs import (
    Tracer,
    analyze,
    export_jsonl,
    format_critical_path,
    read_jsonl,
    render_html,
    use_tracer,
    verify_makespans,
)


def main(resolution: int = 8, strategy: str = "Real_1") -> None:
    case = case_for(resolution)
    print(f"{strategy} on a {case.mesh.ne}-element rotor mesh "
          f"(virtual IBM SP2)\n")
    hdr = (f"{'P':>4s} | {'adapt(after)':>12s} {'adapt(before)':>13s} "
           f"{'speedup gain':>12s} | {'moved(after)':>12s} {'moved(before)':>13s}")
    print(hdr)
    print("-" * len(hdr))
    tracer = Tracer()
    with use_tracer(tracer):
        t1 = {m: run_step(resolution, strategy, m, 1).adaption_time
              for m in ("after", "before")}
        for p in SWEEP_PROCS:
            ra = run_step(resolution, strategy, "after", p)
            rb = run_step(resolution, strategy, "before", p)
            sa = t1["after"] / ra.adaption_time
            sb = t1["before"] / rb.adaption_time
            ma = ra.remap.elements_moved if ra.remap else 0
            mb = rb.remap.elements_moved if rb.remap else 0
            print(f"{p:4d} | {ra.adaption_time:12.4f} {rb.adaption_time:13.4f} "
                  f"{sb / sa:11.2f}x | {ma:12d} {mb:13d}")
    print("\n'speedup gain' is the factor by which remapping before the "
          "subdivision\nimproves the adaptor's parallel speedup "
          "(the paper reports up to 2.6x).")

    trace_path = "scaling_study.jsonl"
    html_path = "scaling_study.html"
    n = export_jsonl(tracer, trace_path)
    title = f"scaling study: {strategy} at resolution {resolution}"
    with open(html_path, "w") as fh:
        fh.write(render_html(tracer, title=title, source=trace_path))
    print(f"\nwrote {n} trace records to {trace_path}")
    print(f"wrote run report to {html_path} "
          f"(or render later: python -m repro report {trace_path})")

    # the causal record must explain the schedule exactly: for every VM
    # run in the exported file, critical-path length == makespan bit-for-bit
    reread = read_jsonl(trace_path)
    nruns = verify_makespans(reread)
    print(f"\nmakespan identity verified on {nruns} vm runs "
          "(critical-path length == makespan, to the last bit)")
    print("\ncritical-path composition of the whole sweep:")
    print(format_critical_path(analyze(reread), top=5))


if __name__ == "__main__":
    res = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    strat = sys.argv[2] if len(sys.argv) > 2 else "Real_1"
    main(res, strat)
