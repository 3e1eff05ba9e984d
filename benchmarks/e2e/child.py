"""One pass of one workload, in a process of its own.

``run.py`` starts this file fresh for every pass, with the pass's private
directory as cwd, so every in-process cache starts cold — as it does for
a user's one-shot invocation.  The stages are set-up (imports + inputs,
timed), body (timed), verify (untimed); the last line of stdout is one
JSON object with what was measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from time import perf_counter

from common import FULL, SMOKE, Ops
from spans import Recorder, SpanTable, install

#: metric -> (aggregate, span name).  ``incl`` is the span's whole
#: duration, ``self`` the duration minus what its child spans cover,
#: ``calls`` how many there were.
SPAN_METRICS = {
    "partition.kway_s": ("incl", "partition.kway"),
    "partition.kway_n": ("calls", "partition.kway"),
    "partition.repartition_s": ("incl", "partition.repartition"),
    "partition.repartition_n": ("calls", "partition.repartition"),
    "partition.bisect_n": ("calls", "partition.bisect"),
    "partition.matching_s": ("self", "partition.matching"),
    "partition.contract_s": ("self", "partition.contract"),
    "partition.initial_s": ("self", "partition.initial"),
    "partition.fm_s": ("self", "partition.fm"),
    "partition.kway_refine_s": ("self", "partition.kway_refine"),
    "core.solver_init_s": ("incl", "core.solver_init"),
    "core.solver_init_n": ("calls", "core.solver_init"),
    "core.adapt_step_s": ("incl", "core.adapt_step"),
    "core.adapt_step_self_s": ("self", "core.adapt_step"),
    "core.dualgraph_s": ("self", "core.dualgraph"),
    "core.similarity_s": ("self", "core.similarity"),
    "core.reassign_s": ("self", "core.reassign"),
    "core.decide_s": ("self", "core.decide"),
    "core.remap_s": ("incl", "core.remap"),
    "adapt.mark_s": ("self", "adapt.mark"),
    "adapt.refine_s": ("self", "adapt.refine"),
    "adapt.predicted_weights_s": ("self", "adapt.predicted_weights"),
    "adapt.elem_partition_s": ("self", "adapt.elem_partition"),
    "solver.build_s": ("self", "solver.build"),
    "solver.run_s": ("self", "solver.run"),
    "solver.indicator_s": ("self", "solver.indicator"),
    "parallel.vm_run_s": ("incl", "parallel.vm_run"),
    "parallel.vm_run_n": ("calls", "parallel.vm_run"),
    "dist.decompose_s": ("self", "dist.decompose"),
    "dist.mark_s": ("self", "dist.mark"),
    "dist.refine_s": ("self", "dist.refine"),
    "dist.migrate_s": ("self", "dist.migrate"),
    "dist.gather_s": ("self", "dist.gather"),
    "cli.step_s": ("incl", "cli.step"),
    "cli.report_s": ("incl", "cli.report"),
    "cli.critical_path_s": ("incl", "cli.critical_path"),
    "cli.diff_s": ("incl", "cli.diff"),
    "cli.runs_s": ("incl", "cli.runs"),
    "cli.case_s": ("incl", "cli.case"),
    "cli.scale_s": ("incl", "cli.scale"),
    "experiments.table2_s": ("incl", "experiments.table2"),
}

#: Layers whose total self time is reported as ``<layer>.self_s``.
LAYERS = ("partition", "core", "adapt", "solver", "parallel", "dist", "experiments")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(body: SpanTable, setup: SpanTable, digests: set,
                  counts: dict, sizes) -> dict:
    """Per-layer metrics of a traced pass: the spans under the body,
    aggregated, plus the ``counts`` taken at the same boundaries."""
    aggregates = {"incl": body.incl_s, "self": body.self_s, "calls": body.calls}
    counts = Counter(counts)
    m = dict(counts)
    for metric, (aggregate, span) in SPAN_METRICS.items():
        m[metric] = aggregates[aggregate][span]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = body.layer_self_s(layer)
    m["partition.bisect_per_kway"] = _ratio(m["partition.bisect_n"], m["partition.kway_n"])
    m["core.init_partition_distinct"] = len(digests)
    m["core.init_partition_reuse_ratio"] = _ratio(
        len(digests), counts["core.init_partition_calls"]
    )
    m["adapt.refine_elems_per_s"] = _ratio(counts["adapt.elements_out"], m["adapt.refine_s"])
    for n in sizes.halo_ranks:
        seconds = body.incl_s[f"parallel.halo{n}"]
        m[f"parallel.halo{n}_s"] = seconds
        m[f"parallel.halo_msgs_per_s_{n}"] = _ratio(counts[f"parallel.halo{n}_messages"], seconds)
    m["mesh.case_build_s"] = setup.incl_s["mesh.case_build"]
    m["bench.spans_n"] = body.n
    m["bench.unattributed_frac"] = _ratio(
        body.self_s["bench.body"], body.incl_s["bench.body"]
    )
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sizes = SMOKE if args.smoke else FULL

    t0 = perf_counter()
    rec = Recorder(enabled=bool(args.trace))
    ops = Ops()
    unresolved: list[str] = []
    if args.workload == "cli_session":
        from cli_session import CliSession as workload_class

        usage = resource.RUSAGE_CHILDREN  # the commands, not this driver
    else:
        from workloads import WORKLOADS

        workload_class = WORKLOADS[args.workload]
        usage = resource.RUSAGE_SELF
        if args.trace:
            unresolved = install(rec)
    workload = workload_class(args.seed, sizes, rec, ops)
    setup_span = rec.span("bench.setup")
    with setup_span:
        workload.setup()
    setup_s = perf_counter() - t0

    rec.counts.clear()  # counts are the body's
    rec.digests.clear()
    body_span = rec.span("bench.body")
    t1 = perf_counter()
    with body_span:
        workload.body()
    wall_s = perf_counter() - t1
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    body_counts = dict(rec.counts)  # verify runs wrapped code too

    workload.verify()
    result = {
        "attempted": len(ops.attempted),
        "failed": len(ops.failed),
        "failures": ops.failed,
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            **workload.quality(),
        },
    }
    if args.trace:
        body = SpanTable(rec.spans, body_span.index)
        setup = SpanTable(rec.spans, setup_span.index)
        counts = {**body_counts, **workload.counts()}
        layers = layer_metrics(body, setup, rec.digests, counts, sizes)
        layers["bench.unwrapped_n"] = len(unresolved)
        # children never outlast their parent: no span has negative self time
        result["span_tree_ok"] = body.min_self_s > -1e-6
        result["unresolved"] = unresolved
        result["per_layer"] = layers
    print(json.dumps(result, default=float))  # numpy scalars
    return 0


if __name__ == "__main__":
    sys.exit(main())
