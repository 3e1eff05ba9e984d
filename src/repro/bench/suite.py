"""Run the tracked benchmarks and compare against a committed baseline.

Each bench is run *cold* (the figure sweep's memoised ``run_step`` cache
and the partitioner's stored k-way partitions are cleared first, so
every bench pays for its own partitions and adapt→balance cycles)
with an ambient :class:`repro.obs.Tracer` installed; host wall seconds
are measured around the call, and the modelled virtual seconds per phase
come from the recorded spans.  ``with_reference=True`` repeats each
bench under the reference kernels (:mod:`repro.kernels`) to record the
pre-optimization wall time — and verifies the virtual-second series is
bit-identical between the two implementations while doing so.
"""

from __future__ import annotations

import platform
import sys
import time

import numpy as np

from repro.kernels import reference_kernels
from repro.obs import Tracer, phase_virtual_times, use_tracer

from .registry import BENCHES
from .schema import SCHEMA_ID, validate_results

__all__ = [
    "BenchComparisonError",
    "compare_runs",
    "merge_results",
    "run_bench",
    "run_suite",
]


class BenchComparisonError(RuntimeError):
    """A bench regressed against the baseline (wall) or diverged (virtual)."""


def _clear_sweep_cache() -> None:
    from repro.experiments.sweep import run_step
    from repro.partition import multilevel_kway

    run_step.cache_clear()
    multilevel_kway.cache_clear()


def run_bench(name: str, resolution: int, repeats: int = 1) -> dict:
    """Run one registered bench cold; returns its results record.

    ``repeats`` > 1 reruns the bench (cold each time) and keeps the
    *minimum* wall time — the standard noise filter for a loaded host.
    The virtual results are deterministic, so they come from the first run.
    """
    from repro.experiments.sweep import case_for

    bench = BENCHES[name]
    case_for(resolution)  # mesh construction is not part of the measured cycle
    wall = float("inf")
    tracer = extra = None
    for _ in range(max(1, repeats)):
        _clear_sweep_cache()
        run_tracer = Tracer()
        t0 = time.perf_counter()
        with use_tracer(run_tracer):
            run_extra = bench.fn(resolution) or {}
        wall = min(wall, time.perf_counter() - t0)
        if tracer is None:
            tracer, extra = run_tracer, run_extra
    rec = {
        "wall_seconds": wall,
        "virtual_phase_seconds": phase_virtual_times(tracer.spans),
        "counters": tracer.metrics.totals(),
        "extra": extra,
    }
    metrics = _metric_summary(tracer)
    if metrics:
        rec["metrics"] = metrics
    cp = _critical_path_summary(tracer)
    if cp:
        rec["critical_path"] = cp
    return rec


def _metric_summary(tracer: Tracer) -> dict:
    """Headline labelled-metric aggregates for the results record."""
    reg = tracer.metrics
    summary = {
        "max_imbalance": reg.max_value(
            "repro.partition.imbalance", {"when": "before"}
        ),
        "final_imbalance": reg.max_value(
            "repro.partition.imbalance", {"when": "after"}
        ),
        "total_remap_volume": reg.total("repro.remap.elements_moved")
        if reg.max_value("repro.remap.elements_moved") is not None
        else None,
        "total_remap_words": reg.total("repro.remap.words_moved")
        if reg.max_value("repro.remap.words_moved") is not None
        else None,
    }
    return {k: v for k, v in summary.items() if v is not None}


def _critical_path_summary(tracer: Tracer) -> dict:
    """Makespan attribution by ``phase/kind`` from the causal record.

    Deterministic (virtual seconds only), so it rides along in the results
    record as context without participating in the wall-time gate; absent
    when the bench recorded no VM runs or ledger supersteps.
    """
    from repro.obs import analyze

    analysis = analyze(tracer)
    if not analysis.runs and not analysis.supersteps:
        return {}
    summary = {"makespan": analysis.makespan}
    for (phase, kind), sec in sorted(analysis.by_phase_kind.items()):
        summary[f"{phase}/{kind}"] = sec
    return summary


def run_suite(
    names: tuple[str, ...],
    resolution: int,
    profile: str = "full",
    with_reference: bool = False,
    repeats: int = 1,
    progress=None,
) -> dict:
    """Run ``names`` at ``resolution``; returns a ``repro.bench/v1`` doc."""
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown benches {unknown}; have {sorted(BENCHES)}")
    benches: dict[str, dict] = {}
    for name in names:
        if progress:
            progress(f"{name} ({BENCHES[name].description}) ...")
        rec = run_bench(name, resolution, repeats=repeats)
        if with_reference:
            with reference_kernels():
                ref = run_bench(name, resolution, repeats=repeats)
            if ref["virtual_phase_seconds"] != rec["virtual_phase_seconds"]:
                raise BenchComparisonError(
                    f"{name}: optimized and reference kernels disagree on "
                    f"virtual phase seconds:\n  optimized: "
                    f"{rec['virtual_phase_seconds']}\n  reference: "
                    f"{ref['virtual_phase_seconds']}"
                )
            rec["reference_wall_seconds"] = ref["wall_seconds"]
            rec["speedup_vs_reference"] = (
                ref["wall_seconds"] / rec["wall_seconds"]
            )
        benches[name] = rec
        if progress:
            line = f"{name}: {rec['wall_seconds']:.2f}s wall"
            if with_reference:
                line += (
                    f" (reference {rec['reference_wall_seconds']:.2f}s, "
                    f"{rec['speedup_vs_reference']:.2f}x)"
                )
            if "metrics" in rec:
                line += " | " + ", ".join(
                    f"{k}={v:.4g}" for k, v in rec["metrics"].items()
                )
            progress(line)
    doc = {
        "schema": SCHEMA_ID,
        "suite": {
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}",
            "machine_model": "SP2_1997",
            "seed": 0,
        },
        "runs": {profile: {"resolution": resolution, "benches": benches}},
    }
    validate_results(doc)
    return doc


def merge_results(existing: dict | None, doc: dict) -> dict:
    """Overlay ``doc``'s runs onto ``existing`` (suite metadata from ``doc``)."""
    if existing is None:
        return doc
    validate_results(existing)
    merged = {
        "schema": SCHEMA_ID,
        "suite": doc["suite"],
        "runs": {**existing["runs"], **doc["runs"]},
    }
    validate_results(merged)
    return merged


def compare_runs(
    doc: dict,
    baseline: dict,
    profile: str,
    max_regress: float = 1.15,
    abs_slack: float = 0.25,
) -> list[str]:
    """Compare one profile of ``doc`` against ``baseline``.

    Returns human-readable failure strings: a wall-time regression beyond
    ``max_regress``, or *any* difference in a bench's virtual-second
    phases (the modelled results must not drift with optimization work).
    ``abs_slack`` seconds of absolute headroom keep timer noise on
    sub-second benches from tripping the relative gate.  Benches absent
    from either side are skipped.
    """
    validate_results(doc)
    validate_results(baseline)
    failures: list[str] = []
    run = doc["runs"].get(profile)
    base = baseline["runs"].get(profile)
    if run is None:
        return [f"results have no {profile!r} run"]
    if base is None:
        return []  # nothing to compare against
    if run["resolution"] != base["resolution"]:
        return [
            f"resolution mismatch: results at {run['resolution']}, "
            f"baseline at {base['resolution']} — not comparable"
        ]
    for name, rec in run["benches"].items():
        ref = base["benches"].get(name)
        if ref is None:
            continue
        wall, base_wall = rec["wall_seconds"], ref["wall_seconds"]
        if wall > base_wall * max_regress + abs_slack:
            failures.append(
                f"{name}: wall regression {wall:.3f}s vs baseline "
                f"{base_wall:.3f}s ({wall / base_wall:.2f}x > "
                f"{max_regress:.2f}x allowed)"
            )
        if rec["virtual_phase_seconds"] != ref["virtual_phase_seconds"]:
            changed = sorted(
                set(rec["virtual_phase_seconds"]) ^ set(ref["virtual_phase_seconds"])
            ) or [
                k
                for k, v in rec["virtual_phase_seconds"].items()
                if ref["virtual_phase_seconds"].get(k) != v
            ]
            failures.append(
                f"{name}: virtual phase seconds changed (phases {changed}) — "
                "modelled results must match the baseline exactly"
            )
    return failures
