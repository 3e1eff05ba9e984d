#!/usr/bin/env python3
"""End-to-end benchmark of the solve -> adapt -> balance cycle.

    python benchmarks/e2e/run.py --seed 0

runs the four workloads of ``BENCHMARK.json``, prints every metric by
name with its unit, and verifies the outputs.  It is a closed loop with
one client: one pass at a time, each a fresh single-threaded ``python``
process (``child.py``) with a private directory, so every cache starts
cold as it does for a user's one-shot run.  A workload is ``--passes``
untraced passes (the end-to-end numbers, reported as medians) and then
one traced pass (the per-layer numbers; see ``spans.py``).

The builder's driver calls it as

    run.py --workload NAME --seed N --seconds S --trace 0|1

which runs one workload for about S seconds (never fewer than three
passes; with ``--trace 1`` the last one is traced) and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics.

``--check-repeat`` runs two complete untraced sets back to back and
exits non-zero if any end-to-end median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import FULL, SMOKE, planned_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # pass directories; removed after each pass

MIN_PASSES = 3
DEFAULT_PASSES = 5
#: A pass takes about 10 s; one still running after this long hangs, and
#: its whole process group is killed.
PASS_TIMEOUT_S = 120.0
#: The driver allows a run 180 s; a time-boxed run gives up before that.
RUN_DEADLINE_S = 170.0
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Quality metrics repeat exactly for a seed; a pass that disagrees with
#: its siblings makes the run incorrect.
EXACT = ("edgecut", "imbalance_mean", "remap_words")


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not NAME.match(entry["name"]):
                raise SystemExit(f"BENCHMARK.json: bad {group} name {entry['name']!r}")
    return spec


def run_pass(workload: str, seed: int, trace: bool, smoke: bool,
             timeout: float) -> dict:
    """One fresh child process; ``{"crashed": why}`` if it gave no result."""
    WORK.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    (cwd / "tmp").mkdir()
    env = dict(os.environ)
    env.pop("REPRO_REFERENCE_KERNELS", None)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
        REPRO_RUNS_DIR=str(cwd / "runs"),
        TMPDIR=str(cwd / "tmp"),
    )
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        argv.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        try:
            out, _ = proc.communicate(timeout=timeout)
            why = f"exit status {proc.returncode}" if proc.returncode else None
        except subprocess.TimeoutExpired:
            why = f"timed out after {timeout:.0f} s"
        finally:
            # the child leads its own process group: nothing it started
            # outlives the pass, whether it finished or hung
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if why is None:
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                why = "no result line"
        if why is not None:
            print(f"pass of {workload} gave no result: {why}", file=sys.stderr)
            result = {"crashed": why}
        result["elapsed_s"] = time.perf_counter() - start
        return result
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_workload(workload: str, opts, traced: bool) -> dict:
    """All passes of one workload, aggregated."""
    sizes = SMOKE if opts.smoke else FULL
    deadline = time.perf_counter() + RUN_DEADLINE_S if opts.seconds else math.inf
    target = opts.passes

    def one(trace: bool) -> dict:
        left = deadline - time.perf_counter()
        return run_pass(workload, opts.seed, trace, opts.smoke,
                        max(1.0, min(PASS_TIMEOUT_S, left)))

    passes: list[dict] = []
    while target is None or len(passes) < target:
        passes.append(one(trace=False))
        if target is None:
            # time-boxed: as many passes as fit, the traced one included
            fit = int(opts.seconds // passes[0]["elapsed_s"])
            target = max(MIN_PASSES, fit) - (1 if traced else 0)
    good = [p["end_to_end"] for p in passes if "end_to_end" in p]
    if not good:
        raise SystemExit(f"{workload}: no pass produced a result")

    metrics = {}
    for name in good[0]:
        values = [g[name] for g in good]
        metrics[name] = {"median": statistics.median(values), "min": min(values),
                         "max": max(values), "n": len(values)}
    out = {
        "workload": workload,
        "passes": len(passes),
        "exact": all(metrics[n]["min"] == metrics[n]["max"] for n in EXACT),
        "end_to_end": metrics,
    }
    if traced:
        result = one(trace=True)
        if "per_layer" not in result:
            raise SystemExit(f"{workload}: the traced pass produced no result")
        passes.append(result)
        layers = result["per_layer"]
        layers["bench.trace_overhead_frac"] = (
            result["end_to_end"]["wall_s"] / metrics["wall_s"]["median"] - 1.0
        )
        out.update(per_layer=layers, unresolved=result["unresolved"],
                   span_tree_ok=result["span_tree_ok"])
    # a pass that gave no result is charged everything it planned to do
    planned = planned_ops(workload, sizes)
    out["attempted"] = sum(p.get("attempted", planned) for p in passes)
    out["failed"] = sum(p.get("failed", planned) for p in passes)
    out["correct"] = (
        out["failed"] == 0 and out["exact"] and out.get("span_tree_ok", True)
    )
    return out


# --- output ------------------------------------------------------------------


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.6g}"


def print_workload(spec: dict, res: dict, why: str, seed: int) -> None:
    name = res["workload"]
    seed_note = "seed ignored: the CLI exposes none" if name == "cli_session" else f"seed {seed}"
    print(f"\n== {name} ({seed_note}; {res['passes']} untraced passes"
          f"{' + 1 traced' if 'per_layer' in res else ''})")
    print(f"   {why}")
    n = res["end_to_end"]["wall_s"]["n"]
    print(f"   operations: {res['attempted']} attempted, {res['failed']} failed; "
          f"correct = {res['correct']}")
    print(f"   end-to-end, untraced (n = {n}: too few samples for any "
          "percentile beyond the median, so min and max are shown instead)")
    print(f"   {'metric':<16}{'median':>14}{'min':>14}{'max':>14}  unit")
    for entry in spec["end_to_end"]:
        m = res["end_to_end"][entry["name"]]
        print(f"   {entry['name']:<16}{_fmt(m['median']):>14}{_fmt(m['min']):>14}"
              f"{_fmt(m['max']):>14}  {entry['unit']}")
    if "per_layer" in res:
        print("   per layer, from the traced pass (metrics that are 0 here "
              "belong to another workload and are not listed)")
        for entry in spec["per_layer"]:
            value = res["per_layer"].get(entry["name"], 0.0)
            if value or entry["name"].startswith("bench."):
                print(f"   {entry['name']:<36}{_fmt(value):>16}  {entry['unit']}")
        for target in res["unresolved"]:
            print(f"   not wrapped (no longer resolves): {target}")


def contract_line(spec: dict, res: dict, trace: int) -> str:
    """The driver's result object: every end-to-end metric untraced, every
    per-layer metric traced (0 where a layer is not on this workload)."""
    if trace:
        values = {e["name"]: res["per_layer"].get(e["name"], 0.0) for e in spec["per_layer"]}
        units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    else:
        values = {e["name"]: res["end_to_end"][e["name"]]["median"] for e in spec["end_to_end"]}
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


def check_repeat(spec: dict, first: list[dict], second: list[dict]) -> tuple[list[dict], bool]:
    """One row per (workload, end-to-end metric): both medians, the
    relative difference, the bound, and whether they agree."""
    rows, agree = [], True
    print(f"\n{'workload':<17}{'metric':<15}{'first':>13}{'second':>13}"
          f"{'rel.diff':>10}{'bound':>8}")
    for a, b in zip(first, second):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            x, y = a["end_to_end"][name]["median"], b["end_to_end"][name]["median"]
            diff = abs(y - x) / abs(x)
            ok = x == y if name in EXACT else diff <= entry["bound"]
            rows.append({"workload": a["workload"], "metric": name, "first": x,
                         "second": y, "rel_diff": diff, "bound": entry["bound"], "ok": ok})
            bound = "equal" if name in EXACT else f"{entry['bound']:.2f}"
            print(f"{a['workload']:<17}{name:<15}{_fmt(x):>13}{_fmt(y):>13}"
                  f"{diff:>10.4f}{bound:>8}{'' if ok else '  DISAGREE'}")
            agree &= ok
        agree &= a["failed"] == b["failed"] == 0
    return rows, agree


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int,
                        help=f"untraced passes per workload (default {DEFAULT_PASSES})")
    parser.add_argument("--seconds", type=float,
                        help="time-box a workload instead: as many passes as "
                             f"fit, at least {MIN_PASSES}")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced passes only; 1: end with the traced "
                             "pass (default).  Given explicitly with "
                             "--workload, the last stdout line is the driver's "
                             "JSON object")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: tests the instrument, measures nothing")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--json-out", metavar="PATH", help="write every result as JSON")
    opts = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro is not there; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if opts.workload is not None and opts.workload not in why:
        parser.error(f"unknown workload {opts.workload!r}; choose from {', '.join(why)}")
    if opts.passes is not None and opts.passes < 1:
        parser.error("--passes must be at least 1")
    if opts.passes is None and opts.seconds is None:
        opts.passes = DEFAULT_PASSES
    if opts.check_repeat and opts.trace:
        parser.error("--check-repeat compares untraced sets; drop --trace 1")
    names = [opts.workload] if opts.workload else list(why)
    contract = opts.trace is not None and opts.workload is not None
    traced = opts.trace != 0 and not opts.check_repeat

    # bytecode is a build product: compile once so no pass pays for it
    compileall.compile_dir(str(SRC / "repro"), quiet=2)

    def one_set() -> list[dict]:
        results = []
        for name in names:
            res = run_workload(name, opts, traced)
            print_workload(spec, res, why[name], opts.seed)
            results.append(res)
        return results

    results = one_set()
    document = {"seed": opts.seed, "smoke": opts.smoke, "results": results}
    ok = all(r["correct"] for r in results)
    if opts.check_repeat:
        second = one_set()
        rows, agree = check_repeat(spec, results, second)
        document.update(second=second, repeat=rows)
        ok = ok and agree
    if opts.json_out:
        Path(opts.json_out).write_text(json.dumps(document, indent=1))
    if contract:
        # the driver reads `correct` and `failed`; its exit status is ours
        print(contract_line(spec, results[0], opts.trace))
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
