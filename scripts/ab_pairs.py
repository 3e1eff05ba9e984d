#!/usr/bin/env python3
"""Ten alternating parent/change pairs of one benchmark workload.

    python scripts/ab_pairs.py --parent HEAD~1 --workload paper_sweep \
        --seeds 0,3 --pairs 10

puts each side into a new directory under ``.bench_build/`` — the
committed files of ``--parent`` (``git archive``) and this working tree's
files, tracked or untracked but not ignored (``git ls-files -co
--exclude-standard``: what ``git add -A`` would commit) — so that both
are the fresh checkout the builder's driver measures and neither brings
caches or scratch files the other lacks.  Then for every seed it runs

    benchmarks/e2e/run.py --workload W --seed S --seconds 20 --trace 0

(the seconds are ``BENCHMARK.json``'s ``run_seconds``) ``--pairs`` times
on each side, alternating which side goes first.  ``cli_session`` ignores
the seed (the CLI exposes none), so ``--seeds 0`` is all it needs.
For each end-to-end metric it prints each side's
median and quartiles, the change's wins and ties over the pairs, and
whether the medians differ by more than the parent's inter-quartile
range — the rule for claiming a gain (at least nine wins in ten, ties
counting for neither side, and a median gap wider than the parent's own
spread).  It ends with one ``--trace 1`` run per side at the first seed
and prints the per-layer values (``*.self_s`` and the named per-layer
metrics of ``BENCHMARK.json``) of the layers the workload exercises, parent
beside change: where the end-to-end difference sits.  Every run appends one
row to ``BENCH_history.jsonl`` (commit, side, workload, seed, then the
end-to-end medians or — rows with ``"trace": 1`` — the per-layer values),
the repo's append-only record of measured performance across PRs.

``--smoke`` runs the benchmark at its tiny sizes and records nothing: it
only checks that this script still works (``scripts/ci.sh``).

Exit status: 0 when every run was correct, 1 otherwise, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "ab_pairs"
HISTORY = ROOT / "BENCH_history.jsonl"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(commit: str) -> Path:
    """The committed files of ``commit`` in a directory of their own."""
    dest = BUILD / commit
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def snapshot() -> Path:
    """The working tree's files, tracked or untracked but not ignored, in
    a directory of their own."""
    dest = BUILD / "worktree"
    shutil.rmtree(dest, ignore_errors=True)
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        source = ROOT / name
        if source.is_file():  # not the list's empty tail, not a deleted file
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             smoke: bool, trace: int = 0) -> dict:
    """One ``run.py`` invocation in ``tree``; its contract line, flattened
    (the end-to-end metrics, or with ``trace`` the per-layer ones)."""
    argv = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    # smoke: run.py's minimum of three tiny passes, not a full run of them
    argv += ["--seconds", "1", "--smoke"] if smoke else ["--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in line["metrics"].items()}
    row.update(correct=line["correct"], attempted=line["attempted"],
               failed=line["failed"])
    return row


def record(smoke: bool, commit: str, side: str, workload: str, seed: int,
           row: dict, **extra) -> None:
    """Append one run to ``BENCH_history.jsonl`` (never from ``--smoke``)."""
    if smoke:
        return
    entry = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "commit": commit, "side": side, "workload": workload, "seed": seed,
             **extra, **row}
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metrics: list[dict], seed: int, parent: list[dict],
              change: list[dict]) -> None:
    """One row per end-to-end metric, from the pairs of one seed."""
    print(f"\nseed {seed}: {len(parent)} pairs   (q1 / median / q3)")
    print(f"{'metric':<16}{'parent':>42}{'change':>42}  "
          f"win/tie/loss  ratio  gap > parent IQR")
    for entry in metrics:
        name = entry["name"]
        sign = -1.0 if entry["better"] == "higher" else 1.0
        a = [row[name] for row in parent]
        b = [row[name] for row in change]
        wins = sum(sign * y < sign * x for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        ratio = f"{a2 / b2:.2f}x" if b2 else "-"
        resolved = "yes" if abs(a2 - b2) > a3 - a1 else "no"
        print(f"{name:<16}"
              f"{f'{a1:.6g} / {a2:.6g} / {a3:.6g}':>42}"
              f"{f'{b1:.6g} / {b2:.6g} / {b3:.6g}':>42}  "
              f"{f'{wins}/{ties}/{len(a) - wins - ties}':^12}  "
              f"{ratio:>5}  {resolved}")


def exercised(row: dict) -> dict:
    """A traced row without the per-layer metrics that are 0: those belong
    to another workload (``bench.*`` describe the traced pass itself)."""
    return {name: value for name, value in row.items()
            if value or "." not in name or name.startswith("bench.")}


def layer_table(metrics: list[dict], seed: int, parent: dict, change: dict) -> None:
    """Per-layer values of one traced run per side, parent beside change."""
    print(f"\nper layer, one traced run per side (seed {seed})")
    print(f"{'metric':<36}{'parent':>14}{'change':>14}  {'par/chg':>7}  unit")
    for entry in metrics:
        name = entry["name"]
        a, b = parent.get(name), change.get(name)
        if a is None and b is None:
            continue
        a, b = a or 0.0, b or 0.0
        ratio = f"{a / b:.2f}x" if a and b else "-"
        print(f"{name:<36}{a:>14.6g}{b:>14.6g}  {ratio:>7}  {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="the commit to compare this working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0", metavar="S[,S...]")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, nothing recorded: tests this script")
    opts = parser.parse_args()
    try:
        seeds = [int(s) for s in opts.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds wants integers, got {opts.seeds!r}")
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {opts.workload!r}")

    try:
        parent_commit = git("rev-parse", "--short", f"{opts.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--parent {opts.parent!r} does not name a commit")
    head = git("rev-parse", "--short", "HEAD")
    dirty = "+dirty" if git("status", "--porcelain") else ""
    sides = {"parent": (checkout(parent_commit), parent_commit),
             "change": (snapshot(), head + dirty)}
    ok = True
    try:
        for seed in seeds:
            rows: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(opts.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree, commit = sides[side]
                    row = run_once(tree, opts.workload, seed,
                                   spec["run_seconds"], opts.smoke)
                    rows[side].append(row)
                    ok &= row["correct"]
                    print(f"seed {seed} pair {pair + 1}/{opts.pairs} {side:<6} "
                          f"{commit}: wall_s {row['wall_s']:.3f}"
                          f"{'' if row['correct'] else '  INCORRECT'}", flush=True)
                    record(opts.smoke, commit, side, opts.workload, seed, row)
            summarize(spec["end_to_end"], seed, rows["parent"], rows["change"])
        layers = {}
        for side, (tree, commit) in sides.items():
            layers[side] = exercised(run_once(
                tree, opts.workload, seeds[0], spec["run_seconds"], opts.smoke,
                trace=1))
            ok &= layers[side]["correct"]
            record(opts.smoke, commit, side, opts.workload, seeds[0],
                   layers[side], trace=1)
        layer_table(spec["per_layer"], seeds[0], layers["parent"], layers["change"])
    finally:
        shutil.rmtree(BUILD, ignore_errors=True)
    if opts.smoke:
        print("\nsmoke sizes: nothing measured, nothing recorded")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
