#!/bin/sh
# CI entry point: tier-1 tests, end-to-end benchmark smoke, trace smoke
# check, report + critical-path smoke, real-backend smokes.
#
# The tier-1 tests are where the paper's results are held: the golden
# virtual-second series (tests/experiments/test_golden_series.py, plain
# ==) and every EXPERIMENTS.md shape claim (tests/experiments/test_fig*,
# test_table*, test_ablate_*, test_ext_*).  Host time is not gated here:
# it is measured by benchmarks/e2e, cold, parent against change.
#
# The benchmark smoke runs benchmarks/e2e at its tiny --smoke sizes
# (< 30 s): every BENCHMARK.json metric must be reported, no operation
# may fail and no span target may go unresolved, so a src/ refactor that
# breaks the benchmark's contract with repro.obs (validate_jsonl counts,
# metric record keys) or renames a wrapped entry point fails here, not
# at the next benchmark run.  scripts/ab_pairs.py (the parent-vs-change
# pair runner) is run once against HEAD at the same --smoke sizes, only
# so that it cannot rot between the PRs that use it; it records nothing.
#
# The report smoke exports a one-step trace and renders the run-report
# dashboard and the critical-path breakdown from it; it fails if either
# command exits nonzero, the report omits the cycle's balance-quality
# row, or the breakdown omits the makespan attribution.  The
# multiprocessing smoke runs the calibrate workload on real forked rank
# processes and fails unless its payloads match the virtual run's.  The
# run-history smoke checks that the store lists and compares the traces
# exported along the way (all indexed into a throwaway REPRO_RUNS_DIR,
# keeping the checkout clean); it gates no number — the virtual-second
# series is pinned by tier-1 and host time is benchmarks/e2e's job.  The
# MPI lane needs an MPI stack; without one, what runs of the mpi4py
# backend is its framing, in tier-1's tests/parallel/test_mpi_wire.py.
set -e
cd "$(dirname "$0")/.."

python -m pytest -x -q
python -m pytest benchmarks/e2e -q
python scripts/ab_pairs.py --parent HEAD --workload paper_sweep --pairs 1 --smoke
python scripts/smoke_trace.py

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# keep the run-history store hermetic: every traced run below indexes
# into the throwaway store instead of the checkout's .repro_runs
export REPRO_RUNS_DIR="$tmp/runs"
PYTHONPATH=src python -m repro step 4 --nproc 4 --trace-out "$tmp/step.jsonl" > /dev/null
PYTHONPATH=src python -m repro report "$tmp/step.jsonl" --format ascii > "$tmp/report.txt"
grep -q "Balance quality per cycle" "$tmp/report.txt"
grep -q "Critical path" "$tmp/report.txt"
grep -q "Resource usage (per process)" "$tmp/report.txt"
grep -Eq "^ *0 " "$tmp/report.txt"
PYTHONPATH=src python -m repro critical-path "$tmp/step.jsonl" > "$tmp/cpath.txt"
grep -q "critical-path attribution by" "$tmp/cpath.txt"
PYTHONPATH=src python -m repro diff "$tmp/step.jsonl" "$tmp/step.jsonl" > "$tmp/diff.txt"
grep -q "delta: +0.000000s" "$tmp/diff.txt"
echo "report smoke: OK"

# real-backend smoke: the fig6 exec-phase workload must produce payloads
# identical to the virtual backend's on every measured backend (queue
# pickling and zero-copy slabs), under a hard timeout so a hung rank
# process fails CI instead of wedging it.  --fit exercises the machine-
# constant regression on the measured walls; --trace-out exercises the
# measured tracing layer (wall-clock node/msg + clock records) end to end.
timeout 300 env PYTHONPATH=src python -m repro calibrate 4 --nproc 4 --fit \
    --trace-out "$tmp/cal.jsonl" > "$tmp/calibrate.txt"
grep -q "backend 'multiprocessing' vs 'virtual'" "$tmp/calibrate.txt"
grep -q "backend 'shm' vs 'virtual'" "$tmp/calibrate.txt"
grep -q "pickle vs zero-copy (measured host wall" "$tmp/calibrate.txt"
grep -q "payloads: identical across backends" "$tmp/calibrate.txt"
grep -q "fitted machine constants" "$tmp/calibrate.txt"
grep -q "clock alignment per measured run" "$tmp/calibrate.txt"
echo "real-backend smoke: OK"

# measured-trace smoke: the calibrate trace carries wall-clock causal
# runs; the report and critical-path commands must render them, and the
# wall diff against the (virtual-only) step trace must degrade with a
# notice instead of failing.
timeout 120 env PYTHONPATH=src python -m repro report "$tmp/cal.jsonl" \
    --format ascii > "$tmp/cal_report.txt"
grep -q "Per-rank traffic (measured, wall clock)" "$tmp/cal_report.txt"
grep -q "Transport counters (shm)" "$tmp/cal_report.txt"
grep -q "Measured critical path (wall clock)" "$tmp/cal_report.txt"
grep -q "rank 3" "$tmp/cal_report.txt"  # per-rank resource-record rows
timeout 120 env PYTHONPATH=src python -m repro critical-path \
    "$tmp/cal.jsonl" --clock wall > "$tmp/cal_cpath.txt"
grep -q "wall seconds" "$tmp/cal_cpath.txt"
timeout 120 env PYTHONPATH=src python -m repro diff "$tmp/step.jsonl" \
    "$tmp/cal.jsonl" --clock wall > "$tmp/cal_diff.txt" 2> "$tmp/cal_diff_err.txt"
grep -q "carries no measured" "$tmp/cal_diff_err.txt"
grep -q "makespan" "$tmp/cal_diff.txt"
echo "measured-trace smoke: OK"

# run-history smoke: the two step traces indexed along the way must be
# listed and compared from the store alone
PYTHONPATH=src python -m repro step 4 --nproc 4 \
    --trace-out "$tmp/step2.jsonl" > /dev/null
ids="$(PYTHONPATH=src python -m repro runs list | awk '/ step\/r4 /{print $1}')"
set -- $ids
test "$#" -ge 2
PYTHONPATH=src python -m repro runs compare "$1" "$2" > "$tmp/runs_cmp.txt"
grep -q "makespan" "$tmp/runs_cmp.txt"
grep -q "peak_rss_bytes" "$tmp/runs_cmp.txt"
echo "run-history smoke: OK"

# MPI lane: the same rank programs under mpiexec, when an MPI stack is
# installed; skipped cleanly (not failed) on hosts without one.
if command -v mpiexec > /dev/null 2>&1 \
    && PYTHONPATH=src python -c "import mpi4py" > /dev/null 2>&1; then
    timeout 300 mpiexec -n 4 python scripts/mpi_smoke.py > "$tmp/mpi.txt"
    grep -q "mpi smoke: OK" "$tmp/mpi.txt"
    echo "mpi smoke: OK"
else
    echo "mpi smoke: SKIP (mpiexec or mpi4py unavailable;" \
        "framing covered by tests/parallel/test_mpi_wire.py)"
fi

# weak-scaling smoke: `repro scale` must run the fig6-style cycle and
# print its row (4096/16384 ranks are timed by benchmarks/e2e vm_ranks).
timeout 300 env PYTHONPATH=src python -m repro scale \
    --ranks 256 > "$tmp/scale.txt"
grep -q "weak scaling of the VM scheduler" "$tmp/scale.txt"
grep -Eq "^ +256 +[0-9.]+ +[0-9]+ " "$tmp/scale.txt"
echo "weak-scaling smoke: OK"
echo "ci: OK"
