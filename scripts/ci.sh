#!/bin/sh
# CI entry point: tier-1 tests, end-to-end benchmark smoke, trace smoke
# check, real-backend smokes.
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
# scripts/smoke_trace.py is the one smoke of the trace tooling: it
# exports a step trace and a calibrate trace and asserts, from Python,
# what `report`, `critical-path`, `diff` and `runs compare` render from
# them (virtual and measured).  The real-backend smoke runs the calibrate
# workload on real forked rank processes and fails unless its payloads
# match the virtual run's.  The MPI lane needs an MPI stack; without one,
# what runs of the mpi4py backend is its framing, in tier-1's
# tests/parallel/test_mpi_wire.py.
set -e
cd "$(dirname "$0")/.."

python -m pytest -x -q
python -m pytest benchmarks/e2e -q
python scripts/ab_pairs.py --parent HEAD --workload paper_sweep --pairs 1 --smoke
python scripts/smoke_trace.py

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# keep the run-history store hermetic: the traced run below indexes
# into the throwaway store instead of the checkout's .repro_runs
export REPRO_RUNS_DIR="$tmp/runs"

# real-backend smoke: the fig6 exec-phase workload must produce payloads
# identical to the virtual backend's on every measured backend (queue
# pickling and zero-copy slabs), under a hard timeout so a hung rank
# process fails CI instead of wedging it.  --trace-out exercises the
# measured tracing layer (wall-clock node/msg + clock records) end to end.
timeout 300 env PYTHONPATH=src python -m repro calibrate 4 --nproc 4 \
    --trace-out "$tmp/cal.jsonl" > "$tmp/calibrate.txt"
grep -q "backend 'multiprocessing' vs 'virtual'" "$tmp/calibrate.txt"
grep -q "backend 'shm' vs 'virtual'" "$tmp/calibrate.txt"
grep -q "pickle vs zero-copy (measured host wall" "$tmp/calibrate.txt"
grep -q "payloads: identical across backends" "$tmp/calibrate.txt"
grep -q "clock alignment per measured run" "$tmp/calibrate.txt"
echo "real-backend smoke: OK"

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

# solver smoke: examples/rotor_acoustics.py is the Euler solver's one
# product caller outside the benchmark (solve -> adapt -> balance on the
# graded rotor domain); it must run to its final imbalance line.
timeout 120 env PYTHONPATH=src python examples/rotor_acoustics.py 4 \
    > "$tmp/rotor.txt"
grep -q "final solver imbalance" "$tmp/rotor.txt"
echo "rotor-acoustics smoke: OK"

# weak-scaling smoke: `repro scale` must run the fig6-style cycle and
# print one row per rank count, 4096 being where mailbox and ready-queue
# layout start to matter (16384 ranks are timed by benchmarks/e2e vm_ranks).
timeout 300 env PYTHONPATH=src python -m repro scale \
    --ranks 256 --ranks 4096 > "$tmp/scale.txt"
grep -q "weak scaling of the VM scheduler" "$tmp/scale.txt"
grep -Eq "^ +256 +[0-9.]+ +[1-9][0-9]* " "$tmp/scale.txt"
grep -Eq "^ +4096 +[0-9.]+ +[1-9][0-9]* " "$tmp/scale.txt"
echo "weak-scaling smoke: OK"
echo "ci: OK"
