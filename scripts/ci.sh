#!/bin/sh
# CI entry point: tier-1 tests, end-to-end benchmark smoke, trace smoke
# check, a balancer run without scipy, real-backend smokes.
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
# them (virtual and measured), then drives the failure paths (deadlock
# diagnostics, a traced shm spill, a truncated trace).  The real-backend smoke runs the calibrate
# workload on real forked rank processes and fails unless its payloads
# match the virtual run's.
set -e
cd "$(dirname "$0")/.."

python -m pytest -x -q
python -m pytest benchmarks/e2e -q
python scripts/ab_pairs.py --parent HEAD --workload paper_sweep --pairs 1 --smoke
python scripts/ab_pairs.py --parent HEAD --workload paper_sweep --pairs 1 --smoke \
    --control
python scripts/smoke_trace.py

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# keep the run-history store hermetic: the traced run below indexes
# into the throwaway store instead of the checkout's .repro_runs
export REPRO_RUNS_DIR="$tmp/runs"

# no-scipy smoke: the balancer solves its assignments in-tree, so a step
# with either exact reassigner must run in a process where importing
# scipy fails — whichever test a new scipy import slips past, it fails here.
for reassigner in optimal_bmcm optimal_mwbg; do
    env PYTHONPATH=src python -c 'import runpy, sys
sys.modules["scipy"] = None
runpy.run_module("repro", run_name="__main__", alter_sys=True)' \
        step 4 --nproc 8 --reassigner "$reassigner" > "$tmp/noscipy.txt"
    grep -q "($reassigner;" "$tmp/noscipy.txt"
done
echo "no-scipy smoke: OK"

# real-backend smoke: the fig6 exec-phase workload must produce payloads
# identical to the virtual backend's on every measured backend (queue
# pickling and zero-copy slabs), under a hard timeout so a hung rank
# process fails CI instead of wedging it.  --trace-out exercises the
# measured tracing layer (wall-clock nodes/msgs columns) end to end.
timeout 300 env PYTHONPATH=src python -m repro calibrate 4 --nproc 4 \
    --trace-out "$tmp/cal.jsonl" > "$tmp/calibrate.txt"
grep -q "backend 'multiprocessing' vs 'virtual'" "$tmp/calibrate.txt"
grep -q "backend 'shm' vs 'virtual'" "$tmp/calibrate.txt"
grep -q "pickle vs zero-copy (measured host wall" "$tmp/calibrate.txt"
grep -q "payloads: identical across backends" "$tmp/calibrate.txt"
grep -q "wall clock per measured run" "$tmp/calibrate.txt"
echo "real-backend smoke: OK"

# solver smoke: examples/rotor_acoustics.py is the Euler solver's one
# product caller outside the benchmark (solve -> adapt -> balance on the
# graded rotor domain); it must run to its final imbalance line.
timeout 120 env PYTHONPATH=src python examples/rotor_acoustics.py 4 \
    > "$tmp/rotor.txt"
grep -q "final solver imbalance" "$tmp/rotor.txt"
echo "rotor-acoustics smoke: OK"

# refinement scale check: subdivision derives a refined mesh's edges from
# its parent's, and tier-1 holds that to the rebuild only on meshes of up
# to ~10^5 tets.  This runs benchmarks/e2e's rotor_multistep chain
# (resolution 12, seed 0) to its first subdivision past 300 000 tets and
# holds every array tests/adapt/test_refine_digest.py pins to what a
# TetMesh.from_elems rebuild of the same elements gives (the mesh) and to
# the reference subdivision, which sorts every child edge (provenance,
# derived by tests/fixtures.py::refine_provenance from the mesh the step
# started from, which the loop keeps itself).  Then the whole newest
# level is coarsened: the adaptor keeps no mesh of a level, so this
# replays the subdivisions beneath it, and the result must equal the
# kept mesh and the forest weights before the step.
# On the last mesh the chain solves (~1.9e5 tets), the blocked solver's
# normals and five-step state must equal the AoS solver's
# (tests/kernels/test_solver_equiv.py), which tier-1 runs only on meshes
# of resolution 4 or below.
timeout 600 env PYTHONPATH=src python - <<'EOF'
import numpy as np

from repro.adapt import subdivide
from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.dist.refine_exec import canonical_signature
from repro.mesh import TetMesh, rotor_domain_mesh
from repro.parallel import SP2_1997
from repro.solver import EulerSolver, rotor_acoustics_field, speed_indicator
from tests.adapt.test_refine_digest import MESH_ARRAYS, PROVENANCE
from tests.fixtures import refine_provenance
from tests.kernels.oracles import reference_kernels
from tests.kernels.test_solver_equiv import AosSolver

mesh, blade = rotor_domain_mesh(resolution=12, grading=2.0)
solver = LoadBalancedAdaptiveSolver(
    mesh, nproc=16,
    solution=rotor_acoustics_field(mesh.coords, blade, tip_mach=0.9),
    machine=SP2_1997, cost_model=CostModel(machine=SP2_1997, n_adapt=50),
    imbalance_threshold=1.05, seed=0)
adaptive = solver.adaptive
while adaptive.mesh.ne < 300_000:
    q_in = adaptive.solution
    flow = EulerSolver(adaptive.mesh, q_in)
    flow.run(5, cfl=0.4)
    adaptive.solution = flow.q
    before = adaptive.mesh
    weights = adaptive.wcomp(), adaptive.wremap()
    solver.adapt_step(edge_error=speed_indicator(adaptive.mesh, flow.q),
                      refine_frac=0.08)
got, marking = adaptive.mesh, adaptive.steps[-1].marking
rebuilt = TetMesh.from_elems(got.coords, got.elems)
for name in MESH_ARRAYS:
    assert np.array_equal(getattr(got, name), getattr(rebuilt, name)), name
assert np.array_equal(canonical_signature(got), canonical_signature(rebuilt))
with reference_kernels():
    ref = subdivide(before, marking, solution=flow.q)
assert np.array_equal(adaptive.solution, ref.solution)
prov, ref_prov = (refine_provenance(before, marking, m) for m in (got, ref.mesh))
for name in PROVENANCE:
    assert np.array_equal(getattr(prov, name), getattr(ref_prov, name)), name
print(f"refined {before.ne} -> {got.ne} tets")
aos = AosSolver(flow.mesh, q_in)
assert np.array_equal(flow.normals, aos.normals)
aos.run(5, cfl=0.4)
assert np.array_equal(flow.q, aos.q)
print(f"solved {flow.mesh.ne} tets: normals and q equal the AoS solver's")
# coarsening the whole newest level replays every level beneath it from
# the initial mesh and must give back the mesh and weights before it
del aos, ref, prov, ref_prov, rebuilt, flow
levels = len(adaptive.steps)
assert adaptive.coarsen(np.ones(got.nedges, dtype=bool)).changed
for name in MESH_ARRAYS:
    assert np.array_equal(getattr(adaptive.mesh, name), getattr(before, name)), name
assert np.array_equal(adaptive.wcomp(), weights[0])
assert np.array_equal(adaptive.wremap(), weights[1])
print(f"coarsened {got.ne} -> {adaptive.mesh.ne} tets, "
      f"{levels - 1} levels replayed")
EOF
echo "refinement scale check: OK"

# example smokes: every example the caller guards
# (test_every_exported_name_has_a_product_caller,
# test_every_option_has_a_product_caller) count as a product caller must
# itself run.  blast_wave.py and scaling_study.py write their outputs to
# the working directory, so they run in the throwaway one; paper_scale.py
# runs at resolution 6 on 16 processors (resolution 17 takes minutes).
timeout 120 env PYTHONPATH=src python examples/quickstart.py > "$tmp/quickstart.txt"
grep -q "phase times (virtual seconds)" "$tmp/quickstart.txt"
timeout 120 env PYTHONPATH=src python examples/mapper_comparison.py \
    > "$tmp/mapper.txt"
grep -q "Theorem 1 at P=64" "$tmp/mapper.txt"
timeout 120 env PYTHONPATH=src python examples/distributed_adaption.py \
    > "$tmp/distributed.txt"
grep -q "makespan identity verified" "$tmp/distributed.txt"
(root="$PWD" && cd "$tmp" && timeout 300 env PYTHONPATH="$root/src" \
    python "$root/examples/blast_wave.py" > blast.txt)
grep -q "wrote blast_step" "$tmp/blast.txt"
# blast_wave is the one product caller of AdaptiveMesh.coarsen: some step
# must actually undo bisections, not just run
grep -Eq "coarsened +[1-9]" "$tmp/blast.txt"
(root="$PWD" && cd "$tmp" && timeout 120 env PYTHONPATH="$root/src" \
    python "$root/examples/scaling_study.py" > scaling.txt)
grep -q "critical-path composition of the whole sweep" "$tmp/scaling.txt"
timeout 120 env PYTHONPATH=src python examples/paper_scale.py 6 16 \
    > "$tmp/paper_scale.txt"
grep -q "total wall time" "$tmp/paper_scale.txt"
echo "example smokes: OK"

# function-entry guard: the product entry points (the examples above, the
# CLI commands, scripts/smoke_trace.py) run under a profile hook that
# follows forked ranks, and every function under src/repro must have
# been entered.  The static guards' written allowlists are honoured, no
# other.
timeout 900 python scripts/entered_functions.py
echo "function-entry guard: OK"

# weak-scaling smoke: `repro scale` must run the fig6-style cycle and
# print one row per rank count, 4096 being where mailbox and ready-queue
# layout start to matter (16384 ranks are timed by benchmarks/e2e vm_ranks).
timeout 300 env PYTHONPATH=src python -m repro scale \
    --ranks 256 --ranks 4096 > "$tmp/scale.txt"
grep -q "weak scaling of the VM scheduler" "$tmp/scale.txt"
grep -Eq "^ +256 +[0-9.]+ +[1-9][0-9]* " "$tmp/scale.txt"
grep -Eq "^ +4096 +[0-9.]+ +[1-9][0-9]* " "$tmp/scale.txt"
echo "weak-scaling smoke: OK"

# 16 384-rank pin: tier-1 pins every clock, node and message of the
# 4 096-rank halo cycle (test_halo_cycle_4096_record_is_pinned); this
# pins the 16 384-rank one, the scale vm_ranks times, so a scheduler or
# mailbox change that moves a clock there fails here.  Digests are
# sha256[:16] of the float64 clocks / float64 node columns / int64
# message columns, the last two as tests/fixtures.py's stride6 derives
# them from the record.  The same run bounds the bytes the record
# retains per node under tracemalloc (61.0 B measured; 90.7 B when each
# node stored its kind and a boxed t_end): vm_ranks' peak is set at this
# scale.  Tracing allocations makes the step take about 17 s.
timeout 300 env PYTHONPATH=src python - <<'EOF'
import gc
import hashlib
import tracemalloc

import numpy as np

from repro.experiments.weak_scaling import halo_cycle
from tests.fixtures import stride6


def digest(values, dtype):
    return hashlib.sha256(np.asarray(values, dtype=dtype).tobytes()).hexdigest()[:16]


halo_cycle(64)  # imports and first-call allocations stay outside
gc.collect()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
res = halo_cycle(16384)
record = res._record
got = (res.makespan, res.total_messages, digest(res.clocks, np.float64))
del res
gc.collect()
per_node = (tracemalloc.get_traced_memory()[0] - base) / record.nnodes
tracemalloc.stop()
nodes, msgs = stride6(record)
got += (digest(nodes, np.float64), digest(msgs, np.int64))
want = (0.006360749999999997, 293_370, "4aa5e08778511120",
        "a37206ad6214e159", "8dba0ac134f707b1")
assert got == want, f"halo_cycle(16384) moved: {got} != {want}"
assert per_node < 1.25 * 61.0, f"the record holds {per_node:.1f} B per node"
EOF
echo "16384-rank pin: OK"
echo "ci: OK"
