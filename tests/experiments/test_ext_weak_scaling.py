"""Extension — weak scaling of the VM scheduler itself.

The paper's evaluation stops at SP2 scale (64 processors); the
extreme-scale AMR line of work (Schornbaum & Rüde, PAPERS.md) runs the
same adapt/balance cycle on 65k+ cores.  ``experiments.weak_scaling``
prices the fig6-style *execution phase* — compute, 4-neighbour halo
exchange with source-wildcard receives, convergence allreduce — at
thousands of virtual ranks.  The tests hold what is deterministic about
it: the shape of the cycle at 4096 ranks, and that the vectorized
scheduler produces bit-identical results to the eager reference one.
Host seconds are ``benchmarks/e2e``'s ``vm_ranks`` workload.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.__main__ import main
from repro.experiments.weak_scaling import (
    grid_dims,
    grid_neighbours,
    halo_cycle,
    measure_point,
)
from repro.obs import Tracer, use_tracer, verify_makespans
from tests.fixtures import causal_nodes, msgs_of, nodes_of, stride6
from tests.kernels.oracles import assert_derived_traffic, reference_kernels


def test_fig6_style_cycle_at_4096():
    with use_tracer(Tracer()):
        pt = measure_point(4096)
    print(f"\n  P=4096: {pt.wall_seconds:.2f}s wall, {pt.ops:,} scheduler "
          f"ops, {pt.ops_per_second:,.0f} ops/s, "
          f"makespan {pt.makespan * 1e3:.1f} virtual ms")
    assert pt.rounds == 3
    assert pt.ops > 3 * 4096  # at least work + sends + recvs per round


def test_small_scale_parity_is_bitwise():
    """The two schedulers must agree bit-for-bit on the sweep's workload."""
    res_fast = halo_cycle(24)
    with reference_kernels():
        res_ref = halo_cycle(24)
    assert res_fast.returns == res_ref.returns
    assert res_fast.clocks == res_ref.clocks  # bit-identical clocks
    assert res_fast.makespan == res_ref.makespan
    assert res_fast.total_messages == res_ref.total_messages
    assert res_fast.total_words == res_ref.total_words
    assert_derived_traffic(res_fast, res_ref)
    assert nodes_of(res_fast) == nodes_of(res_ref)
    assert msgs_of(res_fast) == msgs_of(res_ref)


def test_scale_point_ops_are_the_recorded_nodes():
    tracer = Tracer()
    with use_tracer(tracer):
        pt = measure_point(64)
    assert pt.ops == len(causal_nodes(tracer)) > 0
    assert pt.ops_per_second > 0.0
    assert measure_point(64).ops == pt.ops  # recorded without a tracer too


def _digest(values, dtype) -> str:
    return hashlib.sha256(np.asarray(values, dtype=dtype).tobytes()).hexdigest()[:16]


def test_halo_cycle_4096_record_is_pinned():
    """Every clock, node and message of the 4 096-rank cycle, bit for bit.

    The oracle scheduler only reaches P <= 64 in tier-1; this pins the
    product at the scale where ready-queue and mailbox layout matter.
    The record's digests are over the stride-6 arrays :func:`stride6`
    derives, the layout the record was first pinned in.
    """
    res = halo_cycle(4096)
    assert res.makespan == 0.005758499999999996
    assert res.total_messages == 72_954
    assert _digest(res.clocks, np.float64) == "3b98e4eebe95f951"
    nodes, msgs = stride6(res._record)
    assert _digest(nodes, np.float64) == "aae3d0c2c99299f6"
    assert _digest(msgs, np.int64) == "512acacb61b5108c"


def test_halo_cycle_record_keeps_what_it_cannot_derive():
    """Bytes the causal record retains per recorded node, at 1 024 ranks.

    The record stores four slots per node and three per message and
    derives the rest on read: 86.5 B per node measured, against 164.6 B
    for the six-slot rows it replaced.  The bound is 1.25x the former,
    so a derivable column that comes back as a stored one fails here.
    """
    halo_cycle(64)  # imports and first-call allocations stay outside
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record = halo_cycle(1024)._record
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert record.nnodes == 39_156
    assert held / record.nnodes < 1.25 * 86.5


def test_causal_record_passes_makespan_identity():
    """The derived causal record must still satisfy the critical-path
    makespan identity the eager path guarantees."""
    tracer = Tracer()
    with use_tracer(tracer):
        halo_cycle(64)
    assert verify_makespans(tracer) == 1


def test_synthetic_grid_matches_exec_phase_shape():
    px, py = grid_dims(1024)
    assert px * py == 1024
    nbrs = grid_neighbours(64)
    assert all(1 <= len(n) <= 4 for n in nbrs)
    # neighbour relation is symmetric, like an SPL adjacency
    for r, out in enumerate(nbrs):
        for d in out:
            assert r in nbrs[d]


def test_cli_scale_prints_one_row_per_rank_count(capsys):
    assert main(["scale", "--ranks", "64"]) == 0
    _title, header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["P", "wall", "s", "ops", "ops/s", "makespan"]
    assert row.split()[0] == "64" and len(row.split()) == 5
    with pytest.raises(SystemExit) as usage:  # the reference lane is gone
        main(["scale", "--ranks", "64", "--compare"])
    assert usage.value.code == 2
