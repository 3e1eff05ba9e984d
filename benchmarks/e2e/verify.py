"""The verify stage: untimed checks on what a pass produced.

Every check charges a failure to the operation that produced the value
(:class:`common.Ops`), so a wrong answer counts exactly like a crash in
``failed`` / ``attempted``.  The checks are the paper's invariants and
the cross-implementation identities the repo already promises; none of
them re-derives a number with the code under test alone.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np

#: Backends the exec-phase pipeline is re-run on in ``vm_ranks``' verify.
BACKENDS = ("virtual", "multiprocessing", "shm")
_BACKEND_RESOLUTION = 6
_BACKEND_NPROC = 2  # this box has two cores; more ranks would time the OS


def empty_parts(part: np.ndarray, nproc: int) -> int:
    return int((np.bincount(part, minlength=nproc) == 0).sum())


def check_partition(ops, label: str, part: np.ndarray, n: int, nproc: int,
                    from_scratch: bool = False) -> None:
    """Length n and ids in [0, P).  A from-scratch k-way partition must
    also leave no part empty.  A *re*partition may: on a heavily refined
    mesh the balancer does hand a processor nothing (seen on
    ``rotor_multistep`` and at P = 256 on ``vm_ranks`` for some seeds).
    That is poor quality, not a wrong answer, so it is counted
    (``partition.empty_parts_n``) and shows in the imbalance."""
    ok = part.shape == (n,) and part.min() >= 0 and part.max() < nproc
    ops.check(label, bool(ok), f"not a partition of {n} vertices into {nproc} parts")
    if ok and from_scratch:
        ops.check(label, empty_parts(part, nproc) == 0, "a from-scratch part is empty")


def check_cycle(ops, c) -> None:
    """One adapt/balance cycle: partition validity, similarity-matrix mass
    (§4.3) and element conservation of the remap (§4.6)."""
    report = c.report
    n = c.part_before.shape[0]
    check_partition(ops, c.label, c.part_before, n, c.nproc, from_scratch=c.fresh)
    check_partition(ops, c.label, c.part_after, n, c.nproc)
    ops.check(c.label, np.isfinite(report.imbalance_after) and report.imbalance_after >= 1.0,
              f"imbalance_after = {report.imbalance_after}")
    moved_weights = c.wremap_moved
    if report.stats is not None:
        mass = report.stats.objective + report.stats.c_total
        ops.check(c.label, mass == int(moved_weights.sum()),
                  f"similarity mass {mass} != sum(Wremap) {int(moved_weights.sum())}")
    if report.accepted:
        moved = int(moved_weights[c.part_before != c.part_after].sum())
        ops.check(c.label, report.remap.elements_moved == moved,
                  f"remap moved {report.remap.elements_moved} elements, owners changed for {moved}")
        ops.check(c.label,
                  report.remap.words_moved == report.stats.c_total * c.storage_words,
                  "words moved are not TotalV x words per element")
        ops.check(c.label, np.array_equal(report.remap.new_owner, c.part_after),
                  "remap's new owners are not the solver's partition")
    else:
        ops.check(c.label, np.array_equal(c.part_before, c.part_after),
                  "partition changed without an accepted remap")


def check_table2(ops, rows, total_weight: int) -> None:
    """Greedy keeps at least half of what optimal MWBG keeps (§4.4); MWBG
    is optimal in TotalV and BMCM in the bottleneck.  The retained weight
    is the matrix mass (one per initial element) minus the elements moved."""
    by_proc: dict[int, dict] = {}
    for row in rows:
        by_proc.setdefault(row.nproc, {})[row.method] = row
    for nproc, m in by_proc.items():
        kept_opt = total_weight - m["OptMWBG"].total_elems
        kept_heu = total_weight - m["HeuMWBG"].total_elems
        ops.check(f"table2/P{nproc}/HeuMWBG", 2 * kept_heu >= kept_opt,
                  f"greedy keeps {kept_heu} < half of optimal {kept_opt}")
        ops.check(f"table2/P{nproc}/OptMWBG", kept_opt >= kept_heu,
                  f"optimal MWBG keeps {kept_opt} < greedy {kept_heu}")
        ops.check(f"table2/P{nproc}/OptBMCM",
                  m["OptBMCM"].max_sent_recv
                  <= min(m["OptMWBG"].max_sent_recv, m["HeuMWBG"].max_sent_recv),
                  "BMCM bottleneck is not minimal")


def check_pipeline(ops, p, mesh, marking, serial_mesh) -> None:
    """``vm_ranks``: the rank programs agree with the serial adaptor."""
    from repro.dist import canonical_signature

    tag = f"P{p.nproc}"
    check_partition(ops, f"{tag}/mark", p.part, mesh.ne, p.nproc, from_scratch=True)
    check_partition(ops, f"{tag}/migrate", p.new_part, mesh.ne, p.nproc)
    if p.mark is not None:
        ops.check(f"{tag}/mark", np.array_equal(p.mark.edge_marked, marking.edge_marked),
                  "parallel marking fixpoint differs from the serial one")
    if p.refine is not None:
        merged = p.refine.merged_signature()
        serial = canonical_signature(serial_mesh)
        ops.check(f"{tag}/refine",
                  merged.shape == serial.shape and np.allclose(merged, serial),
                  "parallel refinement differs from the serial mesh")
    if p.migrate is not None:
        owned_right = all(
            np.array_equal(np.sort(lm.elem_l2g), np.flatnonzero(p.new_part == lm.rank))
            for lm in p.migrate.locals
        )
        ops.check(f"{tag}/migrate", owned_right, "a rank does not own its new part")
        ops.check(f"{tag}/migrate",
                  p.migrate.elements_moved == int((p.part != p.new_part).sum()),
                  "elements_moved is not the number of owner changes")
    if p.final is not None:
        ops.check(f"{tag}/finalize", p.final.mesh.ne == mesh.ne,
                  f"gathered mesh has {p.final.mesh.ne} elements, expected {mesh.ne}")


def check_halo(ops, nranks: int, res) -> None:
    if res is None:
        return
    rounds = {r for _checksum, r in res.returns}
    ops.check(f"halo/{nranks}", len(res.returns) == nranks and len(rounds) == 1,
              f"ranks disagree on the round count: {sorted(rounds)}")
    ops.check(f"halo/{nranks}", res.total_messages > 0, "no message was sent")


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def check_backends(ops, seed: int) -> dict:
    """Real-core transports, counts only: the same pipeline on each backend
    must give identical payloads and leave no process or segment behind."""
    from repro.experiments import run_exec_phase_workload

    phases = ("mark", "refine", "migrate", "finalize")
    counts = {"backends.payload_mismatch_n": 0, "backends.leaked_children_n": 0,
              "backends.leaked_shm_n": 0}
    segments_before = _shm_segments()
    reference = None
    for backend in BACKENDS:
        labels = [f"backend/{backend}/{ph}" for ph in phases]
        res = ops.run(labels, run_exec_phase_workload, _BACKEND_RESOLUTION,
                      _BACKEND_NPROC, backend, seed=seed)
        children = len(multiprocessing.active_children())
        segments = len(_shm_segments() - segments_before)
        counts["backends.leaked_children_n"] += children
        counts["backends.leaked_shm_n"] += segments
        ops.check(labels[-1], children == 0 and segments == 0,
                  f"{children} live child processes, {segments} new /dev/shm segments")
        if res is None:
            continue
        if reference is None:
            reference = res
        same = (
            np.array_equal(res.edge_marked, reference.edge_marked),
            res.refine_signature.shape == reference.refine_signature.shape
            and np.array_equal(res.refine_signature, reference.refine_signature),
            res.elements_moved == reference.elements_moved,
            res.final_ne == reference.final_ne,
        )
        for label, ok in zip(labels, same):
            counts["backends.payload_mismatch_n"] += not ok
            ops.check(label, ok, "payload differs from the virtual backend's")
        if backend == "shm":
            t = res.transport
            counts.update({
                "backends.messages": t["msgs_zero_copy"] + t["msgs_pickled"],
                "backends.bytes_zero_copy": t["bytes_zero_copy"],
                "backends.bytes_pickled": t["bytes_pickled"],
                "backends.slab_reuse": t["slab_reuse"],
                "backends.spills": t["spills"],
            })
    return counts


def check_trace(ops, label: str, path: str) -> int:
    """An exported trace passes the repo's own schema check; returns its
    record count."""
    from repro.obs import SchemaError, validate_jsonl

    try:
        summary = validate_jsonl(path)
    except (OSError, SchemaError) as exc:
        ops.fail(label, f"{os.path.basename(path)}: {exc}")
        return 0
    return sum(summary.values())


def trace_quality(paths: list[str]) -> dict:
    """Edge cut, balance and TotalV of the traced ``step`` commands, read
    from the metric records the CLI exported."""
    edgecut = words = 0.0
    imbalance = []
    for path in paths:
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("type") != "metric":
                    continue
                when = rec["labels"].get("when")
                if rec["name"] == "repro.partition.edgecut" and when == "after":
                    edgecut += rec["value"]
                elif rec["name"] == "repro.cycle.imbalance" and when == "after":
                    imbalance.append(rec["value"])
                elif rec["name"] == "repro.remap.words_moved":
                    words += rec["value"]
    return {"edgecut": edgecut, "imbalance_mean": sum(imbalance) / len(imbalance),
            "remap_words": words}
