#!/usr/bin/env python3
"""CI smoke check for the observability layer.

Runs ``python -m repro step --trace-out`` on a tiny mesh (resolution 4,
a few hundred elements — seconds of wall time), then validates the
emitted JSONL against the ``repro.obs/v9`` schema and sanity-checks the
span tree: the step must contain marking/subdivision spans and the root
span's virtual duration must equal the sum of its phase leaves.  The
trace must carry labelled metric samples, the host's resource gauges,
and a causal record whose critical path reproduces every VM run's makespan
bit-for-bit, the Chrome export must carry flow events for the delivered
messages, and ``repro report`` / ``repro critical-path`` / ``repro
diff`` must all render from the file alone.

A second pass runs ``repro calibrate`` (virtual + the real mp/shm
backends on the exec-phase workload) with ``--trace-out`` and checks
that backend runs emit schema-valid traces carrying both the modelled
makespans and the measured wall clocks — including the measured
layer: no ``clock`` record kind (the forked ranks share one clock), and
wall-clock causal runs, each with a positive skew bound, whose critical
path matches the rank makespan within that bound, the
measured report (ASCII and HTML) and critical-path renderings, and
``repro diff``'s graceful degradation when one trace lacks measured
runs — plus the per-rank ``repro.resource.*`` gauges the forked rank
processes read at the end of their run.

A third pass covers the run-history store: the traced runs above were
indexed into it, and it must answer ``repro runs compare`` for two
identical steps from the stored documents alone.

A fourth pass traces ``repro step 8 --nproc 64``, where the seeded
repartitioner diffuses on the fine graph: every ``repartition.rebalance``
span must carry its ``diffusion_rounds``, none above
``repartition.DIFFUSION_ROUNDS``.

A fifth pass drives the failure paths (:func:`check_failures`): deadlock
diagnostics on the virtual machine and a real backend, a traced shm
spill, and a truncated trace handed to ``repro report``.

Exit status 0 on success, 1 with a diagnostic on any failure.

Usage:  python scripts/smoke_trace.py  (from the repo root)
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

import _bootstrap  # noqa: F401  (puts src/ on sys.path)

REPO = _bootstrap.REPO
SRC = _bootstrap.SRC


def fail(msg: str) -> "int":
    print(f"smoke_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def _waits_on_its_peer(comm):
    """Two ranks that each receive before sending: a deadlock."""
    yield from comm.compute(10)
    yield from comm.recv(source=1 - comm.rank, tag=7)
    yield from comm.send("never", dest=1 - comm.rank, tag=7, nwords=1)


def _outruns_the_slab_pool(comm, payload, count):
    """Rank 0 streams ``count`` arrays that rank 1 takes only after a
    last message, so the arrays hold slabs until the pool runs dry."""
    if comm.rank == 0:
        for _ in range(count):
            yield from comm.send(payload, dest=1, tag=3, nwords=payload.size)
        yield from comm.send("last", dest=1, tag=4, nwords=1)
    else:
        yield from comm.recv(source=0, tag=4)
        for _ in range(count):
            yield from comm.recv(source=0, tag=3)


def check_failures(tmp: str, env: dict, jsonl: str) -> str | None:
    """The failure paths, each through the product: a deadlocked program
    fails with a DeadlockError naming every blocked receive — on the
    traced virtual machine with each rank's last causal chain, on the
    multiprocessing backend once a receive times out; an shm sender that
    outruns the slab pool spills, traced as a ``transport.spill`` marker;
    a truncated trace makes ``repro report`` print one ``error:``
    line and exit 2.  Returns what went wrong, or None."""
    import numpy as np

    from repro.obs import Tracer
    from repro.parallel import DeadlockError, create_communicator
    from repro.parallel.backends.shm import DEFAULT_SLAB_BYTES

    for name in ("virtual", "multiprocessing"):
        comm = create_communicator(name, 2, tracer=Tracer())
        if name == "multiprocessing":
            comm.timeout = 2.0  # seconds a receive waits before giving up
        try:
            comm.run(_waits_on_its_peer)
        except DeadlockError as exc:
            text = str(exc)
        else:
            return f"a deadlocked program ran to the end on {name}"
        if "recv(source=" not in text or "tag=7" not in text:
            return f"{name} deadlock message names no receive:\n{text}"
        if name == "virtual" and "causal chain per blocked rank" not in text:
            return f"traced deadlock message lacks the causal chains:\n{text}"

    tracer = Tracer()
    shm = create_communicator("shm", 2, tracer=tracer)
    shm.run(_outruns_the_slab_pool, np.zeros(DEFAULT_SLAB_BYTES // 8), 20)
    if not any(e.name == "transport.spill" for e in tracer.events):
        return "a run past the shm slab pool left no transport.spill marker"

    truncated = os.path.join(tmp, "truncated.jsonl")
    with open(jsonl, "rb") as src, open(truncated, "wb") as dst:
        dst.write(src.read(5000))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "report", truncated], env=env,
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    if (proc.returncode != 2 or proc.stdout
            or not proc.stderr.startswith(f"error: {truncated}: line ")
            or proc.stderr.count("\n") != 1):
        return (f"report of a truncated trace: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}, stderr {proc.stderr!r}")
    return None


def main() -> int:
    from repro.obs import (
        SCHEMA_VERSION,
        SchemaError,
        read_jsonl,
        validate_jsonl,
        verify_makespans,
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory() as tmp:
        runs_dir = os.path.join(tmp, "runs")
        env["REPRO_RUNS_DIR"] = runs_dir  # keep the smoke hermetic
        jsonl = os.path.join(tmp, "step.jsonl")
        chrome = os.path.join(tmp, "step.json")
        cmd = [
            sys.executable, "-m", "repro", "step", "4", "--nproc", "4",
            "--trace-out", jsonl, "--chrome-out", chrome,
        ]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")

        try:
            summary = validate_jsonl(jsonl)
        except SchemaError as exc:
            return fail(f"JSONL schema violation: {exc}")
        if summary["spans"] == 0:
            return fail("trace contains no spans")
        if summary["metrics"] == 0:
            return fail("trace contains no labelled metric samples")
        with open(jsonl) as fh:
            first = fh.readline()
        if f'"{SCHEMA_VERSION}"' not in first:
            return fail(f"meta line does not declare {SCHEMA_VERSION}: {first}")

        # resource gauges: the traced CLI run reads its own process
        tracer = read_jsonl(jsonl)
        if not any(
            s.name == "repro.resource.peak_rss_bytes" and s.rank is None
            for s in tracer.metrics.samples()
        ):
            return fail("trace carries no host (rank=None) resource gauges")
        if not any(
            s.name == "repro.resource.peak_rss_bytes" and s.value > 0
            for s in tracer.metrics.samples()
        ):
            return fail("trace carries no positive repro.resource.* peaks")
        names = {s.name for s in tracer.spans}
        for required in ("adapt_step", "marking", "subdivision"):
            if required not in names:
                return fail(f"missing expected span {required!r}; got {names}")
        roots = [s for s in tracer.spans if s.parent is None]
        if len(roots) != 1:
            return fail(f"expected one root span, got {len(roots)}")
        leaf_names = ("marking", "repartition", "gather_scatter",
                      "reassign", "remap", "subdivision")
        leaf_sum = sum(s.v_duration for s in tracer.spans
                       if s.name in leaf_names)
        if abs(leaf_sum - roots[0].v_duration) > 1e-9:
            return fail(
                f"phase leaves sum to {leaf_sum} but the root span spans "
                f"{roots[0].v_duration} virtual seconds"
            )
        # causal record: one nodes and one msgs record per VM run, with
        # nodes and messages in them, and the makespan identity holds
        if not summary["nodes"] == summary["msgs"] > 0:
            return fail(f"trace holds {summary['nodes']} nodes and "
                        f"{summary['msgs']} msgs records, not one per run")
        nnodes = sum(r.nnodes for r in tracer.causal_records)
        nmsgs = sum(len(r.columns()[1]["dst"]) for r in tracer.causal_records)
        if nnodes == 0 or nmsgs == 0:
            return fail("trace contains no causal nodes or messages")
        try:
            nruns = verify_makespans(tracer)
        except AssertionError as exc:
            return fail(f"makespan identity violated: {exc}")
        if nruns == 0:
            return fail("trace records no vm runs to verify")

        if not os.path.exists(chrome) or os.path.getsize(chrome) == 0:
            return fail("Chrome trace was not written")
        with open(chrome) as fh:
            chrome_text = fh.read()
        if '"ph": "s"' not in chrome_text or '"ph": "f"' not in chrome_text:
            return fail("Chrome trace carries no send->recv flow events")

        # the run report must render from the trace alone: ASCII mentioning
        # every recorded cycle, plus a self-contained HTML file with charts
        html = os.path.join(tmp, "report.html")
        cmd = [
            sys.executable, "-m", "repro", "report", jsonl,
            "--format", "both", "--out", html,
        ]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        cycles = tracer.metrics.cycles()
        if not cycles:
            return fail("trace records no adaptation cycles")
        for c in cycles:
            if not re.search(rf"^\s*{c}\b", proc.stdout, re.MULTILINE):
                return fail(f"ASCII report does not mention cycle {c}")
        for needle in ("Balance quality per cycle",
                       "Resource usage (per process)"):
            if needle not in proc.stdout:
                return fail(f"ASCII report omits {needle!r}")
        if not os.path.exists(html) or os.path.getsize(html) == 0:
            return fail("HTML report was not written")
        with open(html) as fh:
            html_text = fh.read()
        if "<svg" not in html_text:
            return fail("HTML report contains no SVG charts")
        if "Critical path" not in html_text:
            return fail("HTML report omits the critical-path section")

        # the critical-path breakdown must render from the file alone
        cmd = [sys.executable, "-m", "repro", "critical-path", jsonl]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        for needle in ("makespan:", "critical-path attribution by",
                       "stragglers per cycle"):
            if needle not in proc.stdout:
                return fail(f"critical-path output omits {needle!r}")

        # diffing a trace against itself must report a zero makespan delta
        cmd = [sys.executable, "-m", "repro", "diff", jsonl, jsonl]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        if "delta: +0.000000s" not in proc.stdout:
            return fail("self-diff did not report a zero makespan delta:\n"
                        f"{proc.stdout}")

        # backend runs must still emit valid obs traces: calibrate runs
        # the exec-phase workload on virtual + multiprocessing and the
        # exported JSONL must validate and carry both backends' clocks
        bjsonl = os.path.join(tmp, "backends.jsonl")
        cmd = [
            sys.executable, "-m", "repro", "calibrate", "3", "--nproc", "2",
            "--trace-out", bjsonl,
        ]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        try:
            bsummary = validate_jsonl(bjsonl)
        except SchemaError as exc:
            return fail(f"backend-trace schema violation: {exc}")
        if bsummary["metrics"] == 0:
            return fail("backend trace contains no metric samples")
        btracer = read_jsonl(bjsonl)
        clocks = {
            (s.name, s.labels_dict.get("backend"))
            for s in btracer.metrics.samples()
            if s.name.startswith("repro.backend.")
        }
        for needed in (
            ("repro.backend.makespan_seconds", "virtual"),
            ("repro.backend.makespan_seconds", "multiprocessing"),
            ("repro.backend.wall_seconds", "multiprocessing"),
        ):
            if needed not in clocks:
                return fail(f"backend trace lacks {needed}; got {clocks}")

        # resource gauges on a real backend: every forked mp/shm rank
        # must have shipped its reading back into the trace
        rank_res = {
            (s.rank, s.labels_dict.get("backend"))
            for s in btracer.metrics.samples()
            if s.name == "repro.resource.peak_rss_bytes"
            and s.rank is not None
        }
        for needed in ((0, "multiprocessing"), (1, "multiprocessing"),
                       (0, "shm"), (1, "shm")):
            if needed not in rank_res:
                return fail(
                    f"backend trace lacks per-rank resource peaks for "
                    f"{needed}; got {sorted(rank_res)}"
                )

        # measured runs: the real-backend runs must have recorded wall
        # causal runs under their phase spans, on the one shared clock
        from repro.obs.causal import runs_from_tracer

        if "clocks" in bsummary:
            return fail(f"backend trace has clock records: {bsummary}")
        wall_runs = runs_from_tracer(btracer, clock="wall")
        if not wall_runs:
            return fail("backend trace carries no measured (wall) runs")
        phases = {r.phase for r in wall_runs}
        if not phases & {"mark", "refine", "migrate", "gather"}:
            return fail(f"measured runs lost their phase names: {phases}")
        if any(r.skew <= 0.0 for r in wall_runs):
            return fail("a measured run carries no skew bound")
        try:
            verify_makespans(btracer)  # wall paths within skew of rank max
        except AssertionError as exc:
            return fail(f"measured makespan identity violated: {exc}")

        # the measured sections must render from the file alone, in both
        # formats
        bhtml = os.path.join(tmp, "backends.html")
        cmd = [sys.executable, "-m", "repro", "report", bjsonl,
               "--format", "both", "--out", bhtml]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        with open(bhtml) as fh:
            bhtml_text = fh.read()
        for needle in ("Per-rank traffic (measured, wall clock)",
                       "Transport counters (shm)",
                       "Measured critical path (wall clock)"):
            if needle not in proc.stdout:
                return fail(f"measured ASCII report omits {needle!r}")
            if needle not in bhtml_text:
                return fail(f"measured HTML report omits {needle!r}")
        if " rank 1 " not in proc.stdout:  # per-rank resource-record rows
            return fail("measured report omits the rank 1 resource row")

        cmd = [sys.executable, "-m", "repro", "critical-path", bjsonl,
               "--clock", "wall"]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        if "wall seconds" not in proc.stdout:
            return fail("measured critical path is not on the wall clock")

        # diff degrades gracefully when one trace lacks measured runs:
        # one-line notice on stderr, comparison still rendered
        cmd = [sys.executable, "-m", "repro", "diff", jsonl, bjsonl,
               "--clock", "wall"]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        if "carries no measured" not in proc.stderr:
            return fail("wall diff against a virtual-only trace printed "
                        "no degradation notice")
        if "makespan" not in proc.stdout:
            return fail("degraded diff rendered no comparison at all")

        # run-history pass: the traced runs above were indexed into
        # REPRO_RUNS_DIR; a second identical step gives compare its pair
        jsonl2 = os.path.join(tmp, "step2.jsonl")
        cmd = [
            sys.executable, "-m", "repro", "step", "4", "--nproc", "4",
            "--trace-out", jsonl2,
        ]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        from repro.obs.runs import RunStore

        store = RunStore(runs_dir)
        step_ids = [r.id for r in store.records()
                    if r.label == "step/r4"]
        if len(step_ids) != 2:
            return fail(f"expected 2 indexed step/r4 runs, got {step_ids}")
        cmd = [sys.executable, "-m", "repro", "runs", "compare",
               step_ids[0], step_ids[1]]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        for needle in ("makespan", "virtual_seconds", "peak_rss_bytes"):
            if needle not in proc.stdout:
                return fail(f"runs compare omits the {needle!r} metric:\n"
                            f"{proc.stdout}")
        nstored = len(store.records())

        # repartition pass: at P = 64 the seeded rebalance needs diffusion
        # on the fine graph; every rebalance span records its rounds, and
        # none ran past the cap
        from repro.partition.repartition import DIFFUSION_ROUNDS

        jsonl3 = os.path.join(tmp, "step8.jsonl")
        cmd = [
            sys.executable, "-m", "repro", "step", "8", "--nproc", "64",
            "--trace-out", jsonl3, "--no-history",
        ]
        proc = subprocess.run(
            cmd, env=env, cwd=REPO, capture_output=True, text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            return fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stdout}\n{proc.stderr}")
        rounds = [s.attrs.get("diffusion_rounds")
                  for s in read_jsonl(jsonl3).spans
                  if s.name == "repartition.rebalance"]
        if not rounds or None in rounds:
            return fail(f"repartition.rebalance spans without "
                        f"diffusion_rounds: {rounds}")
        if max(rounds) > DIFFUSION_ROUNDS:
            return fail(f"diffusion ran {max(rounds)} rounds, past the cap "
                        f"of {DIFFUSION_ROUNDS}")

        err = check_failures(tmp, env, jsonl)
        if err:
            return fail(err)

    print(f"smoke_trace: OK ({summary['spans']} spans, "
          f"{summary['events']} events, {summary['metrics']} metrics, "
          f"{nnodes} causal nodes, {nmsgs} msgs in "
          f"{summary['nodes']} VM run(s), "
          f"{len(cycles)} cycle(s); makespan identity on {nruns} vm run(s); "
          f"{len(wall_runs)} measured wall run(s) within skew; "
          f"{nstored} run(s) in the history store; diffusion rounds "
          f"{rounds} at step 8 --nproc 64)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
