#!/usr/bin/env python3
"""Fail on any function under ``src/repro`` that no product entry point enters.

    python scripts/entered_functions.py  (from the repo root)

The static caller guards of ``tests/kernels/test_oracle_harness.py``
match names, so a member that shares its name with a live one passes
them unentered.  This check runs the product instead: the seven
examples, the CLI commands a user types (``step`` on every backend,
``calibrate``, ``report``, ``critical-path`` on both clocks, ``diff``,
``runs``, ``scale``, ``case``, ``version``) and ``scripts/smoke_trace.py``,
each in its own process, with a ``sitecustomize`` on ``PYTHONPATH`` that
installs a ``sys.setprofile`` hook.  The hook collects the code object of
every Python function entered and dumps the ``src/repro`` ones when the
process exits — through ``atexit``, through ``os._exit``, which is how a
forked ``multiprocessing`` or ``shm`` rank leaves, and on ``SIGTERM``,
which is how the parent reaps a rank that has reported back — so
rank-side code counts.  Child interpreters inherit ``PYTHONPATH`` and so
the hook.

Every ``def`` under ``src/repro`` (methods and nested functions included)
must then have been entered at least once, identified by file and first
line (the first decorator's, as in ``co_firstlineno``).  No module is
exempt; the only names skipped are those the static guards already keep
without a product caller, each for the reason written beside it there
(their ``ALLOWLIST`` and ``ALLOWLIST_MEMBERS``): this check has no
exemption list of its own.

Exit status 0 when every function was entered, 1 otherwise (listing
each unentered function), 2 when an entry point itself failed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The static guards, whose written allowlists this check honours.
GUARDS = ROOT / "tests" / "kernels" / "test_oracle_harness.py"

#: The product entry points, run in this order in one scratch directory
#: (``{tmp}``); later commands read the traces earlier ones wrote, and
#: ``{run}`` is a run the history store holds by then.
ENTRY_POINTS = [
    ["examples/quickstart.py"],
    ["examples/mapper_comparison.py"],
    ["examples/distributed_adaption.py"],
    ["examples/blast_wave.py"],
    ["examples/scaling_study.py"],
    ["examples/paper_scale.py", "6", "16"],
    ["examples/rotor_acoustics.py", "4"],
    ["-m", "repro", "version"],
    ["-m", "repro", "case", "4"],
    ["-m", "repro", "scale", "--ranks", "256", "--work-units", "100"],
    ["-m", "repro", "step", "4", "--nproc", "4",
     "--trace-out", "{tmp}/step.jsonl", "--chrome-out", "{tmp}/step.json"],
    ["-m", "repro", "step", "4", "--nproc", "4", "--strategy", "Real_1",
     "--reassigner", "optimal_bmcm"],
    ["-m", "repro", "step", "4", "--nproc", "4", "--reassigner", "combined"],
    ["-m", "repro", "step", "4", "--nproc", "4", "--backend", "shm",
     "--trace-out", "{tmp}/shm.jsonl"],
    ["-m", "repro", "step", "4", "--nproc", "4",
     "--backend", "multiprocessing"],
    ["-m", "repro", "calibrate", "4", "--nproc", "4",
     "--trace-out", "{tmp}/cal.jsonl"],
    ["-m", "repro", "report", "{tmp}/cal.jsonl", "--format", "both",
     "--out", "{tmp}/cal.html"],
    ["-m", "repro", "report", "4"],
    ["-m", "repro", "critical-path", "{tmp}/step.jsonl"],
    ["-m", "repro", "critical-path", "{tmp}/shm.jsonl", "--clock", "wall"],
    ["-m", "repro", "diff", "{tmp}/step.jsonl", "{tmp}/shm.jsonl"],
    ["-m", "repro", "runs", "index", "{tmp}/cal.jsonl", "--label", "cal"],
    ["-m", "repro", "runs", "list"],
    ["-m", "repro", "runs", "show", "{run}"],
    [str(ROOT / "scripts" / "smoke_trace.py")],
]

_SITECUSTOMIZE = '''\
import atexit, os, signal, sys

_SRC = {src!r}
_OUT = {out!r}
_codes = set()


def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = {{f"{{c.co_filename}}:{{c.co_firstlineno}}" for c in list(_codes)
             if c.co_filename.startswith(_SRC)}}
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{id(rows)}}.txt")
    with open(path, "a") as fh:
        fh.write("\\n".join(sorted(rows)) + "\\n")


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


def _term(signum, frame):
    _dump()
    _real_exit(128 + signum)


os._exit = _exit
atexit.register(_dump)
signal.signal(signal.SIGTERM, _term)
sys.setprofile(_hook)
'''


def allowlisted() -> set[str]:
    """The names the static guards' ``ALLOWLIST`` (exported names) and
    ``ALLOWLIST_MEMBERS`` (``Class.member``) keep."""
    names = set()
    for node in ast.parse(GUARDS.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("ALLOWLIST", "ALLOWLIST_MEMBERS")):
            names |= set(ast.literal_eval(node.value))
    return names


def defined_functions() -> dict[tuple[str, int], str]:
    """``{(path, first line): qualified name}`` of every ``def`` under
    ``src/repro`` outside :func:`allowlisted`."""
    kept = allowlisted()
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    if name not in kept:
                        out[str(path), first] = f"{rel}::{name}"
                    walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir, out_dir = Path(tmp, "hook"), Path(tmp, "entered")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            src=str(PACKAGE) + os.sep, out=str(out_dir)))
        runs = Path(tmp, "runs")
        env = dict(os.environ, REPRO_RUNS_DIR=str(runs),
                   PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]))
        for argv in ENTRY_POINTS:
            run = min((p.stem for p in runs.glob("*.json")), default="")
            args = [a.format(tmp=tmp, run=run) for a in argv]
            if args[0].startswith("examples/"):
                args[0] = str(ROOT / args[0])
            done = subprocess.run([sys.executable, *args], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"entered_functions: {' '.join(argv)} exited "
                      f"{done.returncode}:\n{done.stderr[-2000:]}",
                      file=sys.stderr)
                return 2
        entered = set()
        for dump in out_dir.iterdir():
            for line in dump.read_text().split():
                path, _, first = line.rpartition(":")
                entered.add((path, int(first)))

    defined = defined_functions()
    missed = sorted(name for key, name in defined.items()
                    if key not in entered)
    for name in missed:
        print(f"never entered: {name}")
    print(f"entered_functions: {len(defined) - len(missed)} of "
          f"{len(defined)} functions entered by {len(ENTRY_POINTS)} entry "
          f"points")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
