"""What a cold ``python -m repro <command>`` imports — a count, no timer.

Import time is most of what a short command costs: numpy takes 0.15 s
against a 0.08 s ``repro report``, and ``import repro.core`` took 0.51 s
while the balancer imported ``scipy.optimize`` (0.14 s since it solves its
assignments in-tree).  So the set of modules a command loads is pinned
here: the renderers and the causal analysis are standard library only,
``repro scale`` needs the virtual machine but not the balancer, ``repro
case`` the adaptor but not the balancer, ``repro.obs`` imports no sibling
package, and nothing the product runs imports SciPy, which only the tests
need.  Each case is one subprocess under ``-X importtime``, whose stderr
names every module the interpreter executed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.export import export_jsonl
from repro.obs.tracer import Tracer

SRC = str(Path(repro.__file__).resolve().parents[1])

BALANCER = ("scipy", "repro.core", "repro.partition", "repro.mesh",
            "repro.adapt", "repro.solver", "repro.dist")
#: What a command that only reads a trace must not load.
NOT_FOR_READING = BALANCER + ("numpy", "repro.parallel", "repro.experiments")


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    tr = Tracer()
    with tr.phase("cycle", cycle=tr.begin_cycle()):
        with tr.phase("exec"):
            tr.advance(1.0)
    path = tmp_path_factory.mktemp("import-sets") / "t.jsonl"
    export_jsonl(tr, path)
    return str(path)


def imported(*argv: str, cwd) -> set[str]:
    """Every module one ``python argv...`` process imported."""
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_RUNS_DIR=str(cwd / "runs"))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return {line.rpartition("|")[2].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def loaded(modules: set[str], packages) -> list[str]:
    """The members of ``modules`` at or below one of ``packages``."""
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


@pytest.mark.parametrize("command", [
    ("report", "{trace}", "--format", "both"),
    ("critical-path", "{trace}"),
    ("diff", "{trace}", "{trace}"),
    ("runs", "list"),
])
def test_trace_commands_load_the_obs_layer_and_nothing_above_it(
        command, trace, tmp_path):
    argv = [a.format(trace=trace) for a in command]
    modules = imported("-m", "repro", *argv, cwd=tmp_path)
    assert "repro.obs" in modules
    assert loaded(modules, NOT_FOR_READING) == []


def test_scale_loads_the_virtual_machine_but_not_the_balancer(tmp_path):
    modules = imported("-m", "repro", "scale", "--ranks", "16", cwd=tmp_path)
    assert "repro.parallel.runtime" in modules
    assert loaded(modules, BALANCER) == []
    assert loaded(modules, ["repro.experiments"]) == [
        "repro.experiments", "repro.experiments.weak_scaling"]


def test_case_loads_the_adaptor_but_not_the_balancer(tmp_path):
    modules = imported("-m", "repro", "case", "4", cwd=tmp_path)
    assert "repro.adapt.adaptor" in modules
    assert loaded(modules, ["scipy", "repro.core", "repro.partition"]) == []


def test_obs_imports_no_sibling_package(tmp_path):
    modules = imported("-c", "import repro.obs", cwd=tmp_path)
    ours = loaded(modules, ["repro"])
    assert "repro.obs.report" in ours
    assert [m for m in ours if m != "repro" and not m.startswith("repro.obs")] == []


@pytest.mark.parametrize("argv", [
    ("-m", "repro", "step", "4", "--nproc", "8", "--reassigner", "optimal_bmcm"),
    ("-c", "import repro.core, repro.experiments"),
])
def test_the_balancer_loads_no_scipy(argv, tmp_path):
    modules = imported(*argv, cwd=tmp_path)
    assert "repro.core.reassign" in modules
    assert [m for m in modules if m.startswith("scipy")] == []
