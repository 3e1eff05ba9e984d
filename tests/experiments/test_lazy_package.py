"""``repro.experiments`` resolves its public names on first use.

The package ``__init__`` executes no submodule; a name → submodule table
drives ``__all__``, ``dir()`` and a module ``__getattr__``.  Pinned here:
every name still works as ``from repro.experiments import X``, importing
the package alone loads nothing, and ``calibrate`` — which names both a
submodule and the function in it — is the function whichever way the
submodule first got loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments as experiments

SRC = str(Path(repro.__file__).resolve().parents[1])


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.strip()


def test_every_public_name_is_its_home_submodules_attribute():
    assert len(experiments.__all__) == 22
    for name in experiments.__all__:
        value = getattr(experiments, name)  # loads the home submodule
        home = sys.modules[f"repro.experiments.{experiments._HOME[name]}"]
        assert value is getattr(home, name), name
        assert name in dir(experiments)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro.experiments import *", namespace)
    assert set(experiments.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(experiments, "nope")
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        experiments.nope
    with pytest.raises(ImportError):
        from repro.experiments import nope  # noqa: F401


def test_importing_the_package_alone_loads_nothing():
    out = fresh(
        "import sys, repro.experiments\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.', 'scipy', 'numpy'))))"
    )
    assert out == "['repro.experiments']"


def test_a_name_costs_its_own_submodule():
    out = fresh(
        "import sys\n"
        "from repro.experiments import make_case\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.experiments.', 'repro.core', 'scipy'))))"
    )
    assert out == "['repro.experiments.cases']"


@pytest.mark.parametrize("first", [
    "from repro.experiments import run_exec_phase_workload",  # same home
    "import repro.experiments.calibrate",
    "from repro.experiments.calibrate import PHASES",
])
def test_calibrate_is_the_function_however_its_submodule_got_loaded(first):
    out = fresh(
        f"{first}\n"
        "from repro.experiments import calibrate\n"
        "import repro.experiments as e, sys\n"
        "print(callable(calibrate),"
        " calibrate is sys.modules['repro.experiments.calibrate'].calibrate,"
        " e.calibrate is calibrate)"
    )
    assert out == "True True True"
