"""Reproduction harness for every table and figure of the paper's §5.

Importing the package executes none of its submodules: a public name is
resolved on first access (PEP 562) by importing the submodule it lives
in, so ``from repro.experiments import make_case`` costs ``cases`` and
``import repro.experiments.weak_scaling`` costs ``weak_scaling`` — not
the sweep, the balancer and the calibration workload besides.
"""

import sys
from importlib import import_module
from types import ModuleType

#: Submodule -> the public names that live there; the one table behind
#: ``__all__`` and attribute access.
_PUBLIC = {
    "calibrate": (
        "CalibrationReport",
        "calibrate",
        "format_calibration",
        "run_exec_phase_workload",
    ),
    "cases": (
        "CASE_NAMES",
        "PROC_COUNTS",
        "REAL_FRACTIONS",
        "RotorCase",
        "case_for",
        "make_case",
    ),
    "figures": (
        "PAPER_G",
        "fig4_speedup",
        "fig5_remap_times",
        "fig6_anatomy",
        "fig7_max_improvement",
        "fig8_actual_improvement",
    ),
    "sweep": ("SWEEP_PROCS", "run_step"),
    "table1": ("grid_sizes",),
    "table2": ("MapperRow", "mapper_comparison"),
}
_HOME = {name: home for home, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = import_module(f"{__name__}.{home}")
    for public in _PUBLIC[home]:
        globals()[public] = getattr(module, public)
    return globals()[name]


class _Package(ModuleType):
    """``calibrate`` names a submodule and the function in it.  The import
    system binds a submodule onto its package after executing it, whoever
    imported it (``import repro.experiments.calibrate`` does); the public
    name wins, as it did when ``__init__`` imported every submodule
    itself."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
