"""The rotor-acoustics test case and the Real_1/2/3 refinement strategies.

Paper §5: the computational mesh simulates Purcell's UH-1H rotor-blade
acoustics experiment (13,967 vertices / 60,968 tetrahedra / 78,343 edges),
and the three strategies Real_1, Real_2, Real_3 subdivide 5%, 33%, and 60%
of the initial mesh's edges based on an error indicator computed from the
flow solution.

We do not have the UH-1H mesh; :func:`make_case` builds a synthetic graded
rotor domain with an analytic rotor-acoustics field.  Edges are targeted by
the same fractions using element-coherent feature detection (velocity
magnitude), which reproduces the tightly clustered refinement regions the
paper's indicator produced — the paper's growth factors (1.353 / 3.310 /
5.279) are almost exactly the zero-amplification ideal ``7·f + 1``, and
this targeting lands within ~10–15% of them.

``resolution=8`` (the default, ≈ 6k elements) keeps the full experiment
sweep fast; pass ``resolution=17`` for a paper-scale (≈ 59k element) mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.adapt.adaptor import AdaptiveMesh
from repro.adapt.marking import target_elements_by_fraction
from repro.mesh.generate import BladeSpec, rotor_domain_mesh
from repro.mesh.tetmesh import TetMesh
from repro.solver.fields import rotor_acoustics_field
from repro.solver.indicator import density_indicator
from repro.solver.state import primitive

__all__ = [
    "RotorCase", "make_case", "case_for", "growth_factor",
    "REAL_FRACTIONS", "CASE_NAMES", "PROC_COUNTS",
]

#: Fractions of initial-mesh edges subdivided by Real_1, Real_2, Real_3.
REAL_FRACTIONS = {"Real_1": 0.05, "Real_2": 0.33, "Real_3": 0.60}
CASE_NAMES = tuple(REAL_FRACTIONS)

#: Paper's processor sweep.
PROC_COUNTS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class RotorCase:
    """A reproducible instance of the paper's experimental setup."""

    mesh: TetMesh
    blade: BladeSpec
    solution: np.ndarray  #: (nv, 5) conservative rotor-acoustics state
    elem_error: np.ndarray  #: per-element feature-detection error
    edge_error: np.ndarray  #: per-edge jump indicator (diagnostics)

    def marking_mask(self, name: str) -> np.ndarray:
        """Edge mask of strategy ``name`` (one of Real_1/Real_2/Real_3)."""
        if name not in REAL_FRACTIONS:
            raise KeyError(f"unknown strategy {name!r}; choose from {CASE_NAMES}")
        return target_elements_by_fraction(
            self.mesh, self.elem_error, REAL_FRACTIONS[name]
        )


def make_case(resolution: int = 8, seed: int = 0) -> RotorCase:
    """Build the synthetic rotor case at the given mesh resolution."""
    mesh, blade = rotor_domain_mesh(resolution=resolution, grading=2.0)
    q = rotor_acoustics_field(mesh.coords, blade)
    _rho, vel, _p = primitive(q)
    speed = np.linalg.norm(vel, axis=1)
    elem_err = speed[mesh.elems].max(axis=1)
    # deterministic tiny jitter breaks exact ties between symmetric elements
    # so fraction targeting is stable across platforms
    rng = np.random.default_rng(seed)
    elem_err = elem_err * (1.0 + 1e-9 * rng.random(mesh.ne))
    return RotorCase(
        mesh=mesh,
        blade=blade,
        solution=q,
        elem_error=elem_err,
        edge_error=density_indicator(mesh, q),
    )


@lru_cache(maxsize=4)
def case_for(resolution: int) -> RotorCase:
    return make_case(resolution=resolution)


@lru_cache(maxsize=16)
def growth_factor(resolution: int, case_name: str) -> float:
    """Mesh growth factor G of one strategy: a property of the adaptor
    alone (independent of P and of the balancer)."""
    case = case_for(resolution)
    adaptive = AdaptiveMesh(case.mesh)
    marking = adaptive.mark(edge_mask=case.marking_mask(case_name))
    return adaptive.refine(marking).growth_factor
