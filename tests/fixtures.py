"""Building blocks the tests share and no product code uses.

The smallest tetrahedral meshes, an element-quality measure, the analytic
flow fields the solver, adaptor and framework tests start from, and the
causal run of one traced ``RunResult``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.geometry import tet_volumes
from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import LOCAL_EDGES
from repro.obs.causal import CausalRun
from repro.obs.metrics import MetricsRegistry
from repro.solver.state import conservative


def single_tet() -> TetMesh:
    """The reference tetrahedron — smallest possible mesh."""
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    elems = np.array([[0, 1, 2, 3]])
    return TetMesh.from_elems(coords, elems)


def two_tets() -> TetMesh:
    """Two tetrahedra sharing a face — smallest mesh with an interior face."""
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ]
    )
    elems = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    return TetMesh.from_elems(coords, elems)


def aspect_ratios(coords: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Crude element quality: longest edge cubed over volume, normalised so
    a regular tetrahedron scores 1.  Larger is worse; inf for degenerate."""
    p = coords[elems]  # (ne, 4, 3)
    ev = p[:, LOCAL_EDGES[:, 1]] - p[:, LOCAL_EDGES[:, 0]]  # (ne, 6, 3)
    lmax = np.sqrt((ev**2).sum(axis=2)).max(axis=1)
    vol = np.abs(tet_volumes(coords, elems))
    # regular tet: V = L^3 / (6*sqrt(2))  =>  L^3 / V = 6*sqrt(2)
    with np.errstate(divide="ignore"):
        return (lmax**3 / vol) / (6.0 * np.sqrt(2.0))


def uniform_flow(
    coords: np.ndarray,
    rho: float = 1.0,
    vel: tuple[float, float, float] = (0.5, 0.0, 0.0),
    p: float = 1.0,
) -> np.ndarray:
    """Constant free-stream state at every vertex."""
    n = coords.shape[0]
    return conservative(
        np.full(n, rho), np.tile(np.asarray(vel, dtype=np.float64), (n, 1)),
        np.full(n, p),
    )


def spherical_blast_field(
    coords: np.ndarray,
    center: tuple[float, float, float],
    radius: float,
    strength: float = 4.0,
) -> np.ndarray:
    """Sod-like spherical blast: hot dense ball in quiescent gas.

    The contact/shock structure expands through the mesh, exercising
    refinement *and* coarsening as features move.
    """
    pts = np.asarray(coords, dtype=np.float64)
    r = np.linalg.norm(pts - np.asarray(center), axis=1)
    inside = 0.5 * (1.0 - np.tanh((r - radius) / (0.15 * radius)))
    rho = 1.0 + (strength - 1.0) * inside
    p = 1.0 + (strength - 1.0) * inside
    vel = np.zeros((pts.shape[0], 3))
    return conservative(rho, vel, p)


def run_from_result(result) -> CausalRun:
    """The causal run of a traced :class:`~repro.parallel.runtime.RunResult`."""
    assert result.nodes is not None, "run the VirtualMachine with trace=True"
    return CausalRun(
        id=0,
        base=0.0,
        nranks=len(result.clocks),
        makespan=result.makespan,
        nodes=list(result.nodes),
        msgs=list(result.msgs),
    )


def metric_value(reg: MetricsRegistry, name: str, labels: dict | None = None,
                 cycle: int | None = None, rank: int | None = None):
    """The value ``reg`` stores under the exact key ``(name, labels,
    cycle, rank)``, or None."""
    frozen = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
    for s in reg.samples():
        if (s.name, s.labels, s.cycle, s.rank) == (name, frozen, cycle, rank):
            return s.value
    return None
