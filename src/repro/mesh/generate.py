"""Synthetic tetrahedral mesh generators.

The paper's experiments use the UH-1H helicopter rotor-blade mesh from
Purcell's acoustics experiment (13,967 vertices / 60,968 tetrahedra), which
we do not have.  These generators produce conforming tetrahedral meshes of
parameterisable size; ``rotor_domain_mesh`` additionally embeds blade
metadata that the synthetic flow fields (``repro.solver.fields``) use to
concentrate solution features — reproducing the *localized refinement*
character of the paper's Real_1/2/3 cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .tetmesh import TetMesh

__all__ = ["box_mesh", "rotor_domain_mesh", "BladeSpec"]

# The six Kuhn tetrahedra of the unit cube: each is a monotone path from
# corner (0,0,0) to corner (1,1,1) along one permutation of the axes.  This
# subdivision is conforming across neighbouring cubes.
_KUHN_PATHS = []
for perm in sorted(permutations(range(3))):
    corner = np.zeros(3, dtype=np.int64)
    path = [corner.copy()]
    for axis in perm:
        corner = corner.copy()
        corner[axis] = 1
        path.append(corner)
    _KUHN_PATHS.append(np.array(path))
_KUHN_PATHS = np.array(_KUHN_PATHS)  # (6, 4, 3) of 0/1 offsets


def box_mesh(
    nx: int,
    ny: int,
    nz: int,
    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
) -> TetMesh:
    """Structured box split into ``6 * nx * ny * nz`` Kuhn tetrahedra."""
    if min(nx, ny, nz) < 1:
        raise ValueError(f"need at least one cell per axis, got {(nx, ny, nz)}")
    divs = (nx, ny, nz)
    axes = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(bounds, divs)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    coords = grid.reshape(-1, 3)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    ci, cj, ck = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    ci, cj, ck = ci.ravel(), cj.ravel(), ck.ravel()  # (ncell,)
    elems = np.empty((ci.size * 6, 4), dtype=np.int64)
    for t, path in enumerate(_KUHN_PATHS):
        for v, off in enumerate(path):
            elems[t :: 6, v] = vid(ci + off[0], cj + off[1], ck + off[2])
    return TetMesh.from_elems(coords, elems)


@dataclass(frozen=True)
class BladeSpec:
    """Axis segment and radius of the synthetic 'rotor blade' feature."""

    start: tuple[float, float, float]
    end: tuple[float, float, float]
    radius: float

    def distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance from each point to the blade axis segment."""
        a = np.asarray(self.start)
        b = np.asarray(self.end)
        ab = b - a
        t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        return np.linalg.norm(pts - proj, axis=1)


#: Extent of the rotor domain along (x, y, z), in units of length; the
#: blade spans x.
ASPECT = (2, 1, 1)


def rotor_domain_mesh(
    resolution: int = 8,
    grading: float = 2.0,
) -> tuple[TetMesh, BladeSpec]:
    """A stretched box domain with an embedded blade-like feature region.

    ``resolution`` cells along the unit axis of an :data:`ASPECT` box; the
    number of elements is ``12 * resolution**3``.  The blade
    runs along the x axis at mid-height, mimicking a rotor blade spanning
    part of the domain.

    ``grading`` > 1 concentrates vertices toward the blade plane in the
    cross-flow (y, z) axes, like the body-fitted rotor meshes the paper
    uses: a point at normalised offset ``u ∈ [-1, 1]`` from the centre
    plane maps to ``sign(u)·|u|**grading``.  The per-axis map is monotone,
    so grid cells stay axis-aligned boxes and the Kuhn subdivision remains
    conforming.
    """
    if grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")
    ax, ay, az = ASPECT
    bounds = ((0.0, float(ax)), (0.0, float(ay)), (0.0, float(az)))
    mesh = box_mesh(ax * resolution, ay * resolution, az * resolution, bounds)
    if grading > 1.0:
        coords = mesh.coords.copy()
        for axis, extent in ((1, float(ay)), (2, float(az))):
            u = 2.0 * coords[:, axis] / extent - 1.0
            coords[:, axis] = 0.5 * extent * (1.0 + np.sign(u) * np.abs(u) ** grading)
        mesh = TetMesh.from_elems(coords, mesh.elems)
    blade = BladeSpec(
        start=(0.25 * ax, 0.5 * ay, 0.5 * az),
        end=(0.80 * ax, 0.5 * ay, 0.5 * az),
        radius=0.08 * min(ay, az),
    )
    return mesh, blade

