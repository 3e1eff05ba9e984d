"""Edge-based, vertex-centered finite-volume Euler solver (paper §2).

The paper's flow code (Strawn & Barth) "solves for the unknowns at the
vertices of the mesh and satisfies the integral conservation laws on
nonoverlapping polyhedral control volumes surrounding these vertices" with
"an edge-based data structure".  This module implements that scheme on the
median-dual tessellation:

* the control volume of vertex ``i`` is a quarter of each incident
  tetrahedron's volume;
* the dual interface between vertices ``i`` and ``j`` inside a shared
  tetrahedron is the pair of triangles joining the edge midpoint, the two
  face centroids containing the edge, and the cell centroid — summing their
  directed areas over all sharing tetrahedra gives the edge coefficient
  ``n_ij`` (median duals close exactly, so a uniform flow is preserved at
  interior vertices);
* fluxes use the Rusanov (local Lax–Friedrichs) approximation, computed
  once per edge and scattered antisymmetrically, so the interior scheme is
  conservative by construction;
* time integration is conventional explicit (forward Euler under a CFL
  bound), as in the paper.

Boundary vertices are held at their initial state (frozen far-field),
which is sufficient for the solver's role here: producing feature-bearing
flow fields whose error indicator drives the mesh adaption experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import EVEN_CORNERS
from repro.obs import current_tracer

from .fluxes import _rusanov
from .scatter import scatter_add_components, scatter_add_rows
from .state import GasState, gas_state

__all__ = ["EulerSolver"]

#: The CFL number a step runs at unless its caller names another.
CFL = 0.5


#: Elements, or edges, per block of the solver's kernels: the bound on
#: their temporaries.  A block's rows land in the same columns of the
#: same weights row the whole-mesh expression built, so the block size
#: moves no bit (DESIGN.md §9).
_BLOCK = 1 << 13


def dual_volumes(mesh: TetMesh) -> np.ndarray:
    """Median-dual control volume per vertex: ¼ of each incident tet."""
    # corner-major order: every element's corner 0, then corner 1, 2, 3
    quarter = np.empty((4, mesh.ne))
    np.divide(mesh.volumes(), 4.0, out=quarter[0])
    quarter[1:] = quarter[0]
    return scatter_add_rows(mesh.elems.T.ravel(), quarter.ravel(), mesh.nv)


#: ``np.cross``'s term order per component ``c``: ``u[i]·w[j] − u[j]·w[i]``.
_CROSS_TERMS = ((1, 2), (2, 0), (0, 1))


def edge_normals(mesh: TetMesh) -> np.ndarray:
    """Directed median-dual interface area per edge, oriented from
    ``edges[:,0]`` to ``edges[:,1]``: ``(nedges, 3)``, the transposed view
    of the component-major ``(3, nedges)`` rows the solver reads.

    Within each (positively oriented) tetrahedron, the dual interface of
    local edge ``(a, b)`` is the two triangles joining the edge midpoint,
    the centroids of the two faces containing the edge, and the cell
    centroid.  Ordering the remaining vertices ``(k, l)`` so that
    ``(a, b, k, l)`` is an even permutation (:data:`EVEN_CORNERS`) makes
    the summed directed area point from ``a`` to ``b`` consistently, which
    gives exact closure (Σ_j n_ij = 0) at interior vertices — free-stream
    preservation.

    Every sum and product runs per coordinate row in the order numpy's
    ``mean`` and ``cross`` took on ``(ne, 4, 3)`` corners (DESIGN.md §9).
    The contributions are computed :data:`_BLOCK` elements at a time into
    their columns of one local-edge-major ``(3, 6·ne)`` array, which one
    bincount per row sums in that order.
    """
    ne = mesh.ne
    pt = np.ascontiguousarray(mesh.coords.T)  # (3, nv), contiguous rows
    lower = np.ascontiguousarray(mesh.edges[:, 0])
    # local-edge-major order: every element's local edge 0, then 1, ..., 5
    n = np.empty((3, 6 * ne))
    by_local_edge = n.reshape(3, 6, ne)
    for lo in range(0, ne, _BLOCK):
        hi = min(lo + _BLOCK, ne)
        _block_normals(pt, lower, mesh.elems[lo:hi], mesh.elem2edge[lo:hi],
                       by_local_edge[:, :, lo:hi])
    del pt, lower
    return scatter_add_components(mesh.elem2edge.T.ravel(), n, mesh.nedges).T


def _block_normals(
    pt: np.ndarray, lower: np.ndarray, elems: np.ndarray,
    elem2edge: np.ndarray, out: np.ndarray,
) -> None:
    """:func:`edge_normals`' contributions of one block of elements into
    ``out`` ``(3, 6, block)``: coordinate, local edge, element."""
    # p[c, j] is coordinate c of the block's corner j: (3, 4, block)
    p = pt.take(elems.T, axis=1)
    cell = (((p[:, 0] + p[:, 1]) + p[:, 2]) + p[:, 3]) / 4.0  # centroid
    for le, (a, b, k, l) in enumerate(EVEN_CORNERS):
        # global edges store the lower vertex first; flip the contribution
        # where local a is the edge's higher global vertex
        sign = np.where(lower.take(elem2edge[:, le]) != elems[:, a], -1.0, 1.0)
        xab = p[:, a] + p[:, b]
        mid = 0.5 * xab
        u = (xab + p[:, k]) / 3.0  # centroid of face (a, b, k)
        u -= mid
        xab += p[:, l]
        xab /= 3.0  # centroid of face (a, b, l)
        xab -= mid
        w = np.subtract(cell, mid, out=mid)
        # 0.5·(u × w) + 0.5·(w × xab), term for term as np.cross
        for c, (i, j) in enumerate(_CROSS_TERMS):
            row = out[c, le]
            np.multiply(0.5, u[i] * w[j] - u[j] * w[i], out=row)
            row += 0.5 * (w[i] * xab[j] - w[j] * xab[i])
            row *= sign


@dataclass
class EulerSolver:
    """Explicit first-order edge-based Euler solver on a tetrahedral mesh:
    vertex states at each edge, the Rusanov flux, forward-Euler steps."""

    mesh: TetMesh
    q: np.ndarray  #: (nv, 5) conservative state

    def __post_init__(self) -> None:
        self.q = np.array(self.q, dtype=np.float64)
        if self.q.shape != (self.mesh.nv, 5):
            raise ValueError(
                f"state must have shape ({self.mesh.nv}, 5), got {self.q.shape}"
            )
        self.vol = dual_volumes(self.mesh)
        self.normals = edge_normals(self.mesh)
        # per-edge constants of every step: interface area, and the edge
        # endpoints as one lower-then-upper index vector (the scatter order)
        # whose two halves are the contiguous endpoint columns
        self._area = np.linalg.norm(self.normals, axis=1)
        self._nt = self.normals.T  # (3, nedges), contiguous rows
        self._ends = self.mesh.edges.T.ravel()
        self._lo = self._ends[: self.mesh.nedges]
        self._hi = self._ends[self.mesh.nedges :]
        self._boundary = np.zeros(self.mesh.nv, dtype=bool)
        self._boundary[self.mesh.bnd_faces] = True

    def residual(self) -> np.ndarray:
        """Net flux into each control volume (interior scheme) at the
        current state, ``(nv, 5)``.

        The gas state is evaluated once, at the vertices, and gathered to
        the edges; the flux core reads only those.
        """
        return self._residual(np.ascontiguousarray(self.q.T)).T

    def _residual(self, qt: np.ndarray, gas: GasState | None = None) -> np.ndarray:
        """:meth:`residual` of component-major states ``qt`` ``(5, nv)``,
        as ``(5, nv)``; ``gas`` is ``gas_state(qt)`` if already known."""
        if gas is None:
            gas = gas_state(qt)
        nv, nedges = qt.shape[1], self._lo.size
        # the edge states (24 edge-sized rows) exist one block at a time
        f = np.empty((5, nedges))
        for lo in range(0, nedges, _BLOCK):
            ends = slice(lo, lo + _BLOCK)
            left, right = self._lo[ends], self._hi[ends]
            f[:, ends] = _rusanov(
                qt.take(left, axis=1), qt.take(right, axis=1),
                gas.take(left), gas.take(right), self._nt[:, ends],
                self._area[ends],
            )
        # x - f == x + (-f) bitwise, so one endpoint-major pass per
        # component is exactly "subtract f at every lower endpoint, then
        # add it at every upper"; one component's weights exist at a time
        res = np.empty((5, nv))
        weights = np.empty((2, nedges))
        for row, fc in zip(res, f):
            np.negative(fc, out=weights[0])
            weights[1] = fc
            row[:] = scatter_add_rows(self._ends, weights.ravel(), nv)
        return res

    def stable_dt(self) -> float:
        """CFL time step at :data:`CFL` from dual volumes, interface areas,
        wave speeds.

        The wave speed ``|v| + c`` is evaluated at the vertices and the
        larger endpoint value taken per edge.
        """
        return self._stable_dt(gas_state(self.q.T), CFL)

    def _stable_dt(self, gas: GasState, cfl: float) -> float:
        """:meth:`stable_dt` from the already evaluated ``gas_state(self.q.T)``."""
        # the scatter's weights: each edge's flow at its lower endpoint,
        # then again at its upper one
        flow = np.empty((2, self._lo.size))
        np.maximum(gas.lam.take(self._lo), gas.lam.take(self._hi), out=flow[0])
        flow[0] *= self._area
        flow[1] = flow[0]
        speed_sum = scatter_add_rows(self._ends, flow.ravel(), self.mesh.nv)
        with np.errstate(divide="ignore"):
            dt = self.vol / np.maximum(speed_sum, 1e-300)
        return cfl * float(dt.min())

    def step(self, cfl: float = CFL) -> float:
        """Advance one forward-Euler step q + dt·L(q) at the largest stable
        ``dt`` for ``cfl``; returns dt.

        Boundary vertices are frozen (far-field Dirichlet).
        """
        q0 = self.q
        # the update runs on component-major rows; self.q stays (nv, 5)
        qt0 = np.ascontiguousarray(q0.T)
        gas = gas_state(qt0)  # shared by the CFL bound and the residual
        dt = self._stable_dt(gas, cfl)
        upd = dt * self._residual(qt0, gas) / self.vol
        upd[:, self._boundary] = 0.0
        upd += qt0  # == qt0 + upd bitwise, without a third state array
        self.q = np.ascontiguousarray(upd.T)
        tracer = current_tracer()
        if tracer is not None and dt > 0:
            dq = (self.q - q0) / dt
            tracer.metric(
                "repro.solver.residual_norm",
                float(np.sqrt(np.mean(dq * dq))),
                kind="histogram",
                scheme="euler",
            )
        return dt

    def run(self, n_steps: int, cfl: float = CFL) -> np.ndarray:
        """Run ``n_steps`` explicit iterations; returns the state."""
        for _ in range(n_steps):
            self.step(cfl=cfl)
        return self.q
