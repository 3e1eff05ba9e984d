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
from repro.mesh.topology import EVEN_CORNERS, LOCAL_EDGES
from repro.obs import current_tracer

from .scatter import scatter_add_components, scatter_add_rows
from .state import GAMMA, GasState, gas_state, primitive

__all__ = ["EulerSolver", "dual_volumes", "edge_normals"]


def dual_volumes(mesh: TetMesh) -> np.ndarray:
    """Median-dual control volume per vertex: ¼ of each incident tet."""
    vols = mesh.volumes()
    # corner-major order: every element's corner 0, then corner 1, 2, 3
    return scatter_add_rows(mesh.elems.T.ravel(), np.tile(vols / 4.0, 4), mesh.nv)


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
    """
    ne = mesh.ne
    # p[c, j] is coordinate c of every element's corner j: (3, 4, ne)
    p = np.ascontiguousarray(mesh.coords.T).take(mesh.elems.T, axis=1)
    cell = (((p[:, 0] + p[:, 1]) + p[:, 2]) + p[:, 3]) / 4.0  # centroid, (3, ne)
    # local-edge-major order: every element's local edge 0, then 1, ..., 5
    eids = mesh.elem2edge.T.ravel()
    # global edges store the lower vertex first; flip the contribution
    # where local a is the edge's higher global vertex
    sign = np.where(
        mesh.edges[:, 0].take(eids) != mesh.elems.T[LOCAL_EDGES[:, 0]].ravel(),
        -1.0,
        1.0,
    )
    n = np.empty((3, 6 * ne))
    for le, (a, b, k, l) in enumerate(EVEN_CORNERS):
        xab = p[:, a] + p[:, b]
        mid = 0.5 * xab
        u = (xab + p[:, k]) / 3.0  # centroid of face (a, b, k)
        u -= mid
        xab += p[:, l]
        xab /= 3.0  # centroid of face (a, b, l)
        xab -= mid
        w = np.subtract(cell, mid, out=mid)
        cols = slice(le * ne, (le + 1) * ne)
        # 0.5·(u × w) + 0.5·(w × xab), term for term as np.cross
        for c, (i, j) in enumerate(_CROSS_TERMS):
            row = n[c, cols]
            np.multiply(0.5, u[i] * w[j] - u[j] * w[i], out=row)
            row += 0.5 * (w[i] * xab[j] - w[j] * xab[i])
            row *= sign[cols]
    del p, cell, sign, xab, mid, u, w
    return scatter_add_components(eids, n, mesh.nedges).T


@dataclass
class EulerSolver:
    """Explicit edge-based Euler solver on a tetrahedral mesh.

    ``order=1`` uses the vertex states directly at each edge (robust,
    first-order); ``order=2`` applies the paper's piecewise-linear
    reconstruction — limited least-squares MUSCL extrapolation to the edge
    midpoints — before the numerical flux.  ``flux`` selects the Riemann
    solver ("rusanov" or "hllc"); ``time_scheme`` the explicit integrator
    ("euler", "rk2", or "rk3" — strong-stability-preserving forms).
    """

    mesh: TetMesh
    q: np.ndarray  #: (nv, 5) conservative state
    order: int = 1
    periodic_pairs: np.ndarray | None = None  #: (npairs, 2) matched vertices
    flux: str = "rusanov"
    time_scheme: str = "euler"

    def __post_init__(self) -> None:
        from .fluxes import FLUXES

        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.flux not in FLUXES:
            raise ValueError(
                f"flux must be one of {sorted(FLUXES)}, got {self.flux!r}"
            )
        if self.time_scheme not in ("euler", "rk2", "rk3"):
            raise ValueError(
                f"time_scheme must be euler/rk2/rk3, got {self.time_scheme!r}"
            )
        self._edge_flux = FLUXES[self.flux]
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
        self._boundary[np.unique(self.mesh.bnd_faces)] = True
        if self.periodic_pairs is not None:
            from .periodic import validate_pairs

            self.periodic_pairs = validate_pairs(self.mesh, self.periodic_pairs)
            # periodic vertices are computed DOFs, not frozen far field, and
            # each pair shares one control volume spanning the domain seam;
            # pairs that also touch a NON-periodic boundary face (edges and
            # corners of the seam planes) stay frozen — their lateral
            # boundary patches are not closed by the pairing
            is_per = np.zeros(self.mesh.nv, dtype=bool)
            is_per[self.periodic_pairs.ravel()] = True
            lateral = ~is_per[self.mesh.bnd_faces].all(axis=1)
            on_lateral = np.zeros(self.mesh.nv, dtype=bool)
            on_lateral[np.unique(self.mesh.bnd_faces[lateral])] = True
            self._boundary[self.periodic_pairs.ravel()] = False
            self._boundary[is_per & on_lateral] = True
            a, b = self.periodic_pairs[:, 0], self.periodic_pairs[:, 1]
            combined = self.vol[a] + self.vol[b]
            self.vol = self.vol.copy()
            self.vol[a] = combined
            self.vol[b] = combined
            # mirror the initial state so the pair starts consistent
            self.q[b] = self.q[a]

    def residual(self, q: np.ndarray | None = None) -> np.ndarray:
        """Net flux into each control volume (interior scheme), ``(nv, 5)``.

        The gas state is evaluated once per side: at the vertices and
        gathered to the edges for ``order=1``, at the reconstructed edge
        states for ``order=2``; the flux core reads only those.
        """
        q = self.q if q is None else q
        return self._residual(np.ascontiguousarray(q.T)).T

    def _residual(self, qt: np.ndarray, gas: GasState | None = None) -> np.ndarray:
        """:meth:`residual` of component-major states ``qt`` ``(5, nv)``,
        as ``(5, nv)``; ``gas`` is ``gas_state(qt)`` if already known."""
        if self.order == 2:
            from .reconstruct import (
                limit_barth_jespersen,
                lsq_gradients,
                muscl_edge_states,
            )

            q = qt.T
            grads = lsq_gradients(self.mesh, q)
            psi = limit_barth_jespersen(self.mesh, q, grads)
            qL, qR = (side.T for side in muscl_edge_states(self.mesh, q, grads, psi))
            gL, gR = gas_state(qL), gas_state(qR)
        else:
            if gas is None:
                gas = gas_state(qt)
            qL, qR = qt.take(self._lo, axis=1), qt.take(self._hi, axis=1)
            gL, gR = gas.take(self._lo), gas.take(self._hi)
        f = self._edge_flux(qL, qR, gL, gR, self._nt, self._area)
        del qL, qR, gL, gR  # 24 edge-sized rows, not needed by the scatter
        # x - f == x + (-f) bitwise, so one endpoint-major pass is exactly
        # "subtract f at every lower endpoint, then add it at every upper"
        res = scatter_add_components(
            self._ends, np.concatenate([-f, f], axis=1), qt.shape[1]
        )
        if self.periodic_pairs is not None:
            # the pair is one control volume: residuals accumulate across
            # the seam and both copies receive the combined value
            a, b = self.periodic_pairs[:, 0], self.periodic_pairs[:, 1]
            combined = res[:, a] + res[:, b]
            res[:, a] = combined
            res[:, b] = combined
        return res

    def stable_dt(self, cfl: float = 0.5) -> float:
        """CFL time step from dual volumes, interface areas, wave speeds.

        The wave speed ``|v| + c`` is evaluated at the vertices and the
        larger endpoint value taken per edge.
        """
        return self._stable_dt(gas_state(self.q.T), cfl)

    def _stable_dt(self, gas: GasState, cfl: float) -> float:
        """:meth:`stable_dt` from the already evaluated ``gas_state(self.q.T)``."""
        flow = np.maximum(gas.lam[self._lo], gas.lam[self._hi])
        flow *= self._area
        speed_sum = scatter_add_rows(self._ends, np.tile(flow, 2), self.mesh.nv)
        with np.errstate(divide="ignore"):
            dt = self.vol / np.maximum(speed_sum, 1e-300)
        return cfl * float(dt.min())

    def _stage(
        self, qt: np.ndarray, dt: float, gas: GasState | None = None
    ) -> np.ndarray:
        """One forward-Euler stage q + dt·L(q) with frozen boundaries, on
        component-major states ``(5, nv)``."""
        upd = dt * self._residual(qt, gas) / self.vol
        upd[:, self._boundary] = 0.0
        return qt + upd

    def step(self, dt: float | None = None, cfl: float = 0.5) -> float:
        """Advance one explicit step of the selected scheme; returns dt.

        Boundary vertices are frozen (far-field Dirichlet).  RK2/RK3 are
        the strong-stability-preserving (Shu–Osher) convex forms.
        """
        q0 = self.q
        # the stages run on component-major rows; self.q stays (nv, 5)
        qt0 = np.ascontiguousarray(q0.T)
        gas = gas_state(qt0)  # shared by the CFL bound and the first stage
        if dt is None:
            dt = self._stable_dt(gas, cfl)
        if self.time_scheme == "euler":
            qt = self._stage(qt0, dt, gas)
        elif self.time_scheme == "rk2":
            q1 = self._stage(qt0, dt, gas)
            qt = 0.5 * qt0 + 0.5 * self._stage(q1, dt)
        else:  # rk3
            q1 = self._stage(qt0, dt, gas)
            q2 = 0.75 * qt0 + 0.25 * self._stage(q1, dt)
            qt = qt0 / 3.0 + (2.0 / 3.0) * self._stage(q2, dt)
        self.q = np.ascontiguousarray(qt.T)
        tracer = current_tracer()
        if tracer is not None and dt > 0:
            dq = (self.q - q0) / dt
            tracer.metric(
                "repro.solver.residual_norm",
                float(np.sqrt(np.mean(dq * dq))),
                kind="histogram",
                scheme=self.time_scheme,
            )
        return dt

    def run(self, n_steps: int, cfl: float = 0.5) -> np.ndarray:
        """Run ``n_steps`` explicit iterations; returns the state."""
        for _ in range(n_steps):
            self.step(cfl=cfl)
        return self.q

    def mach(self) -> np.ndarray:
        """Mach number per vertex (diagnostic)."""
        rho, vel, p = primitive(self.q)
        c = np.sqrt(GAMMA * p / rho)
        return np.linalg.norm(vel, axis=1) / c
