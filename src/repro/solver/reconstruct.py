"""Piecewise-linear solution reconstruction (paper §2).

"Improved accuracy is achieved by using a piecewise linear reconstruction
of the solution in each control volume."  This module implements the
standard vertex-centered recipe:

* per-vertex gradients by weighted least squares over the edge-connected
  neighbours (the edge-based data structure makes the normal equations a
  single pass over edges);
* MUSCL extrapolation of each edge's left/right states to the edge
  midpoint, guarded by a Barth–Jespersen-style limiter that keeps the
  reconstructed values inside the local min/max of the vertex
  neighbourhood (positivity-preserving in practice).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.tetmesh import TetMesh

from .scatter import scatter_add_rows

__all__ = ["lsq_gradients", "limit_barth_jespersen", "muscl_edge_states"]


def lsq_gradients(mesh: TetMesh, q: np.ndarray) -> np.ndarray:
    """Least-squares gradient of each solution component at each vertex.

    Solves, per vertex i, ``min_g Σ_j w_ij (g·(x_j−x_i) − (q_j−q_i))²``
    over edge neighbours j with inverse-distance weights.  Returns
    ``(nv, ncomp, 3)``.
    """
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if q.shape[0] != mesh.nv:
        raise ValueError(f"q must have {mesh.nv} rows, got {q.shape[0]}")
    e = mesh.edges
    d = mesh.coords[e[:, 1]] - mesh.coords[e[:, 0]]  # (ne, 3)
    dist2 = (d**2).sum(axis=1)
    w = 1.0 / np.maximum(dist2, 1e-300)  # inverse-distance-squared weights

    # normal-equation matrices A (nv, 3, 3) and right sides b (nv, ncomp, 3)
    outer = w[:, None, None] * d[:, :, None] * d[:, None, :]
    dq = q[e[:, 1]] - q[e[:, 0]]  # (ne, ncomp)
    rhs = w[:, None, None] * dq[:, :, None] * d[:, None, :]  # (ne, ncomp, 3)
    idx = e.T.ravel()  # all lower endpoints, then all upper
    A = scatter_add_rows(idx, np.concatenate([outer, outer]), mesh.nv)
    b = scatter_add_rows(idx, np.concatenate([rhs, rhs]), mesh.nv)

    # regularise rank-deficient stencils (isolated/boundary corners)
    A += 1e-12 * np.eye(3)
    grads = np.linalg.solve(A[:, None], b[..., None])[..., 0]
    return grads


def limit_barth_jespersen(
    mesh: TetMesh, q: np.ndarray, grads: np.ndarray
) -> np.ndarray:
    """Per-vertex limiter ψ ∈ [0, 1] keeping midpoint extrapolations within
    the neighbourhood's min/max envelope.  Returns ``(nv, ncomp)``."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    e = mesh.edges
    qmin = q.copy()
    qmax = q.copy()
    np.minimum.at(qmin, e[:, 0], q[e[:, 1]])
    np.minimum.at(qmin, e[:, 1], q[e[:, 0]])
    np.maximum.at(qmax, e[:, 0], q[e[:, 1]])
    np.maximum.at(qmax, e[:, 1], q[e[:, 0]])

    psi = np.ones_like(q)
    half = 0.5 * (mesh.coords[e[:, 1]] - mesh.coords[e[:, 0]])  # to midpoint
    for side, sign in ((0, 1.0), (1, -1.0)):
        v = e[:, side]
        dq = sign * np.einsum("ecx,ex->ec", grads[v], half)  # (ne, ncomp)
        room = np.where(dq > 0, qmax[v] - q[v], qmin[v] - q[v])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.abs(dq) > 1e-300, room / dq, 1.0)
        np.minimum.at(psi, v, np.clip(ratio, 0.0, 1.0))
    return psi


def muscl_edge_states(
    mesh: TetMesh, q: np.ndarray, grads: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Limited left/right states at each edge midpoint: ``(qL, qR)``."""
    e = mesh.edges
    half = 0.5 * (mesh.coords[e[:, 1]] - mesh.coords[e[:, 0]])
    dL = np.einsum("ecx,ex->ec", grads[e[:, 0]], half)
    dR = np.einsum("ecx,ex->ec", grads[e[:, 1]], -half)
    qL = q[e[:, 0]] + psi[e[:, 0]] * dL
    qR = q[e[:, 1]] + psi[e[:, 1]] * dR
    return qL, qR
