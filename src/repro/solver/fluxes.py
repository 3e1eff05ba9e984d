"""The Rusanov (local Lax–Friedrichs) flux of the edge-based Euler solver.

One core over *evaluated*, component-major states — ``(qt, GasState)``
per side with ``qt`` ``(5, m)``, plus the directed dual interface areas
``n`` ``(3, m)`` and ``‖n‖`` — returning the flux as ``(5, m)``.  The
solver calls it with states it has evaluated once per step.
"""

from __future__ import annotations

import numpy as np

from .state import GasState


def _dot(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row-wise ``v · n`` of ``(3, m)`` rows, summed as ``(v0·n0 + v2·n2) +
    v1·n1`` — the order of ``np.einsum("ij,ij->i")`` over C-ordered
    ``(m, 3)`` rows (DESIGN.md §9)."""
    return (v[0] * n[0] + v[2] * n[2]) + v[1] * n[1]


def _physical_flux(q: np.ndarray, g: GasState, n: np.ndarray) -> np.ndarray:
    """Euler flux of ``q`` (gas state ``g``) projected on ``n``."""
    vn = _dot(g.vel, n)
    f = np.empty_like(q)
    np.multiply(g.rho, vn, out=f[0])
    mom = f[1:4]
    np.multiply(g.rho, g.vel, out=mom)
    mom *= vn
    mom += g.p * n
    np.multiply(q[4] + g.p, vn, out=f[4])
    return f


def _rusanov(
    qL: np.ndarray, qR: np.ndarray, gL: GasState, gR: GasState,
    n: np.ndarray, area: np.ndarray,
) -> np.ndarray:
    f = _physical_flux(qL, gL, n)
    f += _physical_flux(qR, gR, n)
    f *= 0.5
    half_speed = np.maximum(gL.lam, gR.lam)
    half_speed *= area
    half_speed *= 0.5
    jump = qR - qL
    jump *= half_speed
    f -= jump
    return f
