"""Numerical flux functions for the edge-based Euler solver.

The baseline is the Rusanov (local Lax–Friedrichs) flux — maximally robust
and maximally dissipative.  HLLC restores the contact wave and is the
standard choice for production vertex-centered codes; both share the
interface ``flux(qL, qR, n) -> (nedges, 5)`` with ``n`` the directed dual
interface areas.

Each flux is one core over *evaluated*, component-major states — ``(qt,
GasState)`` per side with ``qt`` ``(5, m)``, plus ``n`` ``(3, m)`` and
``‖n‖`` — listed in :data:`FLUXES`; it returns the flux as ``(5, m)``.
The solver calls the core with states it has evaluated once per step; the
public ``flux(qL, qR, n)`` functions take and return ``(m, 5)`` rows,
evaluate their arguments and call the same core through transposed views,
so there is one implementation of each formula.
"""

from __future__ import annotations

import numpy as np

from .state import GasState, gas_state

__all__ = [
    "rusanov_flux",
    "hllc_flux",
    "physical_flux",
    "FLUXES",
]


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


def physical_flux(q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Euler flux of states ``q`` projected on directed areas ``n``."""
    qt = np.asarray(q, dtype=np.float64).T
    return _physical_flux(qt, gas_state(qt), np.asarray(n).T).T


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


def _hllc(
    qL: np.ndarray, qR: np.ndarray, gL: GasState, gR: GasState,
    n: np.ndarray, area: np.ndarray,
) -> np.ndarray:
    safe = np.maximum(area, 1e-300)
    nhat = n / safe

    rhoL, velL, pL, cL, _ = gL
    rhoR, velR, pR, cR, _ = gR
    unL = _dot(velL, nhat)
    unR = _dot(velR, nhat)

    # Einfeldt-style bounds
    sL = np.minimum(unL - cL, unR - cR)
    sR = np.maximum(unL + cL, unR + cR)
    # contact speed
    denom = rhoL * (sL - unL) - rhoR * (sR - unR)
    sM = (pR - pL + rhoL * unL * (sL - unL) - rhoR * unR * (sR - unR)) / np.where(
        np.abs(denom) > 1e-300, denom, 1e-300
    )

    fL = _physical_flux(qL, gL, nhat)
    fR = _physical_flux(qR, gR, nhat)

    def star_state(q, rho, un, p, s, sm):
        """HLLC star-region state (vector over edges)."""
        factor = rho * (s - un) / np.where(np.abs(s - sm) > 1e-300, s - sm, 1e-300)
        qs = np.empty_like(q)
        qs[0] = factor
        vel = q[1:4] / rho
        qs[1:4] = factor * (vel + (sm - un) * nhat)
        e = q[4] / rho
        qs[4] = factor * (
            e + (sm - un) * (sm + p / (rho * np.where(np.abs(s - un) > 1e-300,
                                                      s - un, 1e-300)))
        )
        return qs

    qLs = star_state(qL, rhoL, unL, pL, sL, sM)
    qRs = star_state(qR, rhoR, unR, pR, sR, sM)

    f = np.where(
        sL >= 0,
        fL,
        np.where(
            sM >= 0,
            fL + sL * (qLs - qL),
            np.where(sR >= 0, fR + sR * (qRs - qR), fR),
        ),
    )
    return f * area


#: Registry used by :class:`~repro.solver.euler.EulerSolver`: flux name →
#: core ``(qL, qR, gL, gR, n, area)`` over evaluated component-major states.
FLUXES = {"rusanov": _rusanov, "hllc": _hllc}


def _evaluated(core, qL: np.ndarray, qR: np.ndarray, n: np.ndarray) -> np.ndarray:
    qL = np.asarray(qL, dtype=np.float64).T
    qR = np.asarray(qR, dtype=np.float64).T
    n = np.asarray(n)
    area = np.linalg.norm(n, axis=1)
    return core(qL, qR, gas_state(qL), gas_state(qR), n.T, area).T


def rusanov_flux(qL: np.ndarray, qR: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Local Lax–Friedrichs: central flux plus |λ|max jump dissipation."""
    return _evaluated(_rusanov, qL, qR, n)


def hllc_flux(qL: np.ndarray, qR: np.ndarray, n: np.ndarray) -> np.ndarray:
    """HLLC approximate Riemann solver (Toro), per edge.

    Wave speeds from the Einfeldt/Roe-average estimates; the contact wave
    is resolved explicitly, which makes the scheme markedly less
    dissipative than Rusanov on contact/shear-dominated flows.
    """
    return _evaluated(_hllc, qL, qR, n)

