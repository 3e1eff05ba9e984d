"""Flow state: conservative variables and the ideal-gas EOS.

The state vector per vertex is ``[rho, rho*u, rho*v, rho*w, E]`` with
``E = p/(gamma-1) + rho*|v|^2/2`` and ``gamma = 1.4`` (air).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["GasState", "conservative", "gas_state", "primitive"]

GAMMA = 1.4


def conservative(rho: np.ndarray, vel: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Build ``(n, 5)`` conservative states from density, velocity, pressure."""
    rho = np.asarray(rho, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64).reshape(rho.shape[0], 3)
    p = np.asarray(p, dtype=np.float64)
    if np.any(rho <= 0) or np.any(p <= 0):
        raise ValueError("density and pressure must be positive")
    q = np.empty((rho.shape[0], 5))
    q[:, 0] = rho
    q[:, 1:4] = rho[:, None] * vel
    q[:, 4] = p / (GAMMA - 1.0) + 0.5 * rho * (vel**2).sum(axis=1)
    return q


def _primitive_rows(
    qt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rho, velocity, |v|², pressure) of component-major states ``qt``
    ``(5, n)``; the velocity is ``(3, n)``.  ``|v|²`` is summed as
    ``(v0² + v1²) + v2²``, the order of ``(vel**2).sum(axis=1)`` over an
    ``(n, 3)`` row (DESIGN.md §9)."""
    rho = qt[0]
    vel = qt[1:4] / rho
    vsq = (vel[0] * vel[0] + vel[1] * vel[1]) + vel[2] * vel[2]
    p = (GAMMA - 1.0) * (qt[4] - 0.5 * rho * vsq)
    return rho, vel, vsq, p


def primitive(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split conservative states into (rho, velocity, pressure)."""
    rho, vel, _vsq, p = _primitive_rows(np.asarray(q, dtype=np.float64).T)
    return rho, np.ascontiguousarray(vel.T), p


class GasState(NamedTuple):
    """Everything the fluxes and the CFL bound read from a state array,
    evaluated once per row by :func:`gas_state`."""

    rho: np.ndarray  #: ``(n,)`` density
    vel: np.ndarray  #: ``(3, n)`` velocity, one contiguous row per component
    p: np.ndarray  #: ``(n,)`` pressure
    c: np.ndarray  #: ``(n,)`` sound speed
    lam: np.ndarray  #: ``(n,)`` |v| + c, the Rusanov dissipation speed

    def take(self, rows: np.ndarray) -> "GasState":
        """The state at ``rows``.  Every field is a row-wise function of
        ``q``, so gathering the evaluated fields equals — bit for bit —
        evaluating the gathered states.  ``take`` along the last axis keeps
        each component a contiguous row (``field[..., rows]`` would not)."""
        return GasState(*(field.take(rows, axis=-1) for field in self))


def gas_state(qt: np.ndarray) -> GasState:
    """Evaluate (rho, velocity, pressure, c, |v|+c) once for the
    component-major states ``qt`` ``(5, n)`` (``q.T`` of ``(n, 5)`` states).

    ``|v|`` is ``sqrt(|v|²)``, the arithmetic of ``np.linalg.norm(vel,
    axis=1)`` over ``(n, 3)`` rows (DESIGN.md §9)."""
    rho, vel, vsq, p = _primitive_rows(qt)
    c = np.sqrt(GAMMA * np.maximum(p, 1e-300) / rho)
    return GasState(rho, vel, p, c, np.sqrt(vsq) + c)

