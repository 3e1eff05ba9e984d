"""Flow state: conservative variables and the ideal-gas EOS.

The state vector per vertex is ``[rho, rho*u, rho*v, rho*w, E]`` with
``E = p/(gamma-1) + rho*|v|^2/2`` and ``gamma = 1.4`` (air).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "GAMMA",
    "GasState",
    "conservative",
    "gas_state",
    "primitive",
    "pressure",
    "sound_speed",
    "max_wave_speed",
]

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


def primitive(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split conservative states into (rho, velocity, pressure)."""
    q = np.asarray(q, dtype=np.float64)
    rho = q[:, 0]
    vel = q[:, 1:4] / rho[:, None]
    p = (GAMMA - 1.0) * (q[:, 4] - 0.5 * rho * (vel**2).sum(axis=1))
    return rho, vel, p


class GasState(NamedTuple):
    """Everything the fluxes and the CFL bound read from a state array,
    evaluated once per row by :func:`gas_state`."""

    rho: np.ndarray  #: ``(n,)`` density
    vel: np.ndarray  #: ``(n, 3)`` velocity
    p: np.ndarray  #: ``(n,)`` pressure
    c: np.ndarray  #: ``(n,)`` sound speed
    lam: np.ndarray  #: ``(n,)`` |v| + c, the Rusanov dissipation speed

    def take(self, rows: np.ndarray) -> "GasState":
        """The state at ``rows``.  Every field is a row-wise function of
        ``q``, so gathering the evaluated fields equals — bit for bit —
        evaluating the gathered ``q[rows]``."""
        return GasState(*(field[rows] for field in self))


def gas_state(q: np.ndarray) -> GasState:
    """Evaluate (rho, velocity, pressure, c, |v|+c) once for states ``q``."""
    rho, vel, p = primitive(q)
    c = np.sqrt(GAMMA * np.maximum(p, 1e-300) / rho)
    return GasState(rho, vel, p, c, np.linalg.norm(vel, axis=1) + c)


def pressure(q: np.ndarray) -> np.ndarray:
    return primitive(q)[2]


def sound_speed(q: np.ndarray) -> np.ndarray:
    return gas_state(q).c


def max_wave_speed(q: np.ndarray) -> np.ndarray:
    """|v| + c per state — the Rusanov dissipation speed."""
    return gas_state(q).lam
