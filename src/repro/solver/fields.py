"""Synthetic flow fields standing in for the rotor-acoustics solution.

The paper's error indicator is computed from an Euler solution around a
UH-1H rotor blade at transonic hover-tip Mach numbers — a flow dominated by
a compact high-gradient region near the blade (the shock system whose
acoustics [23] studies).  These analytic fields reproduce that *structure*:
smooth background flow plus localized steep features tied to the
:class:`~repro.mesh.generate.BladeSpec`, so the fraction-based edge
targeting of Real_1/2/3 selects spatially-correlated regions exactly as a
real solution would.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.generate import BladeSpec

from .state import conservative

__all__ = ["rotor_acoustics_field"]

#: Radius of the acoustic wave front around the blade tip, in blade radii.
WAVE_RADII = 4.0


def rotor_acoustics_field(
    coords: np.ndarray,
    blade: BladeSpec,
    tip_mach: float = 0.9,
) -> np.ndarray:
    """Blade-bound shock layer plus an impulsive acoustic wave front.

    Density and pressure rise steeply inside a thin layer around the blade
    (the transonic shock system) and across a cylindrical wave front of
    radius :data:`WAVE_RADII` blade radii centred on the blade tip (the high-speed
    impulsive noise front of [23]); velocity swirls around the blade axis,
    scaled to ``tip_mach``.
    """
    pts = np.asarray(coords, dtype=np.float64)
    d_blade = blade.distance(pts)
    tip = np.asarray(blade.end)
    r_tip = np.linalg.norm(pts - tip, axis=1)
    wave_radius = WAVE_RADII * blade.radius

    # steep but smooth bumps: widths set by the blade radius
    w = blade.radius
    layer = np.exp(-((d_blade / (1.5 * w)) ** 2))
    front = np.exp(-(((r_tip - wave_radius) / (0.75 * w)) ** 2))

    rho = 1.0 + 0.8 * layer + 0.4 * front
    p = 1.0 + 1.2 * layer + 0.6 * front

    # swirl about the blade axis (unit x of the blade direction)
    axis = np.asarray(blade.end) - np.asarray(blade.start)
    axis = axis / np.linalg.norm(axis)
    rel = pts - np.asarray(blade.start)
    tangential = np.cross(axis, rel)
    norm = np.linalg.norm(tangential, axis=1, keepdims=True)
    tangential = np.divide(
        tangential, norm, out=np.zeros_like(tangential), where=norm > 1e-12
    )
    speed = tip_mach * np.exp(-d_blade / (4.0 * w))
    vel = tangential * speed[:, None]
    return conservative(rho, vel, p)

