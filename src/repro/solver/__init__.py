"""Flow solver substrate: edge-based finite-volume Euler solver, synthetic
rotor flow fields, and the edge error indicator driving mesh adaption."""

from .euler import EulerSolver
from .fields import rotor_acoustics_field
from .indicator import density_indicator, speed_indicator
from .state import conservative, primitive

__all__ = [
    "EulerSolver",
    "conservative",
    "density_indicator",
    "primitive",
    "rotor_acoustics_field",
    "speed_indicator",
]
