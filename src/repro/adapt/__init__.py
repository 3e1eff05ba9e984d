"""3D_TAG-style tetrahedral mesh adaption (paper §3).

Edge-based marking with pattern-upgrade propagation, vectorized 1:2 / 1:4 /
1:8 subdivision, refinement forests carrying the dual-graph weights, and
constraint-checked coarsening.
"""

from .adaptor import AdaptiveMesh
from .coarsen import CoarsenReport, peel_last_level
from .marking import (
    MarkingResult,
    target_elements_by_fraction,
    element_patterns,
    propagate_markings,
    target_by_fraction,
)
from .patterns import (
    NUM_CHILDREN,
    UPGRADE,
    is_valid,
    pattern_bits,
)
from .refine import RefineResult, subdivide
from .strategies import mark_sphere
from .tree import RefinementForest

__all__ = [
    "AdaptiveMesh",
    "CoarsenReport",
    "MarkingResult",
    "NUM_CHILDREN",
    "RefineResult",
    "RefinementForest",
    "UPGRADE",
    "element_patterns",
    "is_valid",
    "mark_sphere",
    "pattern_bits",
    "peel_last_level",
    "propagate_markings",
    "subdivide",
    "target_by_fraction",
    "target_elements_by_fraction",
]
