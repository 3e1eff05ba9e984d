"""Adaption statistics and diagnostics.

The edge-based scheme's selling point (paper §3) is *anisotropic*
refinement: "the elements are defined by their six edges rather than by
their four vertices.  This feature makes the mesh adaption procedure
capable of performing anisotropic refinement and coarsening that results
in a more efficient distribution of grid points."  These helpers quantify
that: subdivision-type histograms (1:2 and 1:4 are the anisotropic types)
and marking amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marking import MarkingResult
from .patterns import NUM_CHILDREN, PAT_1TO2, PAT_1TO4, PAT_1TO8, PAT_NONE, classify

__all__ = ["MarkingStats", "marking_stats"]


@dataclass(frozen=True)
class MarkingStats:
    """Summary of one marking fixpoint."""

    n_elements: int
    n_unchanged: int
    n_1to2: int  #: anisotropic bisections
    n_1to4: int  #: anisotropic face subdivisions
    n_1to8: int  #: isotropic subdivisions
    marked_edges: int
    seed_edges: int  #: edges targeted before propagation
    amplification: float  #: marked / seed (>= 1)
    predicted_children: int
    predicted_growth: float


def marking_stats(
    marking: MarkingResult, seed_mask: np.ndarray | None = None
) -> MarkingStats:
    """Classify a marking fixpoint's subdivision types and amplification."""
    kinds = classify(marking.patterns)
    counts = {
        k: int((kinds == k).sum())
        for k in (PAT_NONE, PAT_1TO2, PAT_1TO4, PAT_1TO8)
    }
    marked = int(marking.edge_marked.sum())
    seed = int(np.asarray(seed_mask).sum()) if seed_mask is not None else marked
    children = int(NUM_CHILDREN[marking.patterns].sum())
    n = marking.patterns.shape[0]
    return MarkingStats(
        n_elements=n,
        n_unchanged=counts[PAT_NONE],
        n_1to2=counts[PAT_1TO2],
        n_1to4=counts[PAT_1TO4],
        n_1to8=counts[PAT_1TO8],
        marked_edges=marked,
        seed_edges=seed,
        amplification=marked / seed if seed else 1.0,
        predicted_children=children,
        predicted_growth=children / n if n else 1.0,
    )

