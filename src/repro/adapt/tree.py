"""Refinement forest: one tree per initial-mesh element (paper §4.1).

The dual graph's two weights come from these trees: ``Wcomp`` is the number
of *leaves* in an initial element's refinement tree (only leaves participate
in the flow computation) and ``Wremap`` is the *total* number of tree nodes
(all descendants move with the root when the element is remapped).

The forest records one *level* per refinement step.  The newest level can be
popped (see :mod:`repro.adapt.coarsen`), which is how the reverse-order
coarsening constraint — "edges must be coarsened in an order that is
reversed from the one by which they were refined" — is realised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .patterns import NUM_CHILDREN

__all__ = ["RefinementForest"]


@dataclass
class _Level:
    child_count: np.ndarray  # (ne_prev,)
    root_before: np.ndarray  # (ne_prev,) root-of-element before this level


@dataclass
class RefinementForest:
    """Per-initial-element refinement trees, maintained incrementally."""

    n_roots: int
    root_of_elem: np.ndarray = field(init=False)
    n_leaves: np.ndarray = field(init=False)
    n_nodes: np.ndarray = field(init=False)
    levels: list[_Level] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.root_of_elem = np.arange(self.n_roots, dtype=np.int64)
        self.n_leaves = np.ones(self.n_roots, dtype=np.int64)
        self.n_nodes = np.ones(self.n_roots, dtype=np.int64)

    # --- updates ---------------------------------------------------------------

    def record_refinement(self, child_count: np.ndarray) -> None:
        """Append one refinement level (a ``RefineResult``'s
        ``child_count``: children are numbered parent-major)."""
        child_count = np.asarray(child_count, dtype=np.int64)
        if child_count.shape != self.root_of_elem.shape:
            raise ValueError(
                f"child_count has shape {child_count.shape}, expected "
                f"{self.root_of_elem.shape}"
            )
        self.levels.append(
            _Level(child_count=child_count, root_before=self.root_of_elem)
        )
        dl, dn = self._deltas(self.root_of_elem, child_count)
        self.n_leaves += dl
        self.n_nodes += dn
        self.root_of_elem = np.repeat(self.root_of_elem, child_count)

    def pop_level(self) -> None:
        """Undo the most recent refinement level's bookkeeping."""
        if not self.levels:
            raise IndexError("forest has no refinement levels to pop")
        lvl = self.levels.pop()
        dl, dn = self._deltas(lvl.root_before, lvl.child_count)
        self.n_leaves -= dl
        self.n_nodes -= dn
        self.root_of_elem = lvl.root_before

    def _deltas(
        self, root_before: np.ndarray, child_count: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-root (leaf, node) count changes of one refinement level.

        A leaf with k > 1 children stops being a leaf (+k leaves, -1) and
        the k children are new tree nodes (+k nodes); k == 1 changes nothing.
        """
        refined = child_count > 1
        dl = np.bincount(
            root_before[refined],
            weights=(child_count[refined] - 1).astype(np.float64),
            minlength=self.n_roots,
        ).astype(np.int64)
        dn = np.bincount(
            root_before[refined],
            weights=child_count[refined].astype(np.float64),
            minlength=self.n_roots,
        ).astype(np.int64)
        return dl, dn

    # --- weights (paper §4.1) -------------------------------------------------

    def wcomp(self) -> np.ndarray:
        """Computational weight per initial element: leaves of its tree."""
        return self.n_leaves.copy()

    def wremap(self) -> np.ndarray:
        """Remapping weight per initial element: total nodes of its tree."""
        return self.n_nodes.copy()

    def predicted_weights(self, patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights *as if* the current marking had already been subdivided.

        This is the key §4.6 step: after the marking phase the refinement
        patterns are known, so the dual-graph weights can be adjusted before
        any data is moved or any element actually created.
        """
        patterns = np.asarray(patterns, dtype=np.int64)
        if patterns.shape != self.root_of_elem.shape:
            raise ValueError(
                f"patterns shape {patterns.shape} != current element count "
                f"{self.root_of_elem.shape}"
            )
        k = NUM_CHILDREN[patterns]
        wcomp = np.bincount(
            self.root_of_elem, weights=k.astype(np.float64), minlength=self.n_roots
        ).astype(np.int64)
        dn = np.where(k > 1, k, 0)
        wremap = self.n_nodes + np.bincount(
            self.root_of_elem, weights=dn.astype(np.float64), minlength=self.n_roots
        ).astype(np.int64)
        return wcomp, wremap
