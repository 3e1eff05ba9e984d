"""Distinct keys by one sort and a run flag.

numpy 2.x's ``np.unique`` of an integer array (no ``return_*``)
measured 6–12× slower than one sort on 3·10⁴–3·10⁵ keys (DESIGN.md §9),
so hot code that wants the sorted distinct keys, or each key's index
among them, calls these instead.  On NaN-free keys, integer or float,
both return exactly what ``np.unique`` returns (``np.unique`` folds NaNs
into one, these keep every NaN).
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique", "unique_inverse"]


def _run_starts(skeys: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a run of equal keys."""
    first = np.empty(skeys.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(skeys[1:], skeys[:-1], out=first[1:])
    return first


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``: the sorted distinct values, flattened."""
    skeys = np.sort(keys, axis=None)
    return skeys[_run_starts(skeys)]


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of a 1-D ``int64`` array.

    One unstable argsort: equal keys receive equal ids whatever their
    order.  The inverse is written into ``keys``'s buffer through the
    running count of distinct keys, so the caller's keys are consumed.
    """
    order = np.argsort(keys)
    skeys = keys[order]
    first = _run_starts(skeys)
    uniq = skeys[first]
    del skeys
    ids = np.cumsum(first, out=keys)  # reuses the key buffer
    ids -= 1
    inverse = np.empty_like(ids)
    inverse[order] = ids
    return uniq, inverse
