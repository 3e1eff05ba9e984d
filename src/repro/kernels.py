"""Switch between optimized and reference kernel implementations.

Several hot paths (FM refinement, heavy-edge matching, the VM mailbox,
child-element assembly, solver scatter-adds) ship two implementations:
an optimized one that runs, and the straightforward *reference* one it
must match bit-for-bit, kept as the oracle the equivalence tests
(``tests/kernels/``, the scheduler and mailbox parity tests) compare
against.

The reference path is selected only by the :func:`reference_kernels`
context manager, which restores the previous state on exit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["reference_enabled", "reference_kernels", "scatter_add_rows"]

_REFERENCE = False


def reference_enabled() -> bool:
    """True when the reference (unoptimized) kernels should run."""
    return _REFERENCE


@contextmanager
def reference_kernels(enabled: bool = True):
    """Force reference (or optimized, with ``enabled=False``) kernels."""
    global _REFERENCE
    prev = _REFERENCE
    _REFERENCE = bool(enabled)
    try:
        yield
    finally:
        _REFERENCE = prev


def scatter_add_rows(
    index: np.ndarray, values: np.ndarray, nrows: int
) -> np.ndarray:
    """Row-wise scatter-add: ``out[index[i]] += values[i]`` from zeros.

    Equivalent to ``np.add.at`` on a zero array, but implemented as one
    ``np.bincount`` pass per trailing column.  Both accumulate strictly in
    input order, so the float additions happen in the same sequence and
    the results are bit-identical — while bincount runs at C speed where
    ``add.at``'s buffered inner loop does not.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] == 0:  # reshape(0, -1) cannot infer the -1
        return np.zeros((nrows,) + values.shape[1:], dtype=np.float64)
    out = np.empty((nrows,) + values.shape[1:], dtype=np.float64)
    flat = values.reshape(values.shape[0], -1)
    oflat = out.reshape(nrows, -1)
    for c in range(flat.shape[1]):
        oflat[:, c] = np.bincount(index, weights=flat[:, c], minlength=nrows)
    return out
