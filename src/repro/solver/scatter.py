"""Scatter-add, the solver's one accumulation kernel."""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_add_components", "scatter_add_rows"]


def scatter_add_components(
    index: np.ndarray, values: np.ndarray, nrows: int
) -> np.ndarray:
    """Component-major scatter-add: ``out[:, index[i]] += values[:, i]``
    from zeros, for ``values`` ``(k, n)``; returns ``(k, nrows)``.

    Equivalent to numpy's unbuffered ``add.at`` on a zero array (the
    oracle in ``tests/kernels/oracles.py``), but implemented as one
    ``np.bincount`` pass per component row.  Both accumulate strictly in
    input order, so the float additions happen in the same sequence and
    the results are bit-identical — while bincount runs at C speed where
    ``add.at``'s inner loop does not.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((values.shape[0], nrows), dtype=np.float64)
    for row, weights in zip(out, values):
        row[:] = np.bincount(index, weights=weights, minlength=nrows)
    return out


def scatter_add_rows(
    index: np.ndarray, values: np.ndarray, nrows: int
) -> np.ndarray:
    """Row-wise scatter-add: ``out[index[i]] += values[i]`` from zeros,
    for ``values`` ``(n, ...)``; :func:`scatter_add_components` over the
    trailing columns."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] == 0:  # reshape(0, -1) cannot infer the -1
        return np.zeros((nrows,) + values.shape[1:], dtype=np.float64)
    flat = values.reshape(values.shape[0], -1)
    out = scatter_add_components(index, flat.T, nrows)
    return np.ascontiguousarray(out.T).reshape((nrows,) + values.shape[1:])
