"""Similarity matrix construction (paper §4.3).

Entry ``S[i, j]`` is the sum of the ``Wremap`` of all dual-graph vertices
in *new* partition ``j`` that currently reside on processor ``i``.  In the
paper each processor computes its own row from its subdomain; a host
gathers the rows (P×F integers each — "a minuscule amount of time"),
solves the reassignment, and scatters the answer.  We build the matrix with
one vectorized histogram; :func:`repro.core.phases.price_gather_scatter`
prices the gather and scatter on the virtual machine.
"""

from __future__ import annotations

import numpy as np

__all__ = ["similarity_matrix"]


def similarity_matrix(
    old_part: np.ndarray,
    new_part: np.ndarray,
    wremap: np.ndarray,
    nproc: int,
    npart: int | None = None,
) -> np.ndarray:
    """Build the (nproc, npart) similarity matrix.

    ``npart`` defaults to ``nproc`` (F = 1); with F > 1 pass
    ``npart = F * nproc``.
    """
    old_part = np.asarray(old_part, dtype=np.int64)
    new_part = np.asarray(new_part, dtype=np.int64)
    wremap = np.asarray(wremap, dtype=np.int64)
    if not (old_part.shape == new_part.shape == wremap.shape):
        raise ValueError("old_part, new_part, wremap must align")
    if npart is None:
        npart = nproc
    if npart % nproc != 0:
        raise ValueError(
            f"number of partitions ({npart}) must be a multiple of the "
            f"number of processors ({nproc})"
        )
    if old_part.size:
        if old_part.min() < 0 or old_part.max() >= nproc:
            raise ValueError("old_part labels out of range")
        if new_part.min() < 0 or new_part.max() >= npart:
            raise ValueError("new_part labels out of range")
    S = np.zeros((nproc, npart), dtype=np.int64)
    np.add.at(S, (old_part, new_part), wremap)
    return S

