"""The numpy summation orders the component-major solver kernels reproduce.

``solver/euler.py``, ``fluxes.py`` and ``state.py`` compute on ``(3, n)``
and ``(5, n)`` rows what numpy used to compute on C-ordered ``(n, 3)`` /
``(n, 4, 3)`` rows, and they stay bit-identical only because they spell
out the order numpy's reductions took (DESIGN.md §9).  Each fact is pinned
here on 10⁵ random rows spanning twelve decades, so a numpy upgrade that
changes one fails with the fact's name, not as a drifted solver state.
"""

import numpy as np
import pytest

ROWS = 100_000


def _rows(seed, width=3):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 6, size=(ROWS, width))
    return rng.standard_normal((ROWS, width)) * scale


@pytest.fixture
def v():
    return _rows(1)


@pytest.fixture
def n():
    return _rows(2)


def test_einsum_row_dot_sums_components_0_and_2_first(v, n):
    """``fluxes._dot``: ``einsum("ij,ij->i")`` over 3 columns is
    ``(v0·n0 + v2·n2) + v1·n1`` — not the left-to-right sum."""
    got = np.einsum("ij,ij->i", v, n)
    p = v * n
    assert np.array_equal(got, (p[:, 0] + p[:, 2]) + p[:, 1])
    assert not np.array_equal(got, (p[:, 0] + p[:, 1]) + p[:, 2])


def test_norm_of_three_columns_sums_left_to_right(v):
    """``state.gas_state``'s ``|v|`` and the solver's interface areas:
    ``norm(x, axis=1)`` is ``sqrt((x0² + x1²) + x2²)``."""
    sq = v * v
    assert np.array_equal(
        np.linalg.norm(v, axis=1), np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
    )


def test_sum_of_squares_of_three_columns_sums_left_to_right(v):
    """``state._primitive_rows``'s ``|v|²``: ``(v**2).sum(axis=1)`` is
    ``(v0² + v1²) + v2²``."""
    sq = v * v
    assert np.array_equal((v**2).sum(axis=1), (sq[:, 0] + sq[:, 1]) + sq[:, 2])


def test_mean_over_four_corners_sums_left_to_right_then_divides():
    """``euler.edge_normals``' cell centroid: ``p.mean(axis=1)`` over the
    4 corners of ``(ne, 4, 3)`` is ``(((P0 + P1) + P2) + P3) / 4``."""
    p = _rows(3, width=12).reshape(ROWS, 4, 3)
    expect = (((p[:, 0] + p[:, 1]) + p[:, 2]) + p[:, 3]) / 4.0
    assert np.array_equal(p.mean(axis=1), expect)


def test_cross_product_term_order(v, n):
    """``euler.edge_normals``' cross products: ``np.cross`` computes
    ``a1·b2 − a2·b1``, ``a2·b0 − a0·b2`` and ``a0·b1 − a1·b0``."""
    a, b = v.T, n.T
    expect = np.column_stack(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )
    assert np.array_equal(np.cross(v, n), expect)
