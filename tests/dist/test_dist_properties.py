"""Property-based tests for the distributed-mesh layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import propagate_markings
from repro.dist import decompose, finalize, parallel_mark
from repro.dist.refine_exec import canonical_signature, parallel_refine
from repro.mesh import box_mesh


@st.composite
def mesh_and_partition(draw):
    n = draw(st.integers(1, 3))
    m = box_mesh(n, n, n)
    nproc = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    part = rng.integers(0, nproc, m.ne).astype(np.int64)
    return m, part, nproc, seed


@given(data=mesh_and_partition())
@settings(max_examples=20, deadline=None)
def test_decompose_finalize_roundtrip(data):
    m, part, nproc, _seed = data
    locals_ = decompose(m, part, nproc)
    # element conservation
    assert sum(lm.ne for lm in locals_) == m.ne
    res = finalize(locals_)
    assert res.mesh.ne == m.ne
    assert res.mesh.nv == m.nv
    assert np.allclose(
        canonical_signature(res.mesh), canonical_signature(m)
    )
    assert res.mesh.volumes().sum() == pytest.approx(m.volumes().sum())


@given(data=mesh_and_partition(), frac=st.floats(0.0, 0.6))
@settings(max_examples=15, deadline=None)
def test_parallel_mark_always_matches_serial(data, frac):
    m, part, nproc, seed = data
    locals_ = decompose(m, part, nproc)
    rng = np.random.default_rng(seed + 1)
    marks = rng.random(m.nedges) < frac
    serial = propagate_markings(m, marks)
    par = parallel_mark(m, locals_, marks)
    assert np.array_equal(par.edge_marked, serial.edge_marked)


@given(data=mesh_and_partition(), frac=st.floats(0.05, 0.5))
@settings(max_examples=10, deadline=None)
def test_parallel_refine_always_merges_to_global(data, frac):
    from repro.adapt import subdivide

    m, part, nproc, seed = data
    locals_ = decompose(m, part, nproc)
    rng = np.random.default_rng(seed + 2)
    marking = propagate_markings(m, rng.random(m.nedges) < frac)
    par = parallel_refine(m, locals_, marking)
    glob = subdivide(m, marking)
    assert par.total_children == glob.mesh.ne
    assert np.allclose(par.merged_signature(), canonical_signature(glob.mesh))
