"""Every array a refined mesh keeps, pinned as per-cycle digests.

The rotor case at resolution 4 goes through three adapt cycles (mark the
top 10 % of edges by the speed indicator, then subdivide).  Each cycle
gets one 16-hex ``blake2b`` digest of the refined ``TetMesh``'s arrays
(``coords``, ``elems``, ``edges``, ``elem2edge``, ``bnd_faces`` and
``dual_pairs``), the ``RefineResult``'s provenance (``parent``,
``child_count``, ``midpoint_of``, ``edge_children``, ``edge_survivor``)
and its ``canonical_signature``.  A second digest per cycle covers the
local meshes ``parallel_refine`` makes of the same marking at P = 4 on a
slab partition, whose boundaries include the cut faces.  A failure names
the cycle that moved.

A change to the refined meshes regenerates the table with

    PYTHONPATH=src python -m tests.adapt.test_refine_digest
"""

import hashlib
from functools import lru_cache

import numpy as np

from repro.adapt import AdaptiveMesh
from repro.dist import decompose
from repro.dist.refine_exec import canonical_signature, parallel_refine
from repro.mesh import rotor_domain_mesh
from repro.solver import rotor_acoustics_field, speed_indicator

RESOLUTION = 4
CYCLES = 3
NPROC = 4

#: ("global" | "local", cycle) -> digest
PINNED = {
    ('global', 0): '50633f9f5aab5a91',
    ('global', 1): 'ac159a59433c2a28',
    ('global', 2): 'ab7f471bc2297b4c',
    ('local', 0): '7405a6332dc8d452',
    ('local', 1): 'a670fb237d7087bb',
    ('local', 2): '806f25f04a148a70',
}

MESH_ARRAYS = ("coords", "elems", "edges", "elem2edge", "bnd_faces", "dual_pairs")
PROVENANCE = ("parent", "child_count", "midpoint_of", "edge_children",
              "edge_survivor")


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        h.update(b"|")
    return h.hexdigest()


def _mesh_arrays(mesh):
    return [getattr(mesh, name) for name in MESH_ARRAYS] + [
        canonical_signature(mesh)
    ]


def _slabs(mesh, nproc: int) -> np.ndarray:
    """Equal-count slabs of elements along x: a partition that no
    partitioner change can move."""
    order = np.argsort(mesh.coords[mesh.elems, 0].mean(axis=1), kind="stable")
    part = np.empty(mesh.ne, dtype=np.int64)
    part[order] = np.arange(mesh.ne) * nproc // mesh.ne
    return part


@lru_cache(maxsize=None)
def _computed():
    mesh, blade = rotor_domain_mesh(resolution=RESOLUTION, grading=2.0)
    adaptive = AdaptiveMesh(mesh, rotor_acoustics_field(mesh.coords, blade))
    digests = {}
    for cycle in range(CYCLES):
        cur = adaptive.mesh
        marking = adaptive.mark(
            edge_error=speed_indicator(cur, adaptive.solution), refine_frac=0.1
        )
        par = parallel_refine(cur, decompose(cur, _slabs(cur, NPROC), NPROC),
                              marking)
        res = adaptive.refine(marking)
        digests["global", cycle] = _digest(
            _mesh_arrays(res.mesh) + [getattr(res, name) for name in PROVENANCE]
        )
        digests["local", cycle] = _digest(
            [a for m in par.local_meshes for a in _mesh_arrays(m)]
        )
    return digests


def test_refined_meshes_match_pinned_digests():
    got = _computed()
    assert set(got) == set(PINNED)
    moved = [key for key in sorted(PINNED) if got[key] != PINNED[key]]
    assert not moved, f"{len(moved)} rows moved, first {moved[0]}"


if __name__ == "__main__":
    print("PINNED = {")
    for key, digest in sorted(_computed().items()):
        print(f"    {key!r}: {digest!r},")
    print("}")
