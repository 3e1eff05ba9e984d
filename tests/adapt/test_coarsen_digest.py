"""Every coarsening outcome of a rotor chain, pinned as per-call digests.

The rotor case at resolution 4 is refined three times (mark the top 10 %
of edges by the speed indicator, then subdivide).  Then four coarsen calls
run against it:

* ``partial`` — the edges whose midpoints lie in the lowest 30 % along
  x are targeted;
* ``again`` — the lowest 50 % along y, on what the first call left;
* ``pop`` — every edge targeted, which undoes the whole last level;
* ``beneath`` — the lowest 50 % along z, on the level beneath.

(A random half of the edges undoes nothing: pattern propagation
resurrects every bisection it would undo.)

After every refine and every coarsen call, one 16-hex ``blake2b`` digest
covers the current ``TetMesh``'s arrays (``coords``, ``elems``,
``edges``, ``elem2edge``, ``bnd_faces``, ``dual_pairs``), the vertex
solution, the forest's ``wcomp`` / ``wremap`` / ``root_of_elem``, the
number of levels the adaptor holds and, for a coarsen call, the
``CoarsenReport`` counts.  A failure names the call that moved.

A change to coarsening's outcome regenerates the table with

    PYTHONPATH=src python -m tests.adapt.test_coarsen_digest
"""

from functools import lru_cache

import numpy as np

from repro.adapt import AdaptiveMesh
from repro.mesh import rotor_domain_mesh
from repro.solver import rotor_acoustics_field, speed_indicator

from .test_refine_digest import MESH_ARRAYS, _digest

RESOLUTION = 4
CYCLES = 3

#: call -> (axis, quantile) of the targeted edge midpoints
TARGETS = {"partial": (0, 0.3), "again": (1, 0.5), "pop": (0, 1.0),
           "beneath": (2, 0.5)}

#: call -> digest
PINNED = {
    'refine 0': '0aa7cd8993064fd3',
    'refine 1': '3771d95a06a8cf2e',
    'refine 2': '75f2b16185fbdd5a',
    'partial': '58fd78c9a061c2c4',
    'again': '243b2922cdd8d914',
    'pop': 'd8b49e98510193ee',
    'beneath': 'cc7377a784813474',
}

REPORT_COUNTS = ("changed", "n_targeted_edges", "n_candidates", "n_undone",
                 "elements_removed")


def _state(adaptive: AdaptiveMesh, report=None) -> str:
    arrays = [getattr(adaptive.mesh, name) for name in MESH_ARRAYS]
    arrays += [adaptive.solution, adaptive.wcomp(), adaptive.wremap(),
               adaptive.forest.root_of_elem, np.array([len(adaptive.steps)])]
    if report is not None:
        arrays.append(np.array([int(getattr(report, name))
                                for name in REPORT_COUNTS]))
    return _digest(arrays)


@lru_cache(maxsize=None)
def _computed() -> tuple[dict, dict, dict]:
    """``(digests, reports, levels)``: the digest of every call, and the
    ``CoarsenReport`` counts and the levels left after every coarsen call."""
    mesh, blade = rotor_domain_mesh(resolution=RESOLUTION, grading=2.0)
    adaptive = AdaptiveMesh(mesh, rotor_acoustics_field(mesh.coords, blade))
    digests, reports, levels = {}, {}, {}
    for cycle in range(CYCLES):
        marking = adaptive.mark(
            edge_error=speed_indicator(adaptive.mesh, adaptive.solution),
            refine_frac=0.1,
        )
        adaptive.refine(marking)
        digests[f"refine {cycle}"] = _state(adaptive)
    for call, (axis, q) in TARGETS.items():
        m = adaptive.mesh
        mid = m.coords[m.edges, axis].mean(axis=1)
        mask = mid <= np.quantile(mid, q)
        report = adaptive.coarsen(mask)
        digests[call] = _state(adaptive, report)
        reports[call] = tuple(int(getattr(report, name)) for name in REPORT_COUNTS)
        levels[call] = len(adaptive.steps)
    return digests, reports, levels


def test_every_call_coarsens_something():
    """Each call undoes bisections, so each digest pins a real coarsening
    and ``pop`` drops a whole level."""
    digests, reports, levels = _computed()
    assert all(counts[0] and counts[3] > 0 for counts in reports.values())
    assert levels == {"partial": 3, "again": 3, "pop": 2, "beneath": 2}
    assert len(set(digests.values())) == len(digests)


def test_coarsened_meshes_match_pinned_digests():
    got = _computed()[0]
    assert set(got) == set(PINNED)
    moved = [key for key in PINNED if got[key] != PINNED[key]]
    assert not moved, f"{len(moved)} calls moved, first {moved[0]}"


if __name__ == "__main__":
    digests, reports, _ = _computed()
    print("PINNED = {")
    for key, digest in digests.items():
        print(f"    {key!r}: {digest!r},")
    print("}")
    for key, counts in reports.items():
        print(f"# {key}: {dict(zip(REPORT_COUNTS, counts))}")
