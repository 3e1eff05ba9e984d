"""The flow solver's output along ``rotor_multistep``'s chain, pinned as
digests.

The rotor case at resolution 12 (``benchmarks/e2e``'s ``rotor_multistep``
mesh) and its first two refinements — each cycle runs ``EulerSolver`` for
five steps at CFL 0.4, then marks the top 8 % of edges by the speed
indicator and subdivides.  Every solved mesh gets one 16-hex ``blake2b``
digest each of ``EulerSolver.normals``, of ``q`` after the five steps, of
``residual()`` and of ``stable_dt()`` at that state.  The tier-1 solver
oracles run on meshes of at most a few thousand tets; these hold the
kernels bit-identical on graded meshes of 20 736 → 87 323 tets, where a
blocked kernel runs many blocks.  A failure names the quantity and the
cycle that moved.

A change meant to move the solver's output regenerates the table with

    PYTHONPATH=src python -m tests.solver.test_solver_digest
"""

import hashlib
from functools import lru_cache

import numpy as np

from repro.adapt import AdaptiveMesh
from repro.mesh import rotor_domain_mesh
from repro.solver import EulerSolver, rotor_acoustics_field, speed_indicator

RESOLUTION = 12
CYCLES = 3
REFINE_FRAC = 0.08

#: (quantity, cycle) -> digest
PINNED = {
    ('normals', 0): '455bf897cfa776c3',
    ('q', 0): 'eb05720f0628a78c',
    ('residual', 0): 'cd0ed3f145b6cf1f',
    ('stable_dt', 0): 'fbd67129fa73f2a2',
    ('normals', 1): 'f3e4e6dc596e5c46',
    ('q', 1): '0c968f444ee7bc96',
    ('residual', 1): 'd97acce1f4c49dc2',
    ('stable_dt', 1): '17e171f0a3a869f5',
    ('normals', 2): '3f48b696abba181b',
    ('q', 2): '68468394a6996cca',
    ('residual', 2): '25644fd84d077000',
    ('stable_dt', 2): 'd6507e487dbb9a4a',
}

#: elements of the solved mesh per cycle
SIZES = (20736, 40815, 87323)


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


@lru_cache(maxsize=None)
def _computed():
    mesh, blade = rotor_domain_mesh(resolution=RESOLUTION, grading=2.0)
    adaptive = AdaptiveMesh(
        mesh, rotor_acoustics_field(mesh.coords, blade, tip_mach=0.9)
    )
    digests, sizes = {}, []
    for cycle in range(CYCLES):
        cur = adaptive.mesh
        sizes.append(cur.ne)
        flow = EulerSolver(cur, adaptive.solution)
        digests["normals", cycle] = _digest(flow.normals)
        flow.run(5, cfl=0.4)
        digests["q", cycle] = _digest(flow.q)
        digests["residual", cycle] = _digest(flow.residual())
        digests["stable_dt", cycle] = _digest(np.float64(flow.stable_dt()))
        adaptive.solution = flow.q
        if cycle < CYCLES - 1:
            error = speed_indicator(cur, flow.q)
            adaptive.refine(adaptive.mark(edge_error=error,
                                          refine_frac=REFINE_FRAC))
    return digests, tuple(sizes)


def test_solver_output_matches_pinned_digests():
    got, sizes = _computed()
    assert sizes == SIZES
    assert set(got) == set(PINNED)
    moved = [key for key in sorted(PINNED, key=lambda k: (k[1], k[0]))
             if got[key] != PINNED[key]]
    assert not moved, f"{len(moved)} digests moved, first {moved[0]}"


if __name__ == "__main__":
    print("PINNED = {")
    for key, digest in sorted(_computed()[0].items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"    {key!r}: {digest!r},")
    print("}")
