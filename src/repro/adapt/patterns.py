"""Edge-marking patterns and the subdivision-type upgrade table (paper §3).

Each tetrahedron combines the marked/unmarked state of its six edges into a
6-bit pattern.  Only three subdivision types are allowed:

* **1:2** — exactly one edge marked (anisotropic bisection),
* **1:4** — the three edges of one face marked,
* **1:8** — all six edges marked (isotropic subdivision).

Any other nonzero pattern is *invalid* and must be upgraded to the smallest
valid superset: a multi-edge pattern contained in a single face becomes that
face's 1:4 pattern; anything else becomes 1:8.  (Two distinct edges lie in
at most one common face, so the 1:4 upgrade target is unique.)  Upgrading
marks additional edges, which propagates to the neighbours sharing them —
the iterative loop in :mod:`repro.adapt.marking`.

Because upgraded patterns give every face 0, 1, or 3 marked edges — never
2 — adjacent elements always triangulate their shared face identically, so
the refined mesh is conforming.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.topology import FACE_EDGE_MASKS

__all__ = [
    "PAT_NONE",
    "PAT_1TO2",
    "PAT_1TO4",
    "PAT_1TO8",
    "UPGRADE",
    "NUM_CHILDREN",
    "classify",
    "pattern_bits",
    "is_valid",
]

PAT_NONE = 0
PAT_1TO2 = 1
PAT_1TO4 = 2
PAT_1TO8 = 3

_FULL = 0b111111


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    upgrade = np.zeros(64, dtype=np.int64)
    kind = np.zeros(64, dtype=np.int64)
    nchildren = np.zeros(64, dtype=np.int64)
    face_masks = [int(m) for m in FACE_EDGE_MASKS]
    for p in range(64):
        pop = bin(p).count("1")
        if p == 0:
            up = 0
        elif pop == 1:
            up = p
        else:
            containing = [m for m in face_masks if p & ~m == 0]
            up = containing[0] if containing else _FULL
        upgrade[p] = up
        pop_up = bin(up).count("1")
        if up == 0:
            kind[p], nchildren[p] = PAT_NONE, 1
        elif pop_up == 1:
            kind[p], nchildren[p] = PAT_1TO2, 2
        elif up in face_masks:
            kind[p], nchildren[p] = PAT_1TO4, 4
        else:
            assert up == _FULL
            kind[p], nchildren[p] = PAT_1TO8, 8
    return upgrade, kind, nchildren


#: pattern -> smallest valid superset pattern; pattern -> subdivision kind
#: of its upgrade; pattern -> number of children its upgrade produces (1, 2,
#: 4, or 8).
UPGRADE, PATTERN_KIND, NUM_CHILDREN = _build_tables()


def pattern_bits(patterns: np.ndarray) -> np.ndarray:
    """Expand patterns ``(n,)`` to a boolean ``(n, 6)`` local-edge mask."""
    patterns = np.asarray(patterns, dtype=np.int64)
    return (patterns[:, None] >> np.arange(6)) & 1 != 0


def is_valid(patterns: np.ndarray) -> np.ndarray:
    """True where a pattern is one of the three allowed types (or empty)."""
    patterns = np.asarray(patterns, dtype=np.int64)
    return UPGRADE[patterns] == patterns


def classify(patterns: np.ndarray) -> np.ndarray:
    """Subdivision kind (PAT_*) each pattern upgrades to."""
    return PATTERN_KIND[np.asarray(patterns, dtype=np.int64)]

