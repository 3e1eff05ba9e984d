"""The pattern/upgrade tables encode exactly the paper's three subdivision
types and the smallest-valid-superset upgrade rule."""

import numpy as np
import pytest

from repro.adapt import (
    NUM_CHILDREN,
    UPGRADE,
    is_valid,
    pattern_bits,
)
from repro.mesh.topology import FACE_EDGE_MASKS, FACE_EDGES


def popcount(x):
    return bin(x).count("1")


def test_valid_patterns_enumerated():
    valid = [p for p in range(64) if is_valid(np.array([p]))[0]]
    # empty + 6 single-edge + 4 face + full
    assert len(valid) == 12
    assert 0 in valid and 63 in valid
    assert sum(1 for p in valid if popcount(p) == 1) == 6
    assert sorted(p for p in valid if popcount(p) == 3) == sorted(
        int(m) for m in FACE_EDGE_MASKS
    )


def test_upgrade_is_superset_and_idempotent():
    for p in range(64):
        up = int(UPGRADE[p])
        assert up & p == p, f"upgrade must keep marked edges ({p} -> {up})"
        assert int(UPGRADE[up]) == up, "upgrade must be idempotent"


def test_upgrade_is_minimal():
    """No valid pattern strictly between p and upgrade(p)."""
    valid = {p for p in range(64) if int(UPGRADE[p]) == p}
    for p in range(64):
        up = int(UPGRADE[p])
        for q in valid:
            if q & p == p and popcount(q) < popcount(up):
                pytest.fail(f"pattern {p:06b}: {q:06b} smaller than {up:06b}")


def test_upgraded_faces_never_have_two_marked_edges():
    """The conformity argument: every face of a valid pattern has 0, 1, or 3
    marked edges — never 2 — so shared faces triangulate consistently."""
    for p in range(64):
        up = int(UPGRADE[p])
        for f in range(4):
            k = sum(1 for e in FACE_EDGES[f] if up >> int(e) & 1)
            assert k in (0, 1, 3), f"pattern {p:06b} -> {up:06b}, face {f}: {k}"


def test_classification_and_child_counts():
    # the child count names the subdivision type: 1 unchanged, 2 for 1:2,
    # 4 for 1:4, 8 for 1:8
    assert NUM_CHILDREN[0] == 1
    assert NUM_CHILDREN[1 << 3] == NUM_CHILDREN[1 << 4] == 2
    assert NUM_CHILDREN[int(FACE_EDGE_MASKS[2])] == 4
    assert NUM_CHILDREN[int(FACE_EDGE_MASKS[0])] == 4
    assert NUM_CHILDREN[63] == 8
    # invalid patterns count the children of their upgrade
    assert NUM_CHILDREN[0b000011] == 4  # edges 01,02 -> face
    assert NUM_CHILDREN[0b100001] == 8  # opposite edges


def test_two_edges_lie_in_at_most_one_face():
    """Uniqueness of the 1:4 upgrade target."""
    for e1 in range(6):
        for e2 in range(e1 + 1, 6):
            p = (1 << e1) | (1 << e2)
            faces = [f for f in range(4) if p & ~int(FACE_EDGE_MASKS[f]) == 0]
            assert len(faces) <= 1


def test_pattern_bits_roundtrip():
    pats = np.arange(64)
    bits = pattern_bits(pats)
    back = (bits * (1 << np.arange(6))).sum(axis=1)
    assert np.array_equal(back, pats)


def test_upgrade_vector_matches_scalar():
    pats = np.arange(64)
    up = UPGRADE[pats]
    assert np.array_equal(up, UPGRADE[pats])
