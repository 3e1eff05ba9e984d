"""Conservative/primitive conversions and wave speeds."""

import numpy as np
import pytest

from repro.solver.state import GAMMA, conservative, gas_state, primitive


def test_roundtrip():
    rho = np.array([1.0, 2.5])
    vel = np.array([[0.3, -0.1, 0.2], [0.0, 1.0, 0.0]])
    p = np.array([1.0, 3.0])
    q = conservative(rho, vel, p)
    r2, v2, p2 = primitive(q)
    assert np.allclose(r2, rho)
    assert np.allclose(v2, vel)
    assert np.allclose(p2, p)


def test_still_gas_sound_speed():
    q = conservative(np.array([1.0]), np.zeros((1, 3)), np.array([1.0]))
    gas = gas_state(q.T)
    assert gas.c[0] == pytest.approx(np.sqrt(GAMMA))
    assert gas.lam[0] == pytest.approx(np.sqrt(GAMMA))


def test_energy_definition():
    q = conservative(np.array([2.0]), np.array([[3.0, 0, 0]]), np.array([5.0]))
    # E = p/(gamma-1) + rho v^2/2 = 12.5 + 9
    assert q[0, 4] == pytest.approx(5.0 / 0.4 + 0.5 * 2.0 * 9.0)
    assert primitive(q)[2][0] == pytest.approx(5.0)


def test_positivity_enforced():
    with pytest.raises(ValueError):
        conservative(np.array([-1.0]), np.zeros((1, 3)), np.array([1.0]))
    with pytest.raises(ValueError):
        conservative(np.array([1.0]), np.zeros((1, 3)), np.array([0.0]))
