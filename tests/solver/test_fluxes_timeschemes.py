"""The Rusanov flux core, on component-major edge states, and the solver it drives."""

import numpy as np
import pytest

from repro.mesh import box_mesh
from repro.solver import EulerSolver
from repro.solver.fluxes import _physical_flux, _rusanov
from repro.solver.state import conservative, gas_state

from tests.fixtures import uniform_flow


def _edge_setup(n_edges, seed=0):
    rng = np.random.default_rng(seed)
    rho = 0.5 + rng.random(n_edges)
    vel = rng.normal(scale=0.3, size=(n_edges, 3))
    p = 0.5 + rng.random(n_edges)
    q = conservative(rho, vel, p)
    n = rng.normal(size=(n_edges, 3))
    return q, n


def _flux(qL, qR, n):
    """``_rusanov`` of ``(m, 5)`` states and ``(m, 3)`` areas, as ``(m, 5)``."""
    qLt, qRt = np.ascontiguousarray(qL.T), np.ascontiguousarray(qR.T)
    area = np.linalg.norm(n, axis=1)
    return _rusanov(qLt, qRt, gas_state(qLt), gas_state(qRt),
                    np.ascontiguousarray(n.T), area).T


class TestFluxFunctions:
    def test_consistency_equal_states(self):
        """F(q, q, n) must reduce to the physical flux."""
        q, n = _edge_setup(50)
        qt = np.ascontiguousarray(q.T)
        phys = _physical_flux(qt, gas_state(qt), np.ascontiguousarray(n.T)).T
        assert np.allclose(_flux(q, q, n), phys, atol=1e-12)

    def test_rotational_invariance_of_rusanov(self):
        """Scaling the interface area scales the flux linearly."""
        q, n = _edge_setup(20, seed=1)
        qL, qR = q, np.roll(q, 1, axis=0)
        assert np.allclose(_flux(qL, qR, 2.0 * n), 2.0 * _flux(qL, qR, n))


class TestTimeSchemes:
    # The solver's one flux and one time scheme.
    @pytest.mark.parametrize("flux, scheme", [("rusanov", "euler")])
    def test_uniform_flow_steady(self, flux, scheme):
        m = box_mesh(2, 2, 2)
        s = EulerSolver(m, uniform_flow(m.coords, vel=(0.4, -0.1, 0.2)))
        q0 = s.q.copy()
        s.run(3)
        assert np.allclose(s.q, q0, atol=1e-10)
