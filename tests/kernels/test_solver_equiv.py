"""Optimized solver kernels must match the straightforward ones bit-for-bit.

Three oracles: the ``np.add.at`` accumulation behind ``reference_kernels()``;
the AoS kernels of ``oracles.py`` — edge normals, gas state and the Rusanov
core on ``(n, 3)`` / ``(n, 5)`` rows, before they moved to component-major
``(3, n)`` / ``(5, n)`` rows — driven by :class:`AosSolver`; and — below —
the flux and CFL formulas as they were before the gas state was evaluated
once per state array: every flux call re-deriving ``primitive()`` from
edge-sized states, ``‖n‖`` recomputed per call.
"""

import numpy as np
import pytest

from repro.mesh import rotor_domain_mesh
from repro.mesh.generate import box_mesh
from repro.solver import rotor_acoustics_field
from repro.solver.euler import EulerSolver, dual_volumes, edge_normals
from repro.solver.fluxes import _physical_flux, _rusanov
from repro.solver.state import GAMMA, gas_state, primitive

from .oracles import (
    edge_normals_aos,
    gas_state_aos,
    reference_kernels,
    rusanov_aos,
    scatter_add_rows_reference,
)


def _state(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            1.0 + 0.1 * rng.uniform(size=mesh.nv),
            0.2 * rng.standard_normal((mesh.nv, 3)),
            2.5 + 0.2 * rng.uniform(size=mesh.nv),
        ]
    )


def test_geometry_kernels_bit_identical():
    mesh = box_mesh(4, 3, 2)
    with reference_kernels():
        vol_ref = dual_volumes(mesh)
        n_ref = edge_normals(mesh)
    assert np.array_equal(dual_volumes(mesh), vol_ref)
    assert np.array_equal(edge_normals(mesh), n_ref)
    assert np.array_equal(edge_normals(mesh), edge_normals_aos(mesh))


def test_solver_run_bit_identical():
    _check_run_bit_identical(box_mesh(3, 3, 3))


def _check_run_bit_identical(mesh):
    q0 = _state(mesh)
    opt = EulerSolver(mesh, q0.copy())
    opt.run(3)
    with reference_kernels():
        ref = EulerSolver(mesh, q0.copy())
        ref.run(3)
    assert np.array_equal(opt.vol, ref.vol)
    assert np.array_equal(opt.normals, ref.normals)
    assert np.array_equal(opt.q, ref.q)
    dt_opt, r_opt = opt.stable_dt(), opt.residual()
    with reference_kernels():
        dt_ref, r_ref = ref.stable_dt(), ref.residual()
    assert dt_opt == dt_ref
    assert np.array_equal(r_opt, r_ref)

    # ... the solver on the AoS kernels, and the one whose every flux call
    # starts again from primitive()
    for oracle in (AosSolver, StraightforwardSolver):
        plain = oracle(mesh, q0.copy())
        plain.run(3)
        assert np.array_equal(opt.q, plain.q)
        assert opt.stable_dt() == plain.stable_dt()
        assert np.array_equal(opt.residual(), plain.residual())


def test_rotor_solver_bit_identical_to_the_aos_kernels():
    """The component-major kernels reorder no float operation on real,
    graded geometry either: normals, state after 5 steps, residual, dt."""
    mesh, blade = rotor_domain_mesh(resolution=4, grading=2.0)
    q0 = rotor_acoustics_field(mesh.coords, blade, tip_mach=0.9)
    opt = EulerSolver(mesh, q0)
    assert np.array_equal(opt.normals, edge_normals_aos(mesh))
    opt.run(5, cfl=0.4)
    for oracle in (AosSolver, StraightforwardSolver):
        ref = oracle(mesh, q0)
        ref.run(5, cfl=0.4)
        assert np.array_equal(opt.q, ref.q)
        assert np.array_equal(opt.residual(), ref.residual())
        assert opt.stable_dt() == ref.stable_dt()


class AosSolver(EulerSolver):
    """``EulerSolver`` on the AoS kernels: normals from
    :func:`edge_normals_aos`, gas state and fluxes on ``(n, 5)`` rows."""

    def __post_init__(self):
        super().__post_init__()
        self.normals = edge_normals_aos(self.mesh)
        self._area = np.linalg.norm(self.normals, axis=1)

    def _residual(self, qt, gas=None):
        # the stages hand over component-major states; back to AoS rows
        q = np.ascontiguousarray(qt.T)
        e = self.mesh.edges
        gas = gas_state_aos(q)
        qL, qR = q[e[:, 0]], q[e[:, 1]]
        gL, gR = gas.take(e[:, 0]), gas.take(e[:, 1])
        f = rusanov_aos(qL, qR, gL, gR, self.normals, self._area)
        res = scatter_add_rows_reference(
            e.T.ravel(), np.concatenate([-f, f]), q.shape[0]
        )
        return res.T

    def _stable_dt(self, gas, cfl):
        e = self.mesh.edges
        lam = gas_state_aos(self.q).lam
        flow = np.maximum(lam[e[:, 0]], lam[e[:, 1]]) * self._area
        speed_sum = scatter_add_rows_reference(
            e.T.ravel(), np.tile(flow, 2), self.mesh.nv
        )
        with np.errstate(divide="ignore"):
            dt = self.vol / np.maximum(speed_sum, 1e-300)
        return cfl * float(dt.min())


# --- the formulas before the gas state was evaluated once ----------------------


def oracle_max_wave_speed(q):
    _rho, vel, _p = primitive(q)
    rho, _vel, p = primitive(q)
    return np.linalg.norm(vel, axis=1) + np.sqrt(GAMMA * np.maximum(p, 1e-300) / rho)


def oracle_physical_flux(q, n):
    rho, vel, p = primitive(q)
    vn = np.einsum("ij,ij->i", vel, n)
    f = np.empty_like(q)
    f[:, 0] = rho * vn
    f[:, 1:4] = rho[:, None] * vel * vn[:, None] + p[:, None] * n
    f[:, 4] = (q[:, 4] + p) * vn
    return f


def oracle_rusanov_flux(qL, qR, n):
    area = np.linalg.norm(n, axis=1)
    lam = np.maximum(oracle_max_wave_speed(qL), oracle_max_wave_speed(qR))
    f = 0.5 * (oracle_physical_flux(qL, n) + oracle_physical_flux(qR, n))
    f -= 0.5 * (lam * area)[:, None] * (qR - qL)
    return f


class StraightforwardSolver(EulerSolver):
    """``EulerSolver`` with the residual and CFL bound it had before: edge
    states gathered first, then handed to a flux that evaluates them itself."""

    def _residual(self, qt, gas=None):
        # the stages hand over component-major states; back to AoS rows
        q = np.ascontiguousarray(qt.T)
        e = self.mesh.edges
        # C-ordered (nedges, 3) rows, as the normals were: einsum's summation
        # order over a row depends on the layout (DESIGN.md §9)
        f = oracle_rusanov_flux(
            q[e[:, 0]], q[e[:, 1]], np.ascontiguousarray(self.normals)
        )
        res = np.zeros_like(q)
        np.subtract.at(res, e[:, 0], f)
        np.add.at(res, e[:, 1], f)
        return res.T

    def _stable_dt(self, gas, cfl):
        e = self.mesh.edges
        area = np.linalg.norm(np.ascontiguousarray(self.normals), axis=1)
        lam = np.maximum(
            oracle_max_wave_speed(self.q[e[:, 0]]),
            oracle_max_wave_speed(self.q[e[:, 1]]),
        )
        speed_sum = np.zeros(self.mesh.nv)
        np.add.at(speed_sum, e[:, 0], lam * area)
        np.add.at(speed_sum, e[:, 1], lam * area)
        with np.errstate(divide="ignore"):
            dt = self.vol / np.maximum(speed_sum, 1e-300)
        return cfl * float(dt.min())


def _edge_inputs(seed):
    """Random left/right states and directed areas, one zero-area edge."""
    rng = np.random.default_rng(seed)
    n = 257
    qL, qR = (
        np.column_stack(
            [
                0.5 + rng.uniform(size=n),
                0.6 * rng.standard_normal((n, 3)),
                2.0 + rng.uniform(size=n),
            ]
        )
        for _ in range(2)
    )
    normals = rng.standard_normal((n, 3))
    normals[0] = 0.0
    return qL, qR, normals


def _core(qL, qR, n):
    """``_rusanov`` of ``(m, 5)`` states and ``(m, 3)`` areas, as ``(m, 5)``:
    evaluated on component-major rows, the way the solver calls it."""
    qLt, qRt = np.ascontiguousarray(qL.T), np.ascontiguousarray(qR.T)
    area = np.linalg.norm(n, axis=1)
    return _rusanov(
        qLt, qRt, gas_state(qLt), gas_state(qRt), np.ascontiguousarray(n.T), area
    ).T


@pytest.mark.parametrize("seed", [0, 1])
def test_flux_core_matches_the_formulas_it_replaced(seed):
    qL, qR, n = _edge_inputs(seed)
    assert np.array_equal(_core(qL, qR, n), oracle_rusanov_flux(qL, qR, n))
    qt = np.ascontiguousarray(qL.T)
    gas = gas_state(qt)
    nt = np.ascontiguousarray(n.T)
    assert np.array_equal(_physical_flux(qt, gas, nt).T, oracle_physical_flux(qL, n))
    assert np.array_equal(gas.lam, oracle_max_wave_speed(qL))
    _rho, _vel, p = primitive(qL)
    assert np.array_equal(gas.c, np.sqrt(GAMMA * np.maximum(p, 1e-300) / qL[:, 0]))


def test_solver_edge_flux_equals_the_flux_of_gathered_states():
    """Gas state at the vertices, gathered to the edges == gas state of the
    gathered edge states: a gather commutes with row-wise arithmetic."""
    mesh = box_mesh(4, 3, 3)
    solver = EulerSolver(mesh, _state(mesh, seed=5))
    q, lo, hi = solver.q, solver._lo, solver._hi
    assert np.array_equal(np.column_stack([lo, hi]), mesh.edges)
    qt = np.ascontiguousarray(q.T)
    gas = gas_state(qt)
    internal = _rusanov(
        qt[:, lo], qt[:, hi], gas.take(lo), gas.take(hi), solver._nt, solver._area
    )
    assert np.array_equal(_core(q[lo], q[hi], solver.normals), internal.T)
    for evaluated, gathered in zip(gas_state(qt[:, lo]), gas.take(lo)):
        assert np.array_equal(evaluated, gathered)


@pytest.mark.parametrize("seed", [0, 1])
def test_flux_cores_match_the_aos_cores(seed):
    """The component-major core equals its AoS original, on contiguous
    rows (the solver) and on transposed views."""
    qL, qR, n = _edge_inputs(seed)
    area = np.linalg.norm(n, axis=1)
    gL, gR = gas_state_aos(qL), gas_state_aos(qR)
    expect = rusanov_aos(qL, qR, gL, gR, n, area)
    for rows in (np.ascontiguousarray, np.asarray):
        qLt, qRt, nt = rows(qL.T), rows(qR.T), rows(n.T)
        gLt, gRt = gas_state(qLt), gas_state(qRt)
        for field, aos in zip(gLt, gL):
            assert np.array_equal(field, aos.T)
        assert np.array_equal(_rusanov(qLt, qRt, gLt, gRt, nt, area).T, expect)
