"""Optimized solver kernels must match the straightforward ones bit-for-bit.

Three oracles: the ``np.add.at`` accumulation behind ``reference_kernels()``;
the AoS kernels of ``oracles.py`` — edge normals, gas state and flux cores
on ``(n, 3)`` / ``(n, 5)`` rows, before they moved to component-major
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
from repro.solver.fluxes import FLUXES, hllc_flux, physical_flux, rusanov_flux
from repro.solver.periodic import box_periodic_pairs
from repro.solver.reconstruct import (
    limit_barth_jespersen,
    lsq_gradients,
    muscl_edge_states,
)
from repro.solver.state import GAMMA, gas_state, max_wave_speed, primitive, sound_speed

from .oracles import (
    AOS_FLUXES,
    edge_normals_aos,
    gas_state_aos,
    reference_kernels,
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


def test_lsq_gradients_bit_identical():
    mesh = box_mesh(3, 3, 3)
    q = _state(mesh, seed=3)
    with reference_kernels():
        ref = lsq_gradients(mesh, q)
    assert np.array_equal(lsq_gradients(mesh, q), ref)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("flux", ["rusanov", "hllc"])
def test_solver_run_bit_identical(order, flux):
    mesh = box_mesh(3, 3, 3)
    pairs = box_periodic_pairs(mesh, axis=0)
    for time_scheme in ("euler", "rk2", "rk3"):
        for periodic_pairs in (None, pairs):
            _check_run_bit_identical(
                mesh, order=order, flux=flux, time_scheme=time_scheme,
                periodic_pairs=periodic_pairs,
            )


def _check_run_bit_identical(mesh, **options):
    q0 = _state(mesh)
    opt = EulerSolver(mesh, q0.copy(), **options)
    opt.run(3)
    with reference_kernels():
        ref = EulerSolver(mesh, q0.copy(), **options)
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
        plain = oracle(mesh, q0.copy(), **options)
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
        assert opt.stable_dt(0.4) == ref.stable_dt(0.4)


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
        if self.order == 2:
            grads = lsq_gradients(self.mesh, q)
            psi = limit_barth_jespersen(self.mesh, q, grads)
            qL, qR = muscl_edge_states(self.mesh, q, grads, psi)
            gL, gR = gas_state_aos(qL), gas_state_aos(qR)
        else:
            gas = gas_state_aos(q)
            qL, qR = q[e[:, 0]], q[e[:, 1]]
            gL, gR = gas.take(e[:, 0]), gas.take(e[:, 1])
        f = AOS_FLUXES[self.flux](qL, qR, gL, gR, self.normals, self._area)
        res = scatter_add_rows_reference(
            e.T.ravel(), np.concatenate([-f, f]), q.shape[0]
        )
        if self.periodic_pairs is not None:
            a, b = self.periodic_pairs[:, 0], self.periodic_pairs[:, 1]
            combined = res[a] + res[b]
            res[a] = combined
            res[b] = combined
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


def oracle_hllc_flux(qL, qR, n):
    area = np.linalg.norm(n, axis=1)
    nhat = n / np.maximum(area, 1e-300)[:, None]
    rhoL, velL, pL = primitive(qL)
    rhoR, velR, pR = primitive(qR)
    unL = np.einsum("ij,ij->i", velL, nhat)
    unR = np.einsum("ij,ij->i", velR, nhat)
    cL = np.sqrt(GAMMA * np.maximum(pL, 1e-300) / rhoL)
    cR = np.sqrt(GAMMA * np.maximum(pR, 1e-300) / rhoR)
    sL = np.minimum(unL - cL, unR - cR)
    sR = np.maximum(unL + cL, unR + cR)
    denom = rhoL * (sL - unL) - rhoR * (sR - unR)
    sM = (pR - pL + rhoL * unL * (sL - unL) - rhoR * unR * (sR - unR)) / np.where(
        np.abs(denom) > 1e-300, denom, 1e-300
    )
    fL = oracle_physical_flux(qL, nhat)
    fR = oracle_physical_flux(qR, nhat)

    def star_state(q, rho, un, p, s, sm):
        factor = rho * (s - un) / np.where(np.abs(s - sm) > 1e-300, s - sm, 1e-300)
        qs = np.empty_like(q)
        qs[:, 0] = factor
        vel = q[:, 1:4] / rho[:, None]
        qs[:, 1:4] = factor[:, None] * (vel + (sm - un)[:, None] * nhat)
        e = q[:, 4] / rho
        guard = np.where(np.abs(s - un) > 1e-300, s - un, 1e-300)
        qs[:, 4] = factor * (e + (sm - un) * (sm + p / (rho * guard)))
        return qs

    qLs = star_state(qL, rhoL, unL, pL, sL, sM)
    qRs = star_state(qR, rhoR, unR, pR, sR, sM)
    f = np.where(
        (sL >= 0)[:, None],
        fL,
        np.where(
            (sM >= 0)[:, None],
            fL + sL[:, None] * (qLs - qL),
            np.where((sR >= 0)[:, None], fR + sR[:, None] * (qRs - qR), fR),
        ),
    )
    return f * area[:, None]


ORACLE_FLUXES = {"rusanov": oracle_rusanov_flux, "hllc": oracle_hllc_flux}


class StraightforwardSolver(EulerSolver):
    """``EulerSolver`` with the residual and CFL bound it had before: edge
    states gathered first, then handed to a flux that evaluates them itself."""

    def _residual(self, qt, gas=None):
        # the stages hand over component-major states; back to AoS rows
        q = np.ascontiguousarray(qt.T)
        e = self.mesh.edges
        if self.order == 2:
            grads = lsq_gradients(self.mesh, q)
            psi = limit_barth_jespersen(self.mesh, q, grads)
            qL, qR = muscl_edge_states(self.mesh, q, grads, psi)
        else:
            qL, qR = q[e[:, 0]], q[e[:, 1]]
        # C-ordered (nedges, 3) rows, as the normals were: einsum's summation
        # order over a row depends on the layout (DESIGN.md §9)
        f = ORACLE_FLUXES[self.flux](qL, qR, np.ascontiguousarray(self.normals))
        res = np.zeros_like(q)
        np.subtract.at(res, e[:, 0], f)
        np.add.at(res, e[:, 1], f)
        if self.periodic_pairs is not None:
            a, b = self.periodic_pairs[:, 0], self.periodic_pairs[:, 1]
            combined = res[a] + res[b]
            res[a] = combined
            res[b] = combined
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


@pytest.mark.parametrize("seed", [0, 1])
def test_public_fluxes_match_the_formulas_they_replaced(seed):
    qL, qR, n = _edge_inputs(seed)
    assert np.array_equal(rusanov_flux(qL, qR, n), oracle_rusanov_flux(qL, qR, n))
    assert np.array_equal(hllc_flux(qL, qR, n), oracle_hllc_flux(qL, qR, n))
    assert np.array_equal(physical_flux(qL, n), oracle_physical_flux(qL, n))
    assert np.array_equal(max_wave_speed(qL), oracle_max_wave_speed(qL))
    _rho, _vel, p = primitive(qL)
    assert np.array_equal(
        sound_speed(qL), np.sqrt(GAMMA * np.maximum(p, 1e-300) / qL[:, 0])
    )


@pytest.mark.parametrize("flux, public", [("rusanov", rusanov_flux), ("hllc", hllc_flux)])
def test_public_flux_equals_the_solvers_edge_flux(flux, public):
    """Gas state at the vertices, gathered to the edges == gas state of the
    gathered edge states: a gather commutes with row-wise arithmetic."""
    mesh = box_mesh(4, 3, 3)
    solver = EulerSolver(mesh, _state(mesh, seed=5), flux=flux)
    q, lo, hi = solver.q, solver._lo, solver._hi
    assert np.array_equal(np.column_stack([lo, hi]), mesh.edges)
    qt = np.ascontiguousarray(q.T)
    gas = gas_state(qt)
    internal = solver._edge_flux(
        qt[:, lo], qt[:, hi], gas.take(lo), gas.take(hi), solver._nt, solver._area
    )
    assert np.array_equal(public(q[lo], q[hi], solver.normals), internal.T)
    for evaluated, gathered in zip(gas_state(qt[:, lo]), gas.take(lo)):
        assert np.array_equal(evaluated, gathered)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("flux", sorted(FLUXES))
def test_flux_cores_match_the_aos_cores(seed, flux):
    """Each component-major core equals its AoS original, on contiguous
    rows (the solver) and on transposed views (the public wrappers)."""
    qL, qR, n = _edge_inputs(seed)
    area = np.linalg.norm(n, axis=1)
    gL, gR = gas_state_aos(qL), gas_state_aos(qR)
    expect = AOS_FLUXES[flux](qL, qR, gL, gR, n, area)
    for rows in (np.ascontiguousarray, np.asarray):
        qLt, qRt, nt = rows(qL.T), rows(qR.T), rows(n.T)
        gLt, gRt = gas_state(qLt), gas_state(qRt)
        for field, aos in zip(gLt, gL):
            assert np.array_equal(field, aos.T)
        assert np.array_equal(FLUXES[flux](qLt, qRt, gLt, gRt, nt, area).T, expect)
