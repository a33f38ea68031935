import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from chve import constitutive as law
from chve import krylov, transport
from chve.errors import SolverError
from chve.grid import (GridSpec, ModelParams, PreconditionError, ScalarField,
                       StaggeredVectorField, TensorField, determinant)
from chve.operators import (advect_tensor, laplacian_matrix, velocity_derivatives,
                            velocity_gradient)
from chve.transport import TransportSystem
from chve.verification import det_transport_deviation, interior_vortex

from test_cahn_hilliard import _CountedMatrix


def _step(system, F, v, phi, dt):
    """One transport step as a first Picard sweep takes it: the level of
    (F, f(phi), dt), the advection of F, then the step from its cold start."""
    level = system.prepare(F, law.stiffness_f(phi.values, system.params), dt)
    F_new, _, _ = system.step(level, velocity_derivatives(v), advect_tensor(v, F.comps))
    return F_new


def test_uniform_state_is_exact_fixed_point(grid16):
    params = ModelParams(lam=0.05)
    phi = ScalarField.uniform(grid16, 0.3)
    F0 = TensorField(grid16, np.tile(np.array([[1.1, 0.2], [-0.1, 0.9]]),
                                     (16, 16, 1, 1)))
    v = StaggeredVectorField.zeros(grid16)
    F1 = _step(TransportSystem(grid16, params, laplacian_matrix(grid16)), F0, v, phi, 0.05)
    assert np.max(np.abs(F1.comps - F0.comps)) <= 1e-12


def test_rejects_nonpositive_dt(grid16, params):
    F = TensorField.identity(grid16)
    v = StaggeredVectorField.zeros(grid16)
    phi = ScalarField.uniform(grid16, 1.0)
    with pytest.raises(PreconditionError):
        TransportSystem(grid16, params, laplacian_matrix(grid16)).prepare(
            F, law.stiffness_f(phi.values, params), dt=0.0)


def test_diffusion_decay_matches_backward_euler_symbol():
    """v = 0, uniform stiffness (f = 1 at the upper clamp), single cosine
    perturbation: each step must damp the mode by 1/(1 + lam k^2 dt)."""
    n = 256
    grid = GridSpec(n, 4)
    params = ModelParams(lam=0.1)
    lam, dt = params.lam, 0.1
    X, _ = grid.cell_centers()
    k = np.pi / grid.lx
    mode = np.cos(k * X)
    comps = np.zeros((n, 4, 2, 2))
    comps[:, :, 0, 0] = 1.0 + 1e-3 * mode
    comps[:, :, 1, 1] = 1.0
    F = TensorField(grid, comps)
    phi = ScalarField.uniform(grid, 1.0)
    v = StaggeredVectorField.zeros(grid)
    system = TransportSystem(grid, params, laplacian_matrix(grid))

    def amplitude(field):
        dev = field.comps[:, :, 0, 0] - 1.0
        return float(np.sum(dev * mode) / np.sum(mode * mode))

    expected = 1.0 / (1.0 + lam * 1.0 * k ** 2 * dt)
    a0 = amplitude(F)
    for _ in range(3):
        F1 = _step(system, F, v, phi, dt)
        ratio = amplitude(F1) / amplitude(F)
        assert ratio == pytest.approx(expected, rel=1e-3)
        F = F1
    assert amplitude(F) == pytest.approx(a0 * expected ** 3, rel=3e-3)


def test_stretching_matches_matrix_exponential(grid16, monkeypatch):
    """lam = 0, constant skew velocity gradient imposed at operator level:
    N explicit steps give (I + dt W)^N F0, first-order close to expm(tW)."""
    params = ModelParams(lam=0.0)
    W = np.array([[0.0, 0.8], [-0.8, 0.0]])
    entries = tuple(np.full((16, 16), W[i, j]) for i in (0, 1) for j in (0, 1))
    monkeypatch.setattr(transport, "velocity_gradient_entries", lambda v: entries)
    v = StaggeredVectorField.zeros(grid16)
    phi = ScalarField.uniform(grid16, 1.0)
    t_end = 0.5
    system = TransportSystem(grid16, params, laplacian_matrix(grid16))
    errs = []
    for dt in (0.01, 0.005):
        F = TensorField.identity(grid16)
        for _ in range(int(round(t_end / dt))):
            F = _step(system, F, v, phi, dt)
        ref = expm(t_end * W)
        errs.append(np.max(np.abs(F.comps - ref)))
    assert 1.7 <= errs[0] / errs[1] <= 2.3  # first order in dt


def test_lambda_zero_step_is_explicit(grid16, rng, monkeypatch):
    """At lam = 0 the step goes through the same CG, which returns at its
    first residual test with no preconditioner call: its start f dt rhs is
    the solution, and F_new = dt (F_n/dt - adv + stretch) to a few ulp."""
    runs = []
    real_pcg = krylov.pcg

    def recorded_pcg(A, b, x0, *, M, **kwargs):
        calls = []
        x, info, r0 = real_pcg(A, b, x0, M=lambda r: calls.append(1) or M(r), **kwargs)
        runs.append((info, len(calls)))
        return x, info, r0

    monkeypatch.setattr(krylov, "pcg", recorded_pcg)
    params = ModelParams(lam=0.0)
    phi = ScalarField(grid16, rng.uniform(-1.5, 1.5, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.3 * rng.standard_normal((16, 16, 2, 2)))
    v = interior_vortex(grid16, target_max=0.5)
    dt = 1e-2
    out = _step(TransportSystem(grid16, params, laplacian_matrix(grid16)), F, v, phi, dt)
    assert runs == [(0, 0)]
    ref = dt * (F.comps / dt - advect_tensor(v, F.comps)
                + velocity_gradient(velocity_derivatives(v)) @ F.comps)
    assert np.max(np.abs(out.comps - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(24, 40, 2.0, 1.3)],
                         ids=["16x16", "24x40"])
def test_entrywise_stretch_equals_matrix_product(grid, rng):
    """With adv = F_n/dt the right-hand side b that step returns is the
    stretch alone, which must equal velocity_gradient(v) @ F_n."""
    nx, ny = grid.nx, grid.ny
    u = np.zeros((nx + 1, ny))
    w = np.zeros((nx, ny + 1))
    u[1:-1, :] = rng.standard_normal((nx - 1, ny))
    w[:, 1:-1] = rng.standard_normal((nx, ny - 1))
    v = StaggeredVectorField(grid, u, w)
    F = TensorField(grid, rng.standard_normal((nx, ny, 2, 2)))
    phi = ScalarField(grid, rng.uniform(-1.0, 1.0, (nx, ny)))
    system = TransportSystem(grid, ModelParams(lam=1e-2), laplacian_matrix(grid))
    level = system.prepare(F, law.stiffness_f(phi.values, system.params), 1e-3)
    dv = velocity_derivatives(v)
    _, (_, b), _ = system.step(level, dv, level.F_dt.copy())
    ref = velocity_gradient(dv) @ F.comps
    err = np.max(np.abs(b.reshape(ref.shape) - ref))
    assert err <= 4e-16 * np.max(np.abs(ref))


def test_step_linear_in_F(grid16, rng):
    params = ModelParams(lam=1e-2)
    phi = ScalarField(grid16, 0.2 * rng.standard_normal((16, 16)))
    v = interior_vortex(grid16, target_max=0.5)
    A = TensorField(grid16, rng.standard_normal((16, 16, 2, 2)))
    B = TensorField(grid16, rng.standard_normal((16, 16, 2, 2)))
    a, b = 1.7, -0.4
    system = TransportSystem(grid16, params, laplacian_matrix(grid16))
    combo = _step(system, TensorField(grid16, a * A.comps + b * B.comps),
                  v, phi, 0.01)
    parts = (a * _step(system, A, v, phi, 0.01).comps
             + b * _step(system, B, v, phi, 0.01).comps)
    assert np.max(np.abs(combo.comps - parts)) <= 1e-12


@pytest.mark.parametrize("ratio, offdiag", [
    *(pytest.param(r, 1.0, id=str(r)) for r in (1e-3, 0.4, 160.0)),
    *(pytest.param(r, 1e-6, id=f"{r}-offdiag1e-06") for r in (1e-3, 0.4, 160.0)),
])
def test_step_matches_direct_sparse_solve(ratio, offdiag):
    """Across the regimes of lam dt / h^2, with f spanning [f_min, 1], the
    step equals a direct solve of (I/dt - lam L diag(f)) F_new = rhs.

    All components go through one CG whose stopping test sees only the
    global norm, so with the off-diagonal components scaled down by
    ``offdiag`` each component is also checked against its own norm."""
    n, dt = 32, 1e-3
    grid = GridSpec(n, n)
    params = ModelParams(lam=ratio * grid.hx ** 2 / dt)
    X, _ = grid.cell_centers()
    phi = ScalarField(grid, np.tanh((X - 0.5 * grid.lx) / 0.05))
    v = interior_vortex(grid, target_max=0.5)
    comps = np.random.default_rng(7).standard_normal((n, n, 2, 2))
    comps[:, :, 0, 1] *= offdiag
    comps[:, :, 1, 0] *= offdiag
    F = TensorField(grid, comps)

    out = _step(TransportSystem(grid, params, laplacian_matrix(grid)), F, v, phi, dt)

    f = law.stiffness_f(phi.values, params)
    assert f.min() < 1.01 * params.f_min and f.max() > 0.99
    rhs = (F.comps / dt - advect_tensor(v, F.comps)
           + np.einsum("xyik,xykj->xyij", velocity_gradient(velocity_derivatives(v)),
                       F.comps))
    M = sp.eye(n * n) / dt - params.lam * (laplacian_matrix(grid) @ sp.diags(f.ravel()))
    ref = spla.spsolve(M.tocsc(), rhs.reshape(n * n, 4)).reshape(n, n, 2, 2)
    assert np.linalg.norm(out.comps - ref) <= 1e-10 * np.linalg.norm(ref)
    for a in range(2):
        for b in range(2):
            err = np.linalg.norm(out.comps[:, :, a, b] - ref[:, :, a, b])
            assert err <= 1e-10 * np.linalg.norm(ref[:, :, a, b]), (a, b)


def test_lam_L_products_of_a_cold_and_a_warm_step(monkeypatch):
    """A step whose CG iterates applies lam L for the CG's start residual,
    once per iteration and once more for the residual check in F.  A warm
    step whose CG returns at its first test (a later Picard sweep at an
    unchanged velocity) applies it once: the check takes the norm of the
    residual that CG formed, which equals the residual in F to rounding."""
    runs = []
    real_pcg = krylov.pcg

    def recorded_pcg(A, b, x0, *, M, **kwargs):
        calls = []
        x, info, r0 = real_pcg(A, b, x0, M=lambda r: calls.append(1) or M(r), **kwargs)
        runs.append((info, len(calls), r0))
        return x, info, r0

    monkeypatch.setattr(krylov, "pcg", recorded_pcg)
    n, dt = 32, 1e-3
    grid = GridSpec(n, n)
    params = ModelParams(lam=0.4 * grid.hx ** 2 / dt)
    X, _ = grid.cell_centers()
    phi = ScalarField(grid, np.tanh((X - 0.5 * grid.lx) / 0.05))
    F = TensorField(grid, np.eye(2) + 0.3 * np.random.default_rng(7).standard_normal(
        (n, n, 2, 2)))
    v = interior_vortex(grid, target_max=0.5)
    system = TransportSystem(grid, params, laplacian_matrix(grid))
    products = []
    system._lamL = _CountedMatrix(system._lamL, products)
    level = system.prepare(F, law.stiffness_f(phi.values, params), dt)
    dv, adv = velocity_derivatives(v), advect_tensor(v, F.comps)

    F_cold, solved, _ = system.step(level, dv, adv)
    [(info, iters, r0)] = runs
    assert info == 0 and iters >= 2 and r0 is None
    assert len(products) == iters + 2

    runs.clear()
    products.clear()
    F_warm, (G, b), _ = system.step(level, dv, adv, start=solved)
    [(info, iters, r0)] = runs
    assert (info, iters, len(products)) == (0, 0, 1)
    assert np.array_equal(F_warm.comps, F_cold.comps)
    f, x = level.f, G / level.f
    res_F = np.linalg.norm(b - (x / dt - system._lamL.A @ (f * x)))  # uncounted
    assert r0 < 1e-12 * np.linalg.norm(b)
    assert abs(r0 - res_F) <= 1e-16 * np.linalg.norm(b)

    runs.clear()
    products.clear()
    w = interior_vortex(grid, target_max=1.0)  # warm, but a new velocity
    system.step(level, velocity_derivatives(w), advect_tensor(w, F.comps), start=solved)
    [(info, iters, r0)] = runs
    assert info == 0 and iters >= 1 and r0 is None
    assert len(products) == iters + 2


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["unconverged", "nan"])
def test_failed_krylov_solve_raises_solver_error(grid16, monkeypatch, bad):
    system = TransportSystem(grid16, ModelParams(lam=1e-2), laplacian_matrix(grid16))
    phi = ScalarField.uniform(grid16, 0.2)
    v = interior_vortex(grid16, target_max=0.5)
    monkeypatch.setattr(krylov, "pcg", lambda A, b, **kw: (np.full_like(b, bad), 1, None))
    with pytest.raises(SolverError, match="transport residual"):
        _step(system, TensorField.identity(grid16), v, phi, 0.01)


def test_determinant_preserved_at_first_order():
    # lam = 0: det F stays near 1 under a solenoidal vortex; halving (dt, h)
    # together roughly halves the deviation
    dev_coarse = det_transport_deviation(32, dt=4e-3, t_end=0.25, lam=0.0)
    dev_fine = det_transport_deviation(64, dt=2e-3, t_end=0.25, lam=0.0)
    assert 1.4 <= dev_coarse / dev_fine <= 2.6


def test_regularization_breaks_determinant_transport():
    dev0 = det_transport_deviation(64, dt=2e-3, t_end=0.25, lam=0.0)
    dev_lam = det_transport_deviation(64, dt=2e-3, t_end=0.25, lam=1e-2)
    assert dev_lam > 1.5 * dev0


def test_regularization_drifts_det_f_in_proportion_to_lam():
    # v = 0, F0 = I across a tanh interface: diffusing G = f(phi) F moves
    # det F off 1 by O(lam t), independent of dt
    g = GridSpec(32, 32)
    _, Y = g.cell_centers()
    phi = ScalarField(g, np.tanh((Y - 0.5 * g.ly) / 0.1))
    v = StaggeredVectorField.zeros(g)

    def drift(lam, dt, t=0.01):
        system = TransportSystem(g, ModelParams(lam=lam), laplacian_matrix(g))
        F = TensorField.identity(g)
        for _ in range(round(t / dt)):
            F = _step(system, F, v, phi, dt)
        return float(np.max(np.abs(determinant(F.comps) - 1.0)))

    dev = {(lam, dt): drift(lam, dt) for lam in (1e-4, 2e-4) for dt in (2e-4, 1e-4)}
    for dt in (2e-4, 1e-4):
        assert 1.99 <= dev[2e-4, dt] / dev[1e-4, dt] <= 2.01
    for lam in (1e-4, 2e-4):
        assert dev[lam, 2e-4] == pytest.approx(dev[lam, 1e-4], rel=1e-3)


@pytest.mark.parametrize("profile, measured", [("tanh", 98), ("random", 59)])
def test_jacobi_cg_converges_at_largest_tested_lam_dt(monkeypatch, profile, measured):
    """The worst case of the diagonal preconditioner in the tested range:
    256^2, lam = 1e-2 (the lambda sweep's largest) and dt = 1e-2 (the
    default dt_max), so lam dt / h^2 = 6.6.  CG must converge, within 1.5
    times the preconditioner calls measured when this test was written."""
    grid = GridSpec(256, 256)
    X, _ = grid.cell_centers()
    rng = np.random.default_rng(1)
    phi = ScalarField(grid, np.tanh((X - 0.5 * grid.lx) / 0.05) if profile == "tanh"
                      else rng.standard_normal((256, 256)))
    F = TensorField(grid, rng.standard_normal((256, 256, 2, 2)))
    runs = []
    real_pcg = krylov.pcg

    def recorded_pcg(A, b, x0, *, M, **kwargs):
        calls = []
        x, info, r0 = real_pcg(A, b, x0, M=lambda r: calls.append(1) or M(r), **kwargs)
        runs.append((info, len(calls)))
        return x, info, r0

    monkeypatch.setattr(krylov, "pcg", recorded_pcg)
    _step(TransportSystem(grid, ModelParams(lam=1e-2), laplacian_matrix(grid)), F,
          StaggeredVectorField.zeros(grid), phi, 1e-2)
    [(info, calls)] = runs
    assert info == 0
    assert calls <= 1.5 * measured
