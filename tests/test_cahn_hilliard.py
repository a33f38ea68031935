import numpy as np
import pytest

from chve import cahn_hilliard as ch
from chve import constitutive as law
from chve import krylov
from chve.diagnostics import state_fields, total_energy
from chve.errors import NewtonError
from chve.grid import (GridSpec, ModelParams, PreconditionError, ScalarField,
                       StaggeredVectorField, TensorField)
from chve.operators import advect_scalar, laplacian_matrix


def _mu(phi, F, params):
    return ch.static_chemical_potential(phi, state_fields(phi, F, params).dw_dphi, params)


def _step(system, phi, F, v, dt, phi_prev=None):
    """One CH step from phi_n = phi as a first Picard sweep takes it: the
    level of (phi, phi_prev, b(phi), dt), phi_prev = phi unless given,
    dw/dphi at F and the advection of phi; returns (phi_new, mu_new,
    newton_iters)."""
    p = system.params
    level = system.prepare(phi, phi if phi_prev is None else phi_prev,
                           law.mobility_b(phi.values, p), dt)
    return system.step(level, state_fields(phi, F, p).dw_dphi, advect_scalar(v, phi.values))[:3]


def test_static_mu_vanishes_at_well(grid16, params):
    phi = ScalarField.uniform(grid16, 1.0)
    mu = _mu(phi, TensorField.identity(grid16), params)
    assert np.max(np.abs(mu.values)) == 0.0


def test_static_mu_uniform_values(grid16):
    params = ModelParams(eps=1.0)
    F = TensorField.identity(grid16)
    mu0 = _mu(ScalarField.uniform(grid16, 0.0), F, params)
    assert np.max(np.abs(mu0.values)) == 0.0  # psi'(0) = 0
    mu5 = _mu(ScalarField.uniform(grid16, 0.5), F, params)
    assert np.allclose(mu5.values, 0.5 ** 3 - 0.5)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_step_returns_the_split_mu(grid16, rng, delta):
    # the returned mu is the next step's first force, so it must be the
    # split formula at the returned phi, viscous term included, although
    # Newton only moves it by increments
    params = ModelParams(eps=0.05, b0=0.1, b1=0.1, c_elastic=0.25, delta=delta)
    phi_n = ScalarField(grid16, rng.uniform(-1.0, 1.0, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.1 * rng.standard_normal((16, 16, 2, 2)))
    dw_dphi = state_fields(phi_n, F, params).dw_dphi
    L = laplacian_matrix(grid16)
    dt = 1e-3
    system = ch.CHSystem(grid16, params, L)
    level = system.prepare(phi_n, phi_n, law.mobility_b(phi_n.values, params), dt)
    phi, mu, iters, _ = system.step(level, dw_dphi, np.zeros((16, 16)))
    assert iters >= 2
    p, pn = phi.values, phi_n.values
    split = (law.psi_plus_prime(p) / params.eps + law.psi_minus_prime(pn) / params.eps
             - params.eps * (L @ p.ravel()).reshape(16, 16) + dw_dphi
             + (delta / dt) * (p - pn))
    assert np.max(np.abs(mu.values - split)) <= 1e-12 * np.max(np.abs(split))


def test_static_mu_is_discrete_energy_gradient(grid16, rng):
    # <mu, eta> equals d/ds E(phi + s eta) at s=0, for every direction
    params = ModelParams(eps=0.7, c_elastic=0.9)
    phi = ScalarField(grid16, 0.3 * rng.standard_normal((16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.2 * rng.standard_normal((16, 16, 2, 2)))
    mu = _mu(phi, F, params)
    a = grid16.cell_area
    for _ in range(5):
        eta = rng.standard_normal((16, 16))
        h = 1e-6
        ep = total_energy(ScalarField(grid16, phi.values + h * eta), F, params).total
        em = total_energy(ScalarField(grid16, phi.values - h * eta), F, params).total
        fd = (ep - em) / (2 * h)
        pairing = np.sum(mu.values * eta) * a
        assert fd == pytest.approx(pairing, rel=1e-7, abs=1e-9)


def test_well_state_fixed_point_single_iteration(grid16, params):
    phi = ScalarField.uniform(grid16, 1.0)
    F = TensorField.identity(grid16)
    v = StaggeredVectorField.zeros(grid16)
    phi1, mu1, iters = _step(ch.CHSystem(grid16, params, laplacian_matrix(grid16)),
                             phi, F, v, 0.1)
    assert iters == 1
    assert np.array_equal(phi1.values, phi.values)
    assert np.max(np.abs(mu1.values)) == 0.0


def test_mass_conserved_per_step(grid16, rng):
    params = ModelParams(eps=0.25, b0=0.5, b1=0.5, c_elastic=0.3)
    phi = ScalarField(grid16, rng.uniform(-0.2, 0.2, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.1 * rng.standard_normal((16, 16, 2, 2)))
    psi = rng.standard_normal((17, 17))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    v = StaggeredVectorField.from_stream_function(grid16, 0.1 * psi)
    area = grid16.cell_area * grid16.nx * grid16.ny
    for dt in (1e-3, 1e-2):
        phi1, _, _ = _step(ch.CHSystem(grid16, params, laplacian_matrix(grid16)), phi, F, v, dt)
        drift = abs(np.sum(phi1.values) - np.sum(phi.values)) * grid16.cell_area
        assert drift <= 1e-12 * area


def test_linearized_amplification_matches_backward_euler_symbol():
    """Single cosine mode about phi = 0 with unit eps, F = I, v = 0.

    The convex split treats the (zero) curvature of psi_plus at 0
    implicitly and the -1 curvature of psi_minus explicitly, so one step
    multiplies the mode by (1 + dt b k^2) / (1 + dt b k^4)."""
    n = 256
    grid = GridSpec(n, 4)
    params = ModelParams(eps=1.0, b0=1.0, b1=1.0)
    dt = 2e-3
    X, _ = grid.cell_centers()
    k = 3 * np.pi / grid.lx
    mode = np.cos(k * X)
    amp0 = 1e-6
    phi = ScalarField(grid, amp0 * mode)
    F = TensorField.identity(grid)
    v = StaggeredVectorField.zeros(grid)

    phi1, _, _ = _step(ch.CHSystem(grid, params, laplacian_matrix(grid)), phi, F, v, dt)
    measured = float(np.sum(phi1.values * mode) / np.sum(mode * mode)) / amp0
    expected = (1.0 + dt * params.b0 * k ** 2) / (1.0 + dt * params.b0 * k ** 4)
    assert measured == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 1e-1])
def test_decoupled_energy_never_increases(dt, rng):
    """v = 0 and a stiffness window placed so f' vanishes on the whole
    phase range: the convex-splitting step is unconditionally
    dissipative in the phase-field energy."""
    grid = GridSpec(32, 32)
    params = ModelParams(eps=0.25, b0=1.0, b1=1.0, f_lo=2.0, f_hi=3.0)
    phi = ScalarField(grid, rng.uniform(-0.8, 0.8, (32, 32)))
    F = TensorField.identity(grid)
    v = StaggeredVectorField.zeros(grid)
    system = ch.CHSystem(grid, params, laplacian_matrix(grid))
    e = total_energy(phi, F, params).total
    for _ in range(25):
        phi, _, _ = _step(system, phi, F, v, dt)
        e_new = total_energy(phi, F, params).total
        assert e_new <= e + 1e-10 * abs(e)
        e = e_new


def test_newton_error_carries_residual(grid16, rng, monkeypatch):
    params = ModelParams(eps=0.05, b0=1.0, b1=1.0)
    phi = ScalarField(grid16, rng.uniform(-0.5, 0.5, (16, 16)))
    F = TensorField.identity(grid16)
    v = StaggeredVectorField.zeros(grid16)
    monkeypatch.setattr(ch, "TOL_NEWTON", 1e-14)
    monkeypatch.setattr(ch, "MAX_NEWTON", 1)
    with pytest.raises(NewtonError) as exc:
        _step(ch.CHSystem(grid16, params, laplacian_matrix(grid16)), phi, F, v, 1.0)
    assert exc.value.residual > 0.0
    assert exc.value.iterations == 1


def test_newton_stall_names_unconverged_gmres(grid16, rng, monkeypatch):
    # one GMRES iteration cannot reach rtol 1e-15, so the solve ends with info 1
    params = ModelParams(eps=0.05, b0=1.0, b1=1.0)
    phi = ScalarField(grid16, rng.uniform(-0.5, 0.5, (16, 16)))
    for name, value in (("GMRES_RTOL", 1e-15), ("GMRES_RESTART", 1), ("GMRES_MAXITER", 1),
                        ("MAX_NEWTON", 1), ("TOL_NEWTON", 1e-14)):
        monkeypatch.setattr(ch, name, value)
    with pytest.raises(NewtonError, match=r", GMRES did not converge \(info 1\)$"):
        _step(ch.CHSystem(grid16, params, laplacian_matrix(grid16)), phi,
              TensorField.identity(grid16), StaggeredVectorField.zeros(grid16), 1.0)


def test_rejects_nonpositive_dt(grid16, params):
    phi = ScalarField.uniform(grid16, 0.0)
    with pytest.raises(PreconditionError):
        ch.CHSystem(grid16, params, laplacian_matrix(grid16)).prepare(
            phi, phi, law.mobility_b(phi.values, params), dt=-0.1)


@pytest.mark.parametrize("b1", [0.1, 1.0])
def test_mass_exact_with_loose_newton_tolerance(grid16, rng, monkeypatch, b1):
    """A loose tol accepts an early, sloppy Newton iterate; the cell sum of
    phi must still be conserved to rounding, not to the solver tolerance,
    also from a warm start 2 phi_n - phi_prev whose cell sum is off.
    b1 = b0 is constant mobility, b1 > b0 a ramp."""
    params = ModelParams(eps=0.05, b0=0.1, b1=b1, c_elastic=0.3, delta=0.01)
    phi = ScalarField(grid16, rng.uniform(-0.9, 0.9, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.1 * rng.standard_normal((16, 16, 2, 2)))
    psi = rng.standard_normal((17, 17))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    v = StaggeredVectorField.from_stream_function(grid16, 0.1 * psi)
    system = ch.CHSystem(grid16, params, laplacian_matrix(grid16))
    shifted = ScalarField(grid16, phi.values - 0.05)  # the warm start is phi + 0.05
    monkeypatch.setattr(ch, "TOL_NEWTON", 1e-4)
    for dt in (1e-3, 1e-1):
        for phi_prev in (None, shifted):
            phi1, _, _ = _step(system, phi, F, v, dt, phi_prev=phi_prev)
            drift = abs(np.sum(phi1.values) - np.sum(phi.values))
            assert drift <= 1e-13 * np.sum(np.abs(phi.values))


@pytest.mark.parametrize("b1, assembled", [(0.1, 0), (0.7, 1)])
def test_prepare_assembles_mobility_operator_only_when_it_varies(
        grid16, rng, monkeypatch, b1, assembled):
    """b0 == b1 reuses b0 L, built once with the system; b0 < b1 assembles
    L_b of b(phi_n) in each prepare."""
    calls = []
    real = ch.laplacian_matrix
    monkeypatch.setattr(ch, "laplacian_matrix",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    params = ModelParams(eps=0.05, b0=0.1, b1=b1)
    system = ch.CHSystem(grid16, params, laplacian_matrix(grid16))
    phi = ScalarField(grid16, rng.uniform(-0.9, 0.9, (16, 16)))
    b = law.mobility_b(phi.values, params)
    level = system.prepare(phi, phi, b, 1e-3)
    assert len(calls) == assembled
    ref = laplacian_matrix(grid16, b) if assembled else 0.1 * laplacian_matrix(grid16)
    assert level.Lb.format == "dia"
    assert np.array_equal(level.Lb.toarray(), ref.toarray())


def test_nonfinite_residual_fails_at_once(grid16, rng, monkeypatch):
    from chve import constitutive

    calls = []
    monkeypatch.setattr(constitutive, "psi_minus_prime",
                        lambda s: np.full_like(s, np.nan))
    real_second = constitutive.psi_plus_second
    monkeypatch.setattr(constitutive, "psi_plus_second",
                        lambda s: calls.append(1) or real_second(s))
    phi = ScalarField(grid16, rng.uniform(-0.5, 0.5, (16, 16)))
    with pytest.raises(NewtonError) as exc:
        _step(ch.CHSystem(grid16, ModelParams(), laplacian_matrix(grid16)), phi,
              TensorField.identity(grid16), StaggeredVectorField.zeros(grid16), 1e-3)
    assert not np.isfinite(exc.value.residual)
    assert exc.value.iterations == 0
    assert calls == []  # no Newton update was attempted


class _CountedMatrix:
    """A sparse matrix that counts its products with a vector."""

    def __init__(self, A, calls):
        self.A, self.calls = A, calls

    def __matmul__(self, x):
        self.calls.append(1)
        return self.A @ x


def test_one_dct_pair_per_gmres_iteration(grid16, rng, monkeypatch):
    """Each GMRES iteration applies the DCT preconditioner once, and nothing
    else in the step does: not to the right-hand side, not to the result.
    Outside GMRES a step costs two sparse products to set up (eps L phi in
    mu, L_b mu in r) and three per Newton update (L_b D for the k = 0 row,
    eps L dphi for the mu increment, L_b mu for the new residual)."""
    from chve import krylov

    dct_calls, matvecs, sparse = [], [], []
    real_dct, real_gmres = ch.dct_diagonal, krylov.gmres

    def counted_gmres(A, b, **kwargs):
        matvecs.append(0)

        def counted_A(x):
            matvecs[-1] += 1
            return A(x)
        return real_gmres(counted_A, b, **kwargs)

    monkeypatch.setattr(ch, "dct_diagonal",
                        lambda *a: dct_calls.append(1) or real_dct(*a))
    monkeypatch.setattr(krylov, "gmres", counted_gmres)
    params = ModelParams(eps=0.05, b0=0.1, b1=0.1, c_elastic=0.25)
    phi = ScalarField(grid16, rng.uniform(-0.5, 0.5, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.1 * rng.standard_normal((16, 16, 2, 2)))
    system = ch.CHSystem(grid16, params, laplacian_matrix(grid16))
    system.L = _CountedMatrix(system.L, sparse)
    system._Lb = _CountedMatrix(system._Lb, sparse)
    _, _, iters = _step(system, phi, F, StaggeredVectorField.zeros(grid16), 1e-3)
    # no restart at this size, so every operator product is one iteration
    assert iters >= 2
    assert len(matvecs) == iters
    assert sum(matvecs) > iters
    assert len(dct_calls) == sum(matvecs)
    # each operator product is eps L x, then L_b of the result
    assert len(sparse) == 2 + sum(2 * a + 3 for a in matvecs)


def test_warm_start_continues_from_an_earlier_sweep(grid16, rng, monkeypatch):
    """start = (phi', mu', dw') of an earlier sweep on the same level.  With
    the same dw/dphi the step starts at that sweep's solution: mu' is taken
    as it is, without a product with L or a psi_plus' pass.  With a new
    dw/dphi it starts from mu' + (dw/dphi - dw'), reaches the solution of a
    cold start, and returns the split mu at its phi; the GMRES count is the
    number of preconditioner applications."""
    from dataclasses import replace

    from chve import constitutive
    params = ModelParams(eps=0.05, b0=0.1, b1=0.7, c_elastic=0.25, delta=0.3)
    phi_n = ScalarField(grid16, rng.uniform(-0.9, 0.9, (16, 16)))
    F = TensorField(grid16, np.eye(2) + 0.1 * rng.standard_normal((16, 16, 2, 2)))
    psi = rng.standard_normal((17, 17))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    adv = advect_scalar(StaggeredVectorField.from_stream_function(grid16, 0.1 * psi),
                        phi_n.values)
    f_prime = law.stiffness_f_prime(phi_n.values, params)
    _, dw1 = law.elastic_response(f_prime, F.comps, params)
    _, dw2 = law.elastic_response(f_prime, 1.1 * F.comps, params)
    dt = 1e-3
    system = ch.CHSystem(grid16, params, laplacian_matrix(grid16))
    level = system.prepare(phi_n, phi_n, law.mobility_b(phi_n.values, params), dt)
    dct_calls = []
    real_dct = ch.dct_diagonal
    monkeypatch.setattr(ch, "dct_diagonal", lambda *a: dct_calls.append(1) or real_dct(*a))
    phi1, mu1, iters, gmres_iters = system.step(level, dw1, adv)
    assert iters >= 2 and gmres_iters == len(dct_calls) >= iters

    # the same sweep again: its first residual is the last one of the call
    # above, which met TOL_NEWTON; the first test asks for 1e-2 TOL_NEWTON,
    # so widening the tolerance 100-fold makes it pass with no update
    sparse, pp_calls = [], []
    real_pp = constitutive.psi_plus_prime
    monkeypatch.setattr(constitutive, "psi_plus_prime",
                        lambda s: pp_calls.append(1) or real_pp(s))
    monkeypatch.setattr(ch, "TOL_NEWTON", 1e2 * ch.TOL_NEWTON)
    counted = replace(level, Lb=_CountedMatrix(level.Lb, sparse))
    system.L = _CountedMatrix(system.L, sparse)
    phi2, mu2, iters2, gmres2 = system.step(counted, dw1, adv, start=(phi1, mu1, dw1))
    assert (iters2, gmres2, len(sparse), len(pp_calls)) == (1, 0, 1, 0)
    assert phi2.values.tobytes() == phi1.values.tobytes()
    assert mu2.values.tobytes() == mu1.values.tobytes()
    monkeypatch.undo()

    cold_phi, _, _, _ = system.step(level, dw2, adv)
    system = ch.CHSystem(grid16, params, laplacian_matrix(grid16))
    phi3, mu3, iters3, gmres3 = system.step(level, dw2, adv, start=(phi1, mu1, dw1))
    assert iters3 >= 1 and gmres3 >= 1
    assert np.max(np.abs(phi3.values - cold_phi.values)) <= 1e-10
    p, pn = phi3.values, phi_n.values
    split = (law.psi_plus_prime(p) / params.eps + law.psi_minus_prime(pn) / params.eps
             - params.eps * (laplacian_matrix(grid16) @ p.ravel()).reshape(16, 16) + dw2
             + (params.delta / dt) * (p - pn))
    assert np.max(np.abs(mu3.values - split)) <= 1e-12 * np.max(np.abs(split))
